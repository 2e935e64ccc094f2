"""Dense layers, activations and shape utilities."""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_mod
from repro.nn.module import Module

__all__ = ["Dense", "ReLU", "Flatten", "Dropout"]


class Dense(Module):
    """Fully-connected layer ``y = x @ W + b``, per client row.

    Args:
        in_features: input dimensionality.
        out_features: output dimensionality.
        rng: generator used for He initialization.
        bias: include an additive bias term.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Dense dims must be positive, got {in_features}x{out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = bias
        self.params["W"] = init_mod.he_normal(rng, (in_features, out_features), in_features)
        if bias:
            self.params["b"] = init_mod.zeros((out_features,))
        self._bind()
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        w = self.params["W"]
        rows = w.shape[0]
        if x.ndim != 2 or x.shape[1] != self.in_features or x.shape[0] % rows:
            raise ValueError(
                f"Dense expected ({rows} * n, {self.in_features}), got {x.shape}"
            )
        # per-client GEMMs: one stacked matmul over the client axis
        x3 = x.reshape(rows, -1, self.in_features)
        self._cache = x3 if train else None
        y = np.matmul(x3, w)
        if self.use_bias:
            y += self.params["b"][:, None, :]
        return y.reshape(-1, self.out_features)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d3 = self._write_grads(dout)
        return np.matmul(d3, self.params["W"].transpose(0, 2, 1)).reshape(-1, self.in_features)

    def backward_params(self, dout: np.ndarray) -> None:
        self._write_grads(dout)

    def _write_grads(self, dout: np.ndarray) -> np.ndarray:
        """Write ``dW`` (and ``db``) into the arena views; returns ``dout``
        split per client row."""
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        d3 = dout.reshape(self._cache.shape[0], -1, self.out_features)
        np.matmul(self._cache.transpose(0, 2, 1), d3, out=self.grads["W"])
        if self.use_bias:
            np.add.reduce(d3, axis=1, out=self.grads["b"])
        return d3


class ReLU(Module):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        mask = x > 0
        self._cache = mask if train else None
        return x * mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        return dout * self._cache


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        return dout.reshape(self._cache)


class Dropout(Module):
    """Inverted dropout; identity at evaluation time.

    The mask is drawn from the module's own generator so training remains
    deterministic given the construction seed.
    """

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if not train or self.p == 0.0:
            self._cache = None
            return x
        keep = 1.0 - self.p
        self._cache = (self.rng.random(x.shape) < keep) / keep
        return x * self._cache

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            return dout
        return dout * self._cache
