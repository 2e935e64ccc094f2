"""Dense layers, activations and shape utilities."""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_mod
from repro.nn.module import Module

__all__ = ["Dense", "ReLU", "Flatten", "Dropout"]


class Dense(Module):
    """Fully-connected layer ``y = x @ W + b``.

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
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected (n, {self.in_features}), got {x.shape}"
            )
        self._x = x if train else None
        y = x @ self.params["W"]
        if self.use_bias:
            y += self.params["b"]
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward(train=True)")
        self.grads["W"] += self._x.T @ dout
        if self.use_bias:
            self.grads["b"] += dout.sum(axis=0)
        return dout @ self.params["W"].T


class ReLU(Module):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        mask = x > 0
        self._mask = mask if train else None
        return x * mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward(train=True)")
        return dout * self._mask


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._shape = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward(train=True)")
        return dout.reshape(self._shape)


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
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask
