"""Normalization layers.

GroupNorm is the library default: it has no cross-client state, so federated
aggregation of parameters is exact and runs are seed-deterministic.
BatchNorm2d is provided for fidelity with the paper's ResNet-18/34 backbones;
its running statistics live in ``buffers`` and never enter the flattened
parameter vector (hence never the momentum algebra).  Its batch statistics
are per client, so it trains one client row at a time; GroupNorm and
LayerNorm normalise per sample and apply each client row's affine transform.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["GroupNorm", "BatchNorm2d", "LayerNorm"]

_EPS = 1e-5


class GroupNorm(Module):
    """Group normalization over NCHW inputs.

    Args:
        num_groups: number of channel groups; must divide ``num_channels``.
        num_channels: channel count of the input.
    """

    def __init__(self, num_groups: int, num_channels: int) -> None:
        super().__init__()
        if num_channels % num_groups:
            raise ValueError(
                f"num_channels {num_channels} not divisible by num_groups {num_groups}"
            )
        self.g = num_groups
        self.c = num_channels
        self.params["gamma"] = np.ones(num_channels, dtype=np.float64)
        self.params["beta"] = np.zeros(num_channels, dtype=np.float64)
        self._bind()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        gamma = self.params["gamma"]
        rows = gamma.shape[0]
        if x.ndim != 4 or x.shape[1] != self.c or x.shape[0] % rows:
            raise ValueError(
                f"GroupNorm expected ({rows} * n, {self.c}, h, w), got {x.shape}"
            )
        n, c, h, w = x.shape
        xg = x.reshape(n, self.g, -1)
        diff = xg - xg.mean(axis=2, keepdims=True)
        # np.var's own formula on the centred tensor, so the bits match it
        var = (diff * diff).sum(axis=2, keepdims=True) / xg.shape[2]
        xhat = (diff / np.sqrt(var + _EPS)).reshape(rows, -1, c, h, w)
        out = xhat * gamma[:, None, :, None, None]
        out += self.params["beta"][:, None, :, None, None]
        self._cache = (xhat, var) if train else None
        return out.reshape(n, c, h, w)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        xhat, var = self._cache
        gamma = self.params["gamma"]
        d = dout.reshape(xhat.shape)
        (d * xhat).sum(axis=(1, 3, 4), out=self.grads["gamma"])
        d.sum(axis=(1, 3, 4), out=self.grads["beta"])
        dxhat = d * gamma[:, None, :, None, None]
        n = dout.shape[0]
        dxg = dxhat.reshape(n, self.g, -1)
        xg = xhat.reshape(n, self.g, -1)
        m = dxg.shape[2]
        istd = 1.0 / np.sqrt(var + _EPS)
        dx = istd * (
            dxg - dxg.sum(axis=2, keepdims=True) / m
            - xg * ((dxg * xg).sum(axis=2, keepdims=True) / m)
        )
        return dx.reshape(dout.shape)


class BatchNorm2d(Module):
    """Batch normalization over NCHW inputs with running statistics."""

    def __init__(self, num_channels: int, momentum: float = 0.1) -> None:
        super().__init__()
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.c = num_channels
        self.momentum = momentum
        self.params["gamma"] = np.ones(num_channels, dtype=np.float64)
        self.params["beta"] = np.zeros(num_channels, dtype=np.float64)
        self.buffers["running_mean"] = np.zeros(num_channels, dtype=np.float64)
        self.buffers["running_var"] = np.ones(num_channels, dtype=np.float64)
        self._bind()
        self._cache: tuple | None = None

    def _affine(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The one client's ``(gamma, beta, dgamma, dbeta)`` rows.

        Batch statistics and running buffers are per client, so the layer
        trains one client at a time (execution runs buffer models' cohorts
        job by job)."""
        if self.num_clients != 1:
            raise ValueError(
                f"BatchNorm2d trains one client at a time, got {self.num_clients} rows"
            )
        p, g = self.params, self.grads
        return p["gamma"][0], p["beta"][0], g["gamma"][0], g["beta"][0]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.c:
            raise ValueError(f"BatchNorm2d expected (n, {self.c}, h, w), got {x.shape}")
        gamma, beta, _, _ = self._affine()
        if train:
            mu = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = self.momentum
            self.buffers["running_mean"] *= 1 - m
            self.buffers["running_mean"] += m * mu
            self.buffers["running_var"] *= 1 - m
            self.buffers["running_var"] += m * var
        else:
            mu = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        xhat = (x - mu[None, :, None, None]) / np.sqrt(var + _EPS)[None, :, None, None]
        out = xhat * gamma[None, :, None, None]
        out += beta[None, :, None, None]
        self._cache = (xhat, var, x.shape) if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        xhat, var, x_shape = self._cache
        gamma, _, dgamma, dbeta = self._affine()
        (dout * xhat).sum(axis=(0, 2, 3), out=dgamma)
        dout.sum(axis=(0, 2, 3), out=dbeta)
        dxhat = dout * gamma[None, :, None, None]
        istd = (1.0 / np.sqrt(var + _EPS))[None, :, None, None]
        mean_dxhat = dxhat.mean(axis=(0, 2, 3), keepdims=True)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
        return istd * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)


class LayerNorm(Module):
    """Layer normalization over the last axis of (n, d) inputs."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.dim = dim
        self.params["gamma"] = np.ones(dim, dtype=np.float64)
        self.params["beta"] = np.zeros(dim, dtype=np.float64)
        self._bind()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        gamma = self.params["gamma"]
        rows = gamma.shape[0]
        if x.ndim != 2 or x.shape[1] != self.dim or x.shape[0] % rows:
            raise ValueError(f"LayerNorm expected ({rows} * n, {self.dim}), got {x.shape}")
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        xhat = (x - mu) / np.sqrt(var + _EPS)
        self._cache = (xhat, var) if train else None
        out = xhat.reshape(rows, -1, self.dim) * gamma[:, None, :]
        out += self.params["beta"][:, None, :]
        return out.reshape(x.shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        xhat, var = self._cache
        gamma = self.params["gamma"]
        d = dout.reshape(gamma.shape[0], -1, self.dim)
        (d * xhat.reshape(d.shape)).sum(axis=1, out=self.grads["gamma"])
        d.sum(axis=1, out=self.grads["beta"])
        dxhat = (d * gamma[:, None, :]).reshape(dout.shape)
        istd = 1.0 / np.sqrt(var + _EPS)
        return istd * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
