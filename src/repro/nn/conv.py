"""Convolution and pooling layers (NCHW layout).

``Conv2d`` lowers convolution to one GEMM per client row over that client's
im2col rows; the client rows run one at a time, so the largest temporaries
are one client's.  The data movement on either side of each GEMM runs on two
index plans that depend only on the layer geometry:

* forward: ``x`` is copied into a zero-padded buffer with one slice
  assignment, and one ``np.take`` over the gather plan lays out the
  ``(n*oh*ow, c*kh*kw)`` column matrix;
* backward: one ``np.bincount`` over the scatter plan sums a client's column
  gradients back into image layout.  Entries that fall on padding go to a
  dump bin past the end, so the unpadded ``dx`` comes back directly.

``bincount`` adds its weights in array order, each bin starting from 0.0.
The column gradients run over (sample, oy, ox, c, kh, kw) in flat order,
and an input pixel in row y meets kernel row ``kh = y - s * oy``: a later
``oy`` means an earlier ``kh``, and likewise for ``ox`` and ``kw``.  Fed
reversed, ``bincount`` hands each pixel its (kh, kw) contributions in
ascending order, starting from 0.0 -- the additions a kh x kw scatter loop
makes, in the same sequence, hence the same bits.

Both plans are read-only arrays in bounded module-level LRU caches: layers
of one geometry share them, threads may read them concurrently, and they
never travel with a pickled module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.nn import init as init_mod
from repro.nn.module import Module

__all__ = ["Conv2d", "MaxPool2d", "GlobalAvgPool2d", "AvgPool2d"]

# plans a process keeps per kind: a ResNet-lite has 8 conv input geometries,
# and scatter plans also key on the batch size (the full batch and each
# client's remainder batch, which the LRU order lets go first)
_PLAN_CACHE = 32


@lru_cache(maxsize=_PLAN_CACHE)
def _gather_plan(c: int, hp: int, wp: int, k: int, s: int) -> np.ndarray:
    """Flat indices into one padded sample ``(c, hp, wp)``.

    Row ``oy * ow + ox`` lists the ``(c, kh, kw)`` patch under output pixel
    ``(oy, ox)``, so ``np.take`` along a sample's flat axis yields its
    im2col rows.
    """
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    patch = np.arange(c)[:, None, None] * (hp * wp) + np.arange(k)[:, None] * wp + np.arange(k)
    origin = np.arange(oh)[:, None] * (s * wp) + np.arange(ow) * s
    plan = origin.reshape(-1, 1) + patch.reshape(1, -1)
    plan.flags.writeable = False
    return plan


@lru_cache(maxsize=_PLAN_CACHE)
def _scatter_plan(n: int, c: int, h: int, w: int, k: int, s: int, p: int) -> np.ndarray:
    """Target bin of every column-gradient entry, in reversed flat order.

    The bin is the entry's flat index into the unpadded ``(n, c, h, w)``
    input, or the dump bin ``n * c * h * w`` when it lands on padding.
    """
    hp, wp = h + 2 * p, w + 2 * p
    ci, pixel = np.divmod(_gather_plan(c, hp, wp, k, s), hp * wp)
    y, x = np.divmod(pixel, wp)
    y -= p
    x -= p
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    target = (ci * h + y) * w + x + (np.arange(n) * (c * h * w))[:, None, None]
    target[:, ~inside] = n * c * h * w
    plan = np.ascontiguousarray(target.reshape(-1)[::-1])
    plan.flags.writeable = False
    return plan


class Conv2d(Module):
    """2-D convolution over NCHW inputs.

    Args:
        in_channels / out_channels: channel counts.
        kernel_size: square kernel side.
        stride: spatial stride.
        padding: symmetric zero padding.
        rng: generator for He initialization.
        bias: include per-channel bias.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ValueError("invalid Conv2d geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.use_bias = bias
        fan_in = in_channels * kernel_size * kernel_size
        self.params["W"] = init_mod.he_normal(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in
        )
        if bias:
            self.params["b"] = init_mod.zeros((out_channels,))
        self._bind()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        w = self.params["W"]
        rows = w.shape[0]
        if x.ndim != 4 or x.shape[1] != self.in_channels or x.shape[0] % rows:
            raise ValueError(
                f"Conv2d expected ({rows} * n, {self.in_channels}, h, w), got {x.shape}"
            )
        n, c, h, w_ = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        hp, wp = h + 2 * p, w_ + 2 * p
        if min(hp, wp) < k:
            raise ValueError(f"Conv2d kernel {k} exceeds padded input {hp}x{wp}")
        oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
        xp = x
        if p:
            xp = np.zeros((n, c, hp, wp), dtype=x.dtype)
            xp[:, :, p : p + h, p : p + w_] = x
        plan = _gather_plan(c, hp, wp, k, s)
        w_mat = w.reshape(rows, self.out_channels, -1)
        m = n // rows
        out = np.empty((n, self.out_channels, oh, ow))
        # one client row at a time: its im2col rows and its GEMM, so a
        # cohort's folded batch never holds every client's columns at once
        for i in range(rows):
            cols = np.take(xp[i * m:(i + 1) * m].reshape(m, -1), plan, axis=1)
            o = cols.reshape(m * oh * ow, -1) @ w_mat[i].T
            if self.use_bias:
                o += self.params["b"][i]
            out[i * m:(i + 1) * m] = o.reshape(m, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        # the padded input, not its ~k*k/s^2 times larger im2col rows: the
        # folded batch would hold every layer's columns at once
        self._cache = (xp, x.shape) if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return self._backward(dout, input_grad=True)

    def backward_params(self, dout: np.ndarray) -> None:
        self._backward(dout, input_grad=False)

    def _backward(self, dout: np.ndarray, input_grad: bool) -> np.ndarray | None:
        """Write ``dW`` (and ``db``) into the arena views, one client row at
        a time, and return ``dx`` when ``input_grad`` asks for it."""
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        xp, (n, c, h, w) = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        rows = self.params["W"].shape[0]
        m = n // rows
        gather = _gather_plan(c, xp.shape[2], xp.shape[3], k, s)
        dw = self.grads["W"].reshape(rows, self.out_channels, -1)
        dx = None
        if input_grad:
            # scatter plans key on the client batch size, however many
            # clients share the step
            scatter = _scatter_plan(m, c, h, w, k, s, p)
            size = m * c * h * w
            dx = np.empty((n, c, h, w))
        for i in range(rows):
            lo, hi = i * m, (i + 1) * m
            cols = np.take(xp[lo:hi].reshape(m, -1), gather, axis=1).reshape(-1, c * k * k)
            dout_mat = dout[lo:hi].transpose(0, 2, 3, 1).reshape(cols.shape[0], self.out_channels)
            np.matmul(dout_mat.T, cols, out=dw[i])
            if self.use_bias:
                dout_mat.sum(axis=0, out=self.grads["b"][i])
            if input_grad:
                dcols = dout_mat @ self.params["W"][i].reshape(self.out_channels, -1)
                dx[lo:hi] = np.bincount(
                    scatter, weights=dcols.reshape(-1)[::-1], minlength=size + 1
                )[:size].reshape(m, c, h, w)
        return dx


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        self.k = kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError(f"spatial dims {h}x{w} not divisible by pool {k}")
        xr = x.reshape(n, c, h // k, k, w // k, k)
        out = xr.max(axis=(3, 5))
        # ties share the gradient equally (counts divisor in backward)
        self._cache = (xr == out[:, :, :, None, :, None], x.shape) if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        mask, x_shape = self._cache
        n, c, h, w = x_shape
        k = self.k
        counts = mask.sum(axis=(3, 5), keepdims=True)
        dx = mask * (dout[:, :, :, None, :, None] / counts)
        return dx.reshape(n, c, h // k, k, w // k, k).reshape(x_shape)


class AvgPool2d(Module):
    """Non-overlapping average pooling (kernel == stride)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        self.k = kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError(f"spatial dims {h}x{w} not divisible by pool {k}")
        self._cache = x.shape if train else None
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        n, c, h, w = self._cache
        k = self.k
        dx = np.broadcast_to(
            dout[:, :, :, None, :, None] / (k * k), (n, c, h // k, k, w // k, k)
        )
        return dx.reshape(self._cache).copy()


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, yielding (n, c)."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {x.shape}")
        self._cache = x.shape if train else None
        return x.mean(axis=(2, 3))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(train=True)")
        n, c, h, w = self._cache
        return np.broadcast_to(dout[:, :, None, None] / (h * w), self._cache).copy()
