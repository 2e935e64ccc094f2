"""Frozen copies of the stride-tricks convolution and the two-pass GroupNorm.

These are the ``Conv2d`` forward/backward (``np.pad``, an ``as_strided``
im2col view with a reshape copy, and the kh x kw ``_col2im`` scatter loop)
and the ``GroupNorm.forward`` (``mean`` then ``var``) that the library ran
before both moved onto cached index plans and a one-pass centred variance.
They exist ONLY as the reference side of ``tests/test_conv_plans.py``: the
production layers must keep producing bit-identical outputs and gradients.

Do not "fix" or modernise this file: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["reference_conv_forward", "reference_conv_backward", "reference_groupnorm_forward"]

_EPS = 1e-5


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Extract sliding patches from ``x`` (n, c, h, w) already padded.

    Returns an array of shape ``(n, out_h, out_w, c, kh, kw)`` that is a
    strided *view* of ``x`` — zero-copy until the caller reshapes.
    """
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    view = as_strided(
        x,
        shape=(n, out_h, out_w, c, kh, kw),
        strides=(sn, sh * stride, sw * stride, sc, sh, sw),
        writeable=False,
    )
    return view


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
) -> np.ndarray:
    """Scatter-add column gradients back to image layout (inverse of im2col)."""
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    dx = np.zeros(x_shape, dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    return dx


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    p = padding
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def reference_conv_forward(conv, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The old ``Conv2d.forward`` on ``conv``'s parameters: (output, cache)."""
    xp = _pad(x, conv.padding)
    k, s = conv.kernel_size, conv.stride
    patches = _im2col(xp, k, k, s)  # (n, oh, ow, c, kh, kw)
    n, oh, ow = patches.shape[:3]
    cols = patches.reshape(n * oh * ow, -1)  # copy happens here
    w_mat = conv.params["W"].reshape(conv.out_channels, -1)
    out = cols @ w_mat.T
    if conv.use_bias:
        out += conv.params["b"]
    out = out.reshape(n, oh, ow, conv.out_channels).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(out), (cols, xp.shape, (n, oh, ow))


def reference_conv_backward(conv, cache: tuple, dout: np.ndarray) -> tuple[dict, np.ndarray]:
    """The old ``Conv2d.backward``: (parameter gradients, dx), from zero grads."""
    cols, xp_shape, (n, oh, ow) = cache
    k, s = conv.kernel_size, conv.stride
    grads = {}
    dout_mat = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, conv.out_channels)
    w_mat = conv.params["W"].reshape(conv.out_channels, -1)
    grads["W"] = np.zeros_like(conv.params["W"])
    grads["W"] += (dout_mat.T @ cols).reshape(conv.params["W"].shape)
    if conv.use_bias:
        grads["b"] = np.zeros_like(conv.params["b"])
        grads["b"] += dout_mat.sum(axis=0)
    dcols = dout_mat @ w_mat  # (n*oh*ow, c*k*k)
    dxp = _col2im(
        dcols.reshape(n, oh, ow, conv.in_channels, k, k).reshape(n, oh, ow, -1),
        xp_shape,
        k,
        k,
        s,
    )
    if conv.padding:
        p = conv.padding
        return grads, dxp[:, :, p:-p, p:-p]
    return grads, dxp


def reference_groupnorm_forward(gn, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The old ``GroupNorm.forward`` on ``gn``'s parameters: (out, xhat, var)."""
    n, c, h, w = x.shape
    xg = x.reshape(n, gn.g, -1)
    mu = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    xhat = ((xg - mu) / np.sqrt(var + _EPS)).reshape(n, c, h, w)
    out = xhat * gn.params["gamma"][0][None, :, None, None]
    out += gn.params["beta"][0][None, :, None, None]
    return out, xhat, var
