"""Plan-based Conv2d and one-pass GroupNorm == their frozen predecessors.

``tests/_reference_conv.py`` keeps the stride-tricks convolution and the
two-pass GroupNorm forward.  The production layers must reproduce them bit
for bit — outputs, parameter gradients and input gradients — on every layer
geometry ``make_resnet_lite`` produces and on generated geometries.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_conv import (
    reference_conv_backward,
    reference_conv_forward,
    reference_groupnorm_forward,
)
from repro.nn import BasicBlock, Conv2d, GroupNorm, make_resnet_lite
from repro.nn.conv import _gather_plan, _scatter_plan

IMAGE = 8  # the spatial side of every image-like -lite dataset


def _resnet_layers(depth: str, width: int):
    """(Conv2d, input side) and (GroupNorm, input side) of one ResNet-lite."""
    model = make_resnet_lite(3, IMAGE, 10, depth=depth, width=width)
    convs, norms = [], []
    side = IMAGE
    for m in model.children_:
        if isinstance(m, Conv2d):
            convs.append((m, side))
        elif isinstance(m, GroupNorm):
            norms.append((m, side))
        elif isinstance(m, BasicBlock):
            convs.append((m.conv1, side))
            if m.project is not None:
                convs.append((m.project, side))
            side = (side + 2 * m.conv1.padding - 3) // m.conv1.stride + 1
            norms += [(m.norm1, side), (m.norm2, side)]
            convs.append((m.conv2, side))
    return convs, norms


def _resnet_geometries():
    """Distinct (c_in, c_out, k, stride, pad, side) over depth x width."""
    seen = set()
    for depth in ("micro", "18", "34"):
        for width in (4, 8):
            for conv, side in _resnet_layers(depth, width)[0]:
                seen.add((conv.in_channels, conv.out_channels, conv.kernel_size,
                          conv.stride, conv.padding, side))
    return sorted(seen)


def _upstream(conv: Conv2d, x: np.ndarray, seed: int) -> np.ndarray:
    """A random gradient of the layer's output shape."""
    n, _, h, w = x.shape
    k, s, p = conv.kernel_size, conv.stride, conv.padding
    shape = (n, conv.out_channels, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
    return np.random.default_rng(seed).normal(size=shape)


def _production(conv: Conv2d, x: np.ndarray, dout: np.ndarray):
    """(output, parameter gradients, dx) of the layer, from zero gradients."""
    out = conv.forward(x, train=True)
    dx = conv.backward(dout)
    return out, conv.grads, dx


def _reference(conv: Conv2d, x: np.ndarray, dout: np.ndarray):
    out, cache = reference_conv_forward(conv, x)
    return (out, *reference_conv_backward(conv, cache, dout))


def _run_both(conv: Conv2d, x: np.ndarray, seed: int):
    dout = _upstream(conv, x, seed)
    return _production(conv, x, dout), _reference(conv, x, dout)


def _assert_pinned(conv, got, want, atol=0.0):
    (out, grads, dx), (ref_out, ref_grads, ref_dx) = got, want
    pairs = {"forward": (out, ref_out), "dW": (grads["W"], ref_grads["W"]), "dx": (dx, ref_dx)}
    if conv.use_bias:
        pairs["db"] = (grads["b"], ref_grads["b"])
    for name, (a, b) in pairs.items():
        if atol:
            np.testing.assert_allclose(a, b, rtol=0, atol=atol, err_msg=name)
        else:
            np.testing.assert_array_equal(a, b, err_msg=name)


class TestConvPin:
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("batch", [1, 7, 10])
    @pytest.mark.parametrize("geometry", _resnet_geometries())
    def test_resnet_lite_geometries(self, geometry, batch, bias):
        cin, cout, k, stride, pad, side = geometry
        rng = np.random.default_rng([*geometry, batch])
        conv = Conv2d(cin, cout, k, rng, stride=stride, padding=pad, bias=bias)
        if bias:
            conv.params["b"][:] = rng.normal(size=cout)
        x = rng.normal(size=(batch, cin, side, side))
        _assert_pinned(conv, *_run_both(conv, x, seed=batch))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4), c=st.integers(1, 5), cout=st.integers(1, 5),
        k=st.integers(1, 4), s=st.integers(1, 3), p=st.integers(0, 2),
        h=st.integers(1, 9), w=st.integers(1, 9), bias=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_random_geometry(self, n, c, cout, k, s, p, h, w, bias, seed):
        h, w = max(h, k - 2 * p), max(w, k - 2 * p)
        rng = np.random.default_rng(seed)
        conv = Conv2d(c, cout, k, rng, stride=s, padding=p, bias=bias)
        if bias:
            conv.params["b"][:] = rng.normal(size=cout)
        x = rng.normal(size=(n, c, h, w))
        # The one known exception: where the patch axes happen to merge (one
        # sample under a 1x1 stride-1 kernel, the common case, or a single
        # output row or column), the old reshape returned a strided view
        # instead of a copy, and matmul took another path on it (BLAS on a
        # transposed operand, or numpy's own loop).  Those products agree
        # to rounding (|diff| ~ 1e-15), not to the bit.  All else is exact.
        strided = not reference_conv_forward(conv, x)[1][0].flags.c_contiguous
        _assert_pinned(conv, *_run_both(conv, x, seed=seed), atol=1e-12 if strided else 0.0)

    def test_plans_are_cached_read_only_and_bounded(self):
        conv = Conv2d(4, 4, 3, np.random.default_rng(0), stride=1, padding=1)
        x = np.random.default_rng(1).normal(size=(10, 4, 8, 8))
        conv.backward(conv.forward(x))
        gather = _gather_plan(4, 10, 10, 3, 1)
        scatter = _scatter_plan(10, 4, 8, 8, 3, 1, 1)
        assert gather is _gather_plan(4, 10, 10, 3, 1)
        assert scatter is _scatter_plan(10, 4, 8, 8, 3, 1, 1)
        assert not gather.flags.writeable and not scatter.flags.writeable
        for plan_fn in (_gather_plan, _scatter_plan):
            assert plan_fn.cache_info().maxsize is not None

    def test_plans_stay_out_of_pickles(self):
        conv = Conv2d(4, 4, 3, np.random.default_rng(0), stride=1, padding=1)
        before = len(pickle.dumps(conv))
        conv.forward(np.ones((10, 4, 8, 8)), train=False)
        assert len(pickle.dumps(conv)) == before

    def test_threads_share_plans(self):
        # empty caches and a short switch interval, so more threads than
        # cores race to build and read the same plans
        _gather_plan.cache_clear()
        _scatter_plan.cache_clear()
        rng = np.random.default_rng(5)
        convs = [Conv2d(3, 5, 3, np.random.default_rng(i), stride=2, padding=2)
                 for i in range(8)]
        xs = [rng.normal(size=(3, 3, 13, 11)) for _ in convs]
        douts = [_upstream(conv, x, i) for i, (conv, x) in enumerate(zip(convs, xs))]
        want = [_reference(*args) for args in zip(convs, xs, douts)]
        got = [None] * len(convs)

        def work(i):
            got[i] = _production(convs[i], xs[i], douts[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(convs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for conv, g, w in zip(convs, got, want):
            _assert_pinned(conv, g, w)


def _assert_groupnorm_pinned(gn: GroupNorm, x: np.ndarray):
    out = gn.forward(x, train=True)
    xhat, var = gn._cache
    ref_out, ref_xhat, ref_var = reference_groupnorm_forward(gn, x)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(xhat.reshape(ref_xhat.shape), ref_xhat)
    np.testing.assert_array_equal(var, ref_var)


class TestGroupNormPin:
    @pytest.mark.parametrize("batch", [1, 7, 10])
    @pytest.mark.parametrize("depth", ["micro", "18", "34"])
    @pytest.mark.parametrize("width", [4, 8])
    def test_resnet_lite_layers(self, depth, width, batch):
        rng = np.random.default_rng(batch)
        for gn, side in _resnet_layers(depth, width)[1]:
            gn.params["gamma"][:] = rng.normal(size=gn.c)
            gn.params["beta"][:] = rng.normal(size=gn.c)
            _assert_groupnorm_pinned(gn, rng.normal(size=(batch, gn.c, side, side)) * 3 + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6), g=st.integers(1, 4), per_group=st.integers(1, 4),
        h=st.integers(1, 12), w=st.integers(1, 12),
        scale=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**16),
    )
    def test_random_shape(self, n, g, per_group, h, w, scale, shift, seed):
        rng = np.random.default_rng(seed)
        gn = GroupNorm(g, g * per_group)
        gn.params["gamma"][:] = rng.normal(size=gn.c)
        _assert_groupnorm_pinned(gn, rng.normal(size=(n, gn.c, h, w)) * scale + shift)
