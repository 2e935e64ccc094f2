"""Cross-validation of optimized kernels against naive reference
implementations.

The HPC guides' cardinal rule: a fast kernel is only trustworthy next to a
slow, obviously-correct one.  These tests pin the im2col convolution (forward
and backward) and the NTT negacyclic product to schoolbook references.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.bfv import _NegacyclicNTT
from repro.he.primes import find_ntt_prime
from repro.nn import Conv2d, MaxPool2d


def naive_conv2d(x, w, b, stride, padding):
    """Schoolbook convolution, NCHW."""
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for ni in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, co, i, j] = (patch * w[co]).sum() + (b[co] if b is not None else 0.0)
    return out


def naive_conv2d_backward(x, w, dout, stride, padding):
    """Schoolbook gradients of :func:`naive_conv2d`: (dx, dW, db)."""
    n, _, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(x)
    dw = np.zeros_like(w)
    oh, ow = dout.shape[2:]
    for ni in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    dw[co] += dout[ni, co, i, j] * x[ni, :, rows, cols]
                    dxp[ni, :, rows, cols] += dout[ni, co, i, j] * w[co]
    db = dout.sum(axis=(0, 2, 3))
    return dxp[:, :, padding : padding + h, padding : padding + wd], dw, db


def naive_negacyclic(a, b, q):
    """Schoolbook product in Z_q[x]/(x^n + 1)."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] = (out[k] + a[i] * b[j]) % q
            else:
                out[k - n] = (out[k - n] - a[i] * b[j]) % q
    return out


CONV_GEOMETRIES = [
    (1, 1, 3, 1, 1, 5),
    (2, 3, 3, 1, 0, 6),
    (3, 2, 2, 2, 0, 6),
    (2, 4, 3, 2, 1, 7),
    (1, 1, 1, 1, 0, 4),
]


def random_conv_geometry(seed):
    """(conv, x) of a small random geometry, one sample."""
    rng = np.random.default_rng(seed)
    cin = int(rng.integers(1, 4))
    cout = int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 2))
    size = int(rng.integers(k + stride, k + stride + 4))
    conv = Conv2d(cin, cout, k, np.random.default_rng(seed), stride=stride, padding=pad)
    return conv, rng.normal(size=(1, cin, size, size))


def assert_backward_matches_naive(conv, x, rng):
    dout = rng.normal(size=conv.forward(x, train=True).shape)
    dx = conv.backward(dout)
    ndx, ndw, ndb = naive_conv2d_backward(x, conv.params["W"][0], dout, conv.stride, conv.padding)
    np.testing.assert_allclose(dx, ndx, atol=1e-10, err_msg="dx")
    np.testing.assert_allclose(conv.grads["W"][0], ndw, atol=1e-10, err_msg="dW")
    np.testing.assert_allclose(conv.grads["b"][0], ndb, atol=1e-10, err_msg="db")


class TestConvCrossCheck:
    @pytest.mark.parametrize("cin,cout,k,stride,pad,size", CONV_GEOMETRIES)
    def test_matches_naive(self, cin, cout, k, stride, pad, size):
        rng = np.random.default_rng(hash((cin, cout, k, stride, pad)) % 2**32)
        conv = Conv2d(cin, cout, k, np.random.default_rng(0), stride=stride, padding=pad)
        x = rng.normal(size=(2, cin, size, size))
        fast = conv.forward(x, train=False)
        slow = naive_conv2d(x, conv.params["W"][0], conv.params["b"][0], stride, pad)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_naive_random_geometry(self, seed):
        conv, x = random_conv_geometry(seed)
        fast = conv.forward(x, train=False)
        slow = naive_conv2d(x, conv.params["W"][0], conv.params["b"][0], conv.stride, conv.padding)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    @pytest.mark.parametrize("cin,cout,k,stride,pad,size", CONV_GEOMETRIES)
    def test_backward_matches_naive(self, cin, cout, k, stride, pad, size):
        rng = np.random.default_rng([cin, cout, k, stride, pad, size])
        conv = Conv2d(cin, cout, k, np.random.default_rng(0), stride=stride, padding=pad)
        assert_backward_matches_naive(conv, rng.normal(size=(2, cin, size, size)), rng)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_backward_matches_naive_random_geometry(self, seed):
        conv, x = random_conv_geometry(seed)
        assert_backward_matches_naive(conv, x, np.random.default_rng(seed + 1))

    def test_maxpool_matches_naive(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        pool = MaxPool2d(2)
        fast = pool.forward(x, train=False)
        slow = np.zeros((2, 3, 3, 3))
        for n in range(2):
            for c in range(3):
                for i in range(3):
                    for j in range(3):
                        slow[n, c, i, j] = x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
        np.testing.assert_array_equal(fast, slow)


class TestNTTCrossCheck:
    @pytest.fixture(scope="class")
    def ntt(self):
        n = 64
        q = find_ntt_prime(30, n)
        return _NegacyclicNTT(n, q), n, q

    def test_matches_schoolbook(self, ntt):
        t, n, q = ntt
        rng = np.random.default_rng(0)
        a = [int(v) for v in rng.integers(0, q, n)]
        b = [int(v) for v in rng.integers(0, q, n)]
        assert t.multiply(a, b) == naive_negacyclic(a, b, q)

    def test_negacyclic_wraparound_sign(self, ntt):
        t, n, q = ntt
        # x^(n-1) * x = x^n = -1 in the ring
        a = [0] * n
        a[n - 1] = 1
        b = [0] * n
        b[1] = 1
        out = t.multiply(a, b)
        assert out[0] == q - 1  # -1 mod q
        assert all(v == 0 for v in out[1:])

    def test_identity_element(self, ntt):
        t, n, q = ntt
        rng = np.random.default_rng(1)
        a = [int(v) for v in rng.integers(0, q, n)]
        one = [1] + [0] * (n - 1)
        assert t.multiply(a, one) == a

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_commutativity(self, ntt, seed):
        t, n, q = ntt
        rng = np.random.default_rng(seed)
        a = [int(v) for v in rng.integers(0, q, n)]
        b = [int(v) for v in rng.integers(0, q, n)]
        assert t.multiply(a, b) == t.multiply(b, a)
