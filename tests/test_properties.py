"""Hypothesis property tests on core invariants across modules.

These complement the per-module unit suites with randomized structural
properties: linearity of backprop, invariances of losses/softmax, momentum
algebra, partition conservation, HE additivity at scale.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GlobalMomentum, adaptive_alpha, softmax_weights
from repro.data import longtail_counts, partition_balanced_dirichlet
from repro.nn import CrossEntropyLoss, Dense, PriorCELoss, Sequential, ReLU
from repro.nn.functional import softmax
from repro.utils import flatten_params, unflatten_params

FLOATS = st.floats(-3, 3, allow_nan=False)


class TestBackpropProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), scale=st.floats(0.1, 5.0))
    def test_backward_is_linear_in_upstream_gradient(self, seed, scale):
        """backward(c * g) == c * backward(g) for linear+ReLU nets with a
        fixed activation pattern."""
        rng = np.random.default_rng(seed)
        m = Sequential(Dense(5, 4, rng), ReLU(), Dense(4, 3, rng))
        x = rng.normal(size=(6, 5))
        m.forward(x, train=True)
        g = rng.normal(size=(6, 3))
        dx1 = m.backward(g).copy()
        gw1 = {k: v.copy() for k, v in m.grads.items()}
        dx2 = m.backward(scale * g)
        np.testing.assert_allclose(dx2, scale * dx1, rtol=1e-10, atol=1e-12)
        for k in gw1:
            np.testing.assert_allclose(m.grads[k], scale * gw1[k], rtol=1e-10, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_second_backward_rewrites_the_gradient(self, seed):
        """backward writes the parameter gradients, it does not add to them:
        a second backward on the same cache leaves the first's bytes."""
        rng = np.random.default_rng(seed)
        m = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 3))
        m.forward(x, train=True)
        m.backward(g)
        once = m.flat_grads.tobytes()
        m.backward(g)
        assert m.flat_grads.tobytes() == once


class TestSoftmaxLossProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        logits=st.lists(st.lists(FLOATS, min_size=4, max_size=4), min_size=2, max_size=8),
        shift=FLOATS,
    )
    def test_softmax_shift_invariance(self, logits, shift):
        z = np.array(logits)
        np.testing.assert_allclose(softmax(z), softmax(z + shift), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        logits=st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=2, max_size=8),
        shift=FLOATS,
    )
    def test_ce_gradient_shift_invariance(self, logits, shift):
        z = np.array(logits)
        y = np.arange(z.shape[0]) % 3
        _, g1 = CrossEntropyLoss()(z, y)
        _, g2 = CrossEntropyLoss()(z + shift, y)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_ce_gradient_rows_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, 6)
        _, g = CrossEntropyLoss()(z, y)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_prior_ce_reduces_loss_on_prior_consistent_labels(self, seed):
        """Predicting the prior's argmax is cheaper under PriorCE than CE
        when the label matches the most frequent class."""
        rng = np.random.default_rng(seed)
        prior = np.array([0.7, 0.2, 0.1])
        z = np.zeros((4, 3))  # uninformative logits
        y_head = np.zeros(4, dtype=int)
        l_ce, _ = CrossEntropyLoss()(z, y_head)
        l_prior, _ = PriorCELoss(prior)(z, y_head)
        assert l_prior < l_ce  # prior carries the head class for free


class TestMomentumAlgebra:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 500),
        m=st.integers(1, 8),
        dim=st.integers(1, 20),
    )
    def test_update_is_convex_combination(self, seed, m, dim):
        """||Delta|| <= max_k ||g_k|| for weights on the simplex."""
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(m, dim))
        w = rng.dirichlet(np.ones(m))
        gm = GlobalMomentum(dim=dim)
        delta = gm.update(g, w)
        assert np.linalg.norm(delta) <= np.linalg.norm(g, axis=1).max() + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.floats(0, 1),
        c=st.integers(2, 50),
        q1=st.floats(0, 2),
        q2=st.floats(0, 2),
    )
    def test_alpha_monotone_in_q(self, d, c, q1, q2):
        lo, hi = sorted((q1, q2))
        assert adaptive_alpha(d, c, lo) <= adaptive_alpha(d, c, hi) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        scores=st.lists(st.floats(-2, 2), min_size=2, max_size=10),
        t1=st.floats(0.01, 10),
        t2=st.floats(0.01, 10),
    )
    def test_weight_entropy_monotone_in_temperature(self, scores, t1, t2):
        """Higher temperature never decreases the weight entropy."""
        s = np.array(scores)
        lo, hi = sorted((t1, t2))
        def entropy(t):
            w = softmax_weights(s, t)
            w = np.clip(w, 1e-15, 1)
            return float(-(w * np.log(w)).sum())
        assert entropy(lo) <= entropy(hi) + 1e-9


class TestDataProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        n_max=st.integers(20, 500),
        c=st.integers(2, 20),
        imf=st.floats(0.01, 1.0),
        k=st.integers(2, 10),
        beta=st.floats(0.05, 5.0),
        seed=st.integers(0, 100),
    )
    def test_pipeline_conserves_samples(self, n_max, c, imf, k, beta, seed):
        counts = longtail_counts(n_max, c, imf)
        labels = np.repeat(np.arange(c), counts)
        if len(labels) < k:
            return
        parts = partition_balanced_dirichlet(labels, k, beta, np.random.default_rng(seed))
        assert sum(len(p) for p in parts) == len(labels)
        cat = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(cat, np.arange(len(labels)))


class TestFlattenProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_flatten_is_isometric(self, seed):
        """L2 norm is preserved by flatten (it is a permutation-free
        concatenation)."""
        rng = np.random.default_rng(seed)
        tree = {
            "a": rng.normal(size=(3, 2)),
            "b": rng.normal(size=(4,)),
        }
        flat, spec = flatten_params(tree)
        norm_tree = np.sqrt(sum(float((v**2).sum()) for v in tree.values()))
        assert np.isclose(np.linalg.norm(flat), norm_tree)
        back = unflatten_params(flat, spec)
        for k, v in tree.items():
            np.testing.assert_array_equal(back[k], v)
