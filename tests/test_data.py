"""Unit + property tests for the data substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    AugmentedSampler,
    BalancedBatchSampler,
    ClassConditionalGenerator,
    DATASET_REGISTRY,
    GaussianJitter,
    SyntheticSpec,
    UniformBatchSampler,
    apply_longtail,
    client_class_counts,
    imbalance_factor_of,
    load_federated_dataset,
    longtail_counts,
    make_classification_data,
    partition_balanced_dirichlet,
    partition_by_class_dirichlet,
    quantity_skew_of,
)


class TestLongtail:
    def test_balanced_profile(self):
        counts = longtail_counts(100, 10, 1.0)
        assert np.all(counts == 100)

    def test_if_endpoints(self):
        counts = longtail_counts(1000, 10, 0.01)
        assert counts[0] == 1000
        assert counts[-1] == 10
        assert np.all(np.diff(counts) <= 0)  # monotone decreasing

    def test_minimum_one_sample(self):
        counts = longtail_counts(5, 10, 0.001)
        assert counts.min() >= 1

    def test_imbalance_factor_of(self):
        counts = longtail_counts(1000, 10, 0.1)
        assert np.isclose(imbalance_factor_of(counts), 0.1, atol=0.01)

    @pytest.mark.parametrize("bad_if", [0.0, -0.5, 1.5])
    def test_invalid_if(self, bad_if):
        with pytest.raises(ValueError):
            longtail_counts(100, 10, bad_if)

    def test_apply_longtail(self):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(5), 100)
        idx = apply_longtail(labels, 0.1, rng)
        sub = labels[idx]
        counts = np.bincount(sub, minlength=5)
        assert counts[0] == 100
        assert counts[-1] == 10

    @settings(max_examples=30, deadline=None)
    @given(
        n_max=st.integers(10, 2000),
        c=st.integers(2, 50),
        imf=st.floats(0.001, 1.0, exclude_min=False),
    )
    def test_profile_properties(self, n_max, c, imf):
        counts = longtail_counts(n_max, c, imf)
        assert counts.shape == (c,)
        assert counts[0] == n_max
        assert np.all(counts >= 1)
        assert np.all(np.diff(counts) <= 0)


class TestSynthetic:
    def test_sample_counts_and_labels(self):
        spec = SyntheticSpec(num_classes=4, shape=(8,))
        gen = ClassConditionalGenerator(spec, seed=0)
        x, y = gen.sample(np.array([5, 3, 0, 2]), np.random.default_rng(0))
        assert x.shape == (10, 8)
        assert np.bincount(y, minlength=4).tolist() == [5, 3, 0, 2]

    def test_prototypes_deterministic(self):
        spec = SyntheticSpec(num_classes=3, shape=(6,))
        g1 = ClassConditionalGenerator(spec, seed=7)
        g2 = ClassConditionalGenerator(spec, seed=7)
        np.testing.assert_array_equal(g1.prototypes, g2.prototypes)

    def test_image_layout(self):
        spec = SyntheticSpec(num_classes=3, shape=(3, 4, 4))
        gen = ClassConditionalGenerator(spec, seed=0)
        x, y = gen.sample(np.full(3, 2), np.random.default_rng(1))
        assert x.shape == (6, 3, 4, 4)

    def test_classes_are_separable(self):
        # nearest-prototype classification must beat chance by a wide margin
        spec = SyntheticSpec(num_classes=5, shape=(16,), separation=2.0, noise=0.5, modes=1)
        gen = ClassConditionalGenerator(spec, seed=0)
        x, y = gen.sample(np.full(5, 50), np.random.default_rng(0))
        protos = gen.prototypes[:, 0, :]
        pred = np.argmin(
            ((x[:, None, :] - protos[None, :, :]) ** 2).sum(-1), axis=1
        )
        assert np.mean(pred == y) > 0.9

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=1, shape=(4,))
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=3, shape=(1, 2))
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=3, shape=(4,), separation=-1)

    def test_bad_class_counts_shape(self):
        spec = SyntheticSpec(num_classes=3, shape=(4,))
        gen = ClassConditionalGenerator(spec, seed=0)
        with pytest.raises(ValueError):
            gen.sample(np.array([1, 2]), np.random.default_rng(0))

    def test_make_classification_data(self):
        x, y = make_classification_data(3, 8, 10, seed=0)
        assert x.shape == (30, 8)
        assert set(np.unique(y)) == {0, 1, 2}


class TestPartition:
    def _labels(self, seed=0, n=600, c=10, imf=0.1):
        rng = np.random.default_rng(seed)
        counts = longtail_counts(n // 4, c, imf)
        return np.repeat(np.arange(c), counts), rng

    def test_balanced_partition_is_exact(self):
        labels, rng = self._labels()
        parts = partition_balanced_dirichlet(labels, 8, 0.1, rng)
        all_idx = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(all_idx, np.arange(len(labels)))

    def test_balanced_partition_quantities(self):
        labels, rng = self._labels()
        parts = partition_balanced_dirichlet(labels, 8, 0.1, rng)
        sizes = np.array([len(p) for p in parts])
        assert sizes.max() - sizes.min() <= max(2, len(labels) // 100)

    def test_fedgrab_partition_is_exact(self):
        labels, rng = self._labels()
        parts = partition_by_class_dirichlet(labels, 8, 0.1, rng)
        all_idx = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(all_idx, np.arange(len(labels)))

    def test_fedgrab_partition_min_samples(self):
        labels, rng = self._labels()
        parts = partition_by_class_dirichlet(labels, 8, 0.1, rng, min_samples=2)
        assert min(len(p) for p in parts) >= 2

    def test_fedgrab_more_skewed_than_balanced(self):
        labels, _ = self._labels()
        bal = partition_balanced_dirichlet(labels, 8, 0.1, np.random.default_rng(1))
        fg = partition_by_class_dirichlet(labels, 8, 0.1, np.random.default_rng(1))
        assert quantity_skew_of(fg) > quantity_skew_of(bal) + 0.1

    def test_client_class_counts(self):
        labels, rng = self._labels()
        parts = partition_balanced_dirichlet(labels, 4, 0.5, rng)
        counts = client_class_counts(parts, labels, 10)
        assert counts.shape == (4, 10)
        np.testing.assert_array_equal(counts.sum(axis=0), np.bincount(labels, minlength=10))

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            partition_balanced_dirichlet(np.array([0, 1]), 5, 0.5)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 5.0])
    def test_beta_controls_skew(self, beta):
        labels, _ = self._labels(imf=1.0)
        parts = partition_balanced_dirichlet(labels, 6, beta, np.random.default_rng(0))
        counts = client_class_counts(parts, labels, 10).astype(float)
        rows = counts / counts.sum(axis=1, keepdims=True)
        # entropy of client mixtures increases with beta
        safe = np.where(rows > 0, rows, 1.0)
        ent = -np.sum(rows * np.log(safe), axis=1).mean()
        if beta <= 0.05:
            assert ent < 1.5
        if beta >= 5.0:
            assert ent > 1.7

    @settings(max_examples=15, deadline=None)
    @given(
        k=st.integers(2, 12),
        beta=st.floats(0.05, 5.0),
        seed=st.integers(0, 100),
    )
    def test_partition_property_exact_cover(self, k, beta, seed):
        labels = np.repeat(np.arange(6), 40)
        parts = partition_balanced_dirichlet(labels, k, beta, np.random.default_rng(seed))
        cat = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(cat, np.arange(len(labels)))


class _StreamRead(Exception):
    pass


class _Untouchable:
    """A stand-in stream that raises on any attribute access."""

    def __getattribute__(self, name):
        raise _StreamRead(name)


class TestSamplers:
    def test_uniform_covers_everything(self):
        y = np.arange(23) % 3
        s = UniformBatchSampler(y, 5)
        idx = np.concatenate(list(s.epoch(np.random.default_rng(0))))
        assert sorted(idx.tolist()) == list(range(23))

    def test_balanced_epoch_length(self):
        y = np.array([0] * 90 + [1] * 10)
        s = BalancedBatchSampler(y, 20)
        idx = np.concatenate(list(s.epoch(np.random.default_rng(0))))
        assert len(idx) == 100

    def test_balanced_rebalances(self):
        y = np.array([0] * 900 + [1] * 100)
        s = BalancedBatchSampler(y, 50)
        idx = np.concatenate(list(s.epoch(np.random.default_rng(0))))
        frac1 = np.mean(y[idx] == 1)
        assert 0.4 < frac1 < 0.6  # ~uniform despite 9:1 imbalance

    def test_batches_per_epoch(self):
        y = np.zeros(55, dtype=int)
        assert UniformBatchSampler(y, 10).batches_per_epoch() == 6
        assert BalancedBatchSampler(y, 10).batches_per_epoch() == 6

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            UniformBatchSampler(np.zeros(5, dtype=int), 0)
        with pytest.raises(ValueError):
            BalancedBatchSampler(np.zeros(5, dtype=int), -1)

    @pytest.mark.parametrize("augmented", [False, True])
    @pytest.mark.parametrize("cls, n, fixed", [
        (UniformBatchSampler, 0, True),
        (UniformBatchSampler, 1, True),
        (UniformBatchSampler, 2, False),
        (BalancedBatchSampler, 0, True),
        (BalancedBatchSampler, 1, False),
    ])
    def test_fixed_order_reads_no_stream(self, cls, n, fixed, augmented):
        """A ``fixed_order`` sampler yields a real generator's batches from a
        stream it never touches; any other sampler reads its stream."""
        sampler = cls(np.arange(n) % 2, 4)
        if augmented:
            sampler = AugmentedSampler(sampler, [GaussianJitter(0.1)])
        assert sampler.fixed_order is fixed
        with pytest.raises(AttributeError):
            sampler.fixed_order = not fixed
        want = [b.tolist() for b in sampler.epoch(np.random.default_rng(0))]
        if fixed:
            assert [b.tolist() for b in sampler.epoch(_Untouchable())] == want
        else:
            with pytest.raises(_StreamRead):
                list(sampler.epoch(_Untouchable()))


class TestRegistry:
    def test_all_entries_load(self):
        for name in DATASET_REGISTRY:
            ds = load_federated_dataset(name, num_clients=5, seed=0, scale=0.2)
            assert ds.num_clients == 5
            assert len(ds.y_train) == sum(len(p) for p in ds.partitions)
            assert ds.x_test.shape[0] == ds.info.num_classes * max(
                int(round(ds.info.n_test_per_class * 0.2)), 2
            )

    def test_imbalance_applied(self):
        ds = load_federated_dataset("cifar10-lite", imbalance_factor=0.1, num_clients=5, seed=0)
        assert np.isclose(imbalance_factor_of(ds.global_class_counts), 0.1, atol=0.02)

    def test_test_set_balanced(self):
        ds = load_federated_dataset("cifar10-lite", imbalance_factor=0.05, num_clients=5, seed=0)
        counts = np.bincount(ds.y_test, minlength=10)
        assert counts.min() == counts.max()

    def test_deterministic(self):
        a = load_federated_dataset("svhn-lite", num_clients=4, seed=3, scale=0.2)
        b = load_federated_dataset("svhn-lite", num_clients=4, seed=3, scale=0.2)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        for pa, pb in zip(a.partitions, b.partitions):
            np.testing.assert_array_equal(pa, pb)

    def test_flat_view(self):
        ds = load_federated_dataset("cifar10-lite", num_clients=4, seed=0, scale=0.2)
        fv = ds.flat_view()
        assert fv.x_train.ndim == 2
        assert fv.x_train.shape[1] == 3 * 8 * 8

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_federated_dataset("mnist-original")

    def test_fedgrab_partition_option(self):
        ds = load_federated_dataset(
            "cifar10-lite", num_clients=8, seed=0, partition="fedgrab", scale=0.5
        )
        assert ds.partition_kind == "fedgrab"
        assert quantity_skew_of(ds.partitions) > 0.2
