"""A population of one-sample clients, the shape of the control-plane
benchmarks: ``n`` clients holding one linearly separable sample each, a
16-feature linear problem with two classes."""

from __future__ import annotations

import numpy as np

from repro.data.registry import DatasetInfo, FederatedDataset

__all__ = ["one_sample_population"]


def one_sample_population(n: int) -> FederatedDataset:
    """``n`` clients holding one linearly separable sample each."""
    rng = np.random.default_rng(42)
    w = rng.standard_normal(16)
    x_train = rng.standard_normal((n, 16))
    x_test = rng.standard_normal((128, 16))
    info = DatasetInfo(
        name=f"population-{n}", num_classes=2, shape=(16,), n_max_train=1,
        n_test_per_class=64, separation=1.0, noise=0.0, default_model="linear",
    )
    return FederatedDataset(
        info=info, x_train=x_train, y_train=(x_train @ w > 0).astype(np.int64),
        x_test=x_test, y_test=(x_test @ w > 0).astype(np.int64),
        partitions=[np.array([i]) for i in range(n)],
        imbalance_factor=1.0, beta=1.0, partition_kind="balanced",
    )
