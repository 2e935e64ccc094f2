"""Batch samplers: plain shuffling and the paper's "Balance Sampler" baseline.

``BalancedBatchSampler`` oversamples minority classes so every class is drawn
(in expectation) equally often, matching the classical imbalanced-learning
recipe (He & Garcia 2009) plugged into FedCM in Table 1.

The batch-sampler protocol local training relies on:

* ``epoch(rng)`` yields one epoch's index batches, drawing from the
  client's stream ``rng``; one generator serves all of a client's epochs in
  a round, so each epoch continues where the last one stopped.
* ``batches_per_epoch()`` is the epoch's batch count.
* ``fixed_order`` (read-only) is True when ``epoch`` yields the same batches
  without reading ``rng`` at all; the caller then passes ``None`` and never
  builds the stream.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["BalancedBatchSampler", "UniformBatchSampler"]

# the one batch a single-sample client's epoch yields (read-only: callers
# only ever index with it); matches permutation(1)'s dtype and value
_SINGLE = np.zeros(1, dtype=np.int64)
_SINGLE.setflags(write=False)


class UniformBatchSampler:
    """Plain shuffled epoch iteration (the default for all algorithms)."""

    def __init__(self, labels: np.ndarray, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.n = int(np.asarray(labels).shape[0])
        self.batch_size = batch_size

    @property
    def fixed_order(self) -> bool:
        """True when ``epoch`` reads no stream: at most one sample."""
        return self.n <= 1

    def epoch(self, rng: int | np.random.Generator | None) -> Iterator[np.ndarray]:
        if self.n <= 1:
            # permutation(n) draws nothing for n <= 1 (no swaps happen), so
            # skipping it is exact and leaves the stream unread, which is
            # what fixed_order promises: a single-sample client (the
            # population-scale bench workload) then gets no stream built
            if self.n == 1:
                yield _SINGLE
            return
        rng = as_generator(rng)
        order = rng.permutation(self.n)
        for lo in range(0, self.n, self.batch_size):
            yield order[lo : lo + self.batch_size]

    def batches_per_epoch(self) -> int:
        return int(np.ceil(self.n / self.batch_size)) if self.n else 0


class BalancedBatchSampler:
    """Epoch iterator that resamples so classes appear uniformly.

    Each epoch draws ``n`` samples *with replacement*, where each draw first
    picks a class uniformly among classes present, then a sample uniformly
    within that class.  Epoch length thus matches the underlying dataset, so
    swapping this sampler in does not change the number of local iterations —
    only their class mixture (important for a fair Table 1 comparison).
    """

    def __init__(self, labels: np.ndarray, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        labels = np.asarray(labels)
        self.n = int(labels.shape[0])
        self.batch_size = batch_size
        classes = np.unique(labels)
        self._class_indices = [np.flatnonzero(labels == c) for c in classes]

    @property
    def fixed_order(self) -> bool:
        """True when ``epoch`` reads no stream: no samples."""
        return self.n == 0

    def epoch(self, rng: int | np.random.Generator | None) -> Iterator[np.ndarray]:
        if self.n == 0:
            return
        rng = as_generator(rng)
        k = len(self._class_indices)
        cls_draws = rng.integers(0, k, size=self.n)
        picks = np.empty(self.n, dtype=np.int64)
        for ci, idxs in enumerate(self._class_indices):
            mask = cls_draws == ci
            m = int(mask.sum())
            if m:
                picks[mask] = rng.choice(idxs, size=m, replace=True)
        for lo in range(0, self.n, self.batch_size):
            yield picks[lo : lo + self.batch_size]

    def batches_per_epoch(self) -> int:
        return int(np.ceil(self.n / self.batch_size)) if self.n else 0
