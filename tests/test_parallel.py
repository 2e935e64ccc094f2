"""Tests for the fork-pool map under the parameter sweeps."""

from __future__ import annotations

from repro.parallel import parallel_map


def _square(x):
    return x * x


def _neg(x):
    return -x


class TestParallelMap:
    def test_order_preserved(self):
        out = parallel_map(_square, list(range(10)), workers=4)
        assert out == [x * x for x in range(10)]

    def test_single_worker_fallback(self):
        # workers=1 runs inline, so even lambdas are allowed
        out = parallel_map(lambda x: x + 1, [1, 2, 3], workers=1)
        assert out == [2, 3, 4]

    def test_single_item(self):
        assert parallel_map(_neg, [5], workers=8) == [-5]
