"""Fork-pool primitives below the execution-backend layer.

* :func:`parallel_map` — an order-preserving fork-pool map over
  coarse-grained jobs (whole federated runs in a parameter sweep).
* :func:`resolve_workers` — the worker-count resolution every pool shares:
  explicit argument, else ``REPRO_MAX_WORKERS``, else the capped CPU count.

Client updates run through :class:`repro.parallel.backend.ProcessPoolBackend`,
which speaks the full :class:`~repro.parallel.backend.ClientJob` contract.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Callable

from repro.utils.validation import positive_count

__all__ = ["parallel_map", "resolve_workers"]


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_MAX_WORKERS`` > default.

    The default remains ``min(cpu_count, 8)``; the env var lets deployments
    raise or lower the cap fleet-wide without touching call sites.
    """
    if workers is not None:
        return positive_count(workers, "workers")
    env = os.environ.get("REPRO_MAX_WORKERS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"REPRO_MAX_WORKERS must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"REPRO_MAX_WORKERS must be >= 1, got {value}")
        return value
    return min(os.cpu_count() or 1, 8)


def _indexed_apply(args):
    i, fn, item = args
    return i, fn(item)


def parallel_map(fn: Callable, items: list, workers: int | None = None) -> list:
    """Order-preserving multiprocessing map with a fork pool.

    For coarse-grained jobs (full federated runs in a parameter sweep —
    the benchmark harnesses use this to mirror the paper's multi-GPU grid).
    Internally uses ``imap_unordered`` so uneven jobs load-balance across
    workers, then restores input order deterministically by index.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    out = [None] * len(items)
    jobs = [(i, fn, item) for i, item in enumerate(items)]
    with mp.get_context("fork").Pool(processes=min(workers, len(items))) as pool:
        for i, result in pool.imap_unordered(_indexed_apply, jobs):
            out[i] = result
    return out
