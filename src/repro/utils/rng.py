"""Deterministic random-number management.

Every module in the library takes RNG state explicitly.  Two conventions:

* ``as_generator(seed_or_rng)`` normalises an ``int | None | Generator``
  argument into a :class:`numpy.random.Generator`.
* ``spawn(rng, n)`` derives ``n`` statistically-independent child generators,
  used to give each simulated client its own stream so that client-level
  parallelism (process pools) cannot change results.
"""

from __future__ import annotations

from operator import index

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

__all__ = ["as_generator", "keyed_rng", "spawn", "split"]


def keyed_rng(*key: int) -> np.random.Generator:
    """``default_rng(key)`` for the library's small-integer stream keys.

    Stream discipline everywhere in the library is "one generator per
    ``(seed, tag, ...)`` tuple", which makes generator construction itself
    a hot-loop cost: ``SeedSequence`` routes tuple entropy through a
    per-word Python coercion helper (wrapped in an ``errstate`` guard).
    Pre-coercing the key to the exact ``uint32`` word array the coercion
    would produce skips that machinery, and building
    ``Generator(PCG64(SeedSequence(...)))`` directly skips
    ``default_rng``'s argument dispatch — both are exactly what
    ``default_rng`` does underneath, so the resulting stream is
    bit-identical (pinned by ``tests/test_utils.py``).  Entries go through
    ``operator.index`` first: a NumPy integer would otherwise wrap into
    ``uint32`` silently, while a Python int outside its range raises, so a
    negative or >=2**32 entry of either kind falls back to the general
    path, which accepts arbitrary non-negative ints and refuses the rest.
    """
    try:
        arr = np.array([*map(index, key)], dtype=np.uint32)
    except (OverflowError, ValueError):
        return np.random.default_rng(key)
    return Generator(PCG64(SeedSequence(arr)))


def as_generator(seed: int | None | np.random.Generator) -> np.random.Generator:
    """Normalise a seed or generator into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (no copy), so callers
    can thread one stream through sequential code.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Uses ``Generator.spawn`` (SeedSequence-based), which guarantees
    statistically independent streams regardless of consumption order —
    a requirement for reproducible parallel client execution.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return list(rng.spawn(n))


def split(rng: np.random.Generator) -> tuple[np.random.Generator, np.random.Generator]:
    """Split ``rng`` into two independent generators ``(a, b)``."""
    a, b = rng.spawn(2)
    return a, b
