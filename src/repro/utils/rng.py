"""Deterministic random-number management.

Every module in the library takes RNG state explicitly.  Three conventions:

* ``as_generator(seed_or_rng)`` normalises an ``int | None | Generator``
  argument into a :class:`numpy.random.Generator`.
* ``spawn(rng, n)`` derives ``n`` statistically-independent child generators,
  used to give each simulated client its own stream so that client-level
  parallelism (process pools) cannot change results.
* Keyed streams: one generator per ``(seed, tag, ...)`` tuple,
  ``default_rng(key)``, so a draw depends on its key and nothing else.
  ``keyed_rng`` builds the generator.  Two first draws skip it, hashing
  the seed words of consecutive ``(seed, tag, i)`` streams in one
  vectorized pass: ``keyed_integer`` gives the first ``integers(n)`` from
  the stream's first 64-bit output (the async planner's picks, one stream
  per dispatch index), and ``KeyedNormals`` the first ``standard_normal()``
  from the stream's seeded state (the device speeds, one stream per
  client).  ``tests/test_utils.py`` pins all three to ``default_rng``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

__all__ = ["KeyedNormals", "as_generator", "keyed_integer", "keyed_rng", "spawn", "split"]


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


#: consecutive stream indices whose first words one kernel pass computes
WORD_BLOCK = 256
# blocks a process keeps: the planner reads dispatch indices in order, so
# it needs one block at a time, plus a few for interleaved runs
_WORD_CACHE = 8
#: consecutive stream indices whose seed words one ``KeyedNormals`` pass hashes
NORMAL_BLOCK = 4096

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> tuple:
    """SeedSequence's hash constants: call ``k`` of its hash XORs with the
    running constant and multiplies by the next one (``init * mult**k``)."""
    out, h = [], init
    for _ in range(n):
        nxt = h * mult & _M32
        out.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return tuple(out)


# ``mix_entropy`` hashes 16 times for a three-word key in a four-word pool
# (four fills, twelve cross-mixes) and ``generate_state(4, uint64)`` 8 times
_MIX_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_HI = np.uint64(32)
# PCG64's set_seed steps its LCG from 0, adds the seed and steps again, and
# the first draw steps once more: ((inc + s)·M + inc)·M + inc, which is
# s·M² + inc·(M² + M + 1) mod 2**128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_MULT = _PCG_MULT * _PCG_MULT & _M128
_INC_MULT = (_SEED_MULT + _PCG_MULT + 1) & _M128


def _hash(value: np.ndarray, consts: tuple) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _XSHIFT)


def _seed_words(seed: int, tag: int, start: int, n: int) -> np.ndarray:
    """``SeedSequence((seed, tag, i)).generate_state(4, np.uint64)`` for the
    ``n`` keys ``i`` from ``start`` on, as an ``(n, 4)`` uint64 array; every
    entry must lie in ``[0, 2**32)``.  The hashing runs on uint32 lanes."""
    consts = iter(_MIX_HASH)
    pool = [_hash(np.full(n, seed, np.uint32), next(consts)),
            _hash(np.full(n, tag, np.uint32), next(consts)),
            _hash(np.arange(start, start + n, dtype=np.uint32), next(consts)),
            _hash(np.zeros(n, np.uint32), next(consts))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], next(consts))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    w = [_hash(pool[k % 4], c).astype(np.uint64) for k, c in enumerate(_STATE_HASH)]
    # generate_state's uint32 words pair up little-endian
    return np.stack([w[k] | (w[k + 1] << _HI) for k in (0, 2, 4, 6)], axis=1)


@lru_cache(maxsize=_WORD_CACHE)
def _word_block(seed: int, tag: int, block: int) -> tuple[int, ...]:
    """``keyed_rng(seed, tag, i).bit_generator.random_raw()`` for each ``i``
    in ``[WORD_BLOCK * block, WORD_BLOCK * (block + 1))``.

    ``seed``, ``tag`` and every ``i`` must lie in ``[0, 2**32)``, the keys
    ``keyed_rng``'s fast path builds.  SeedSequence's hashing runs on
    uint32 lanes, PCG64's seeding and first draw on Python ints.  Blocks
    sit in this module-level cache, never in an object that is pickled or
    snapshotted."""
    words = []
    # PCG64 seeds with the words (a, b) and increments by (c, d)
    for a, b, c, d in _seed_words(seed, tag, block * WORD_BLOCK, WORD_BLOCK).tolist():
        inc = (c << 64 | d) << 1 | 1
        state = ((a << 64 | b) * _SEED_MULT + inc * _INC_MULT) & _M128
        # XSL-RR output: the halves XORed, rotated right by the top 6 bits
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        words.append((x >> rot | x << (64 - rot)) & _M64)
    return tuple(words)


def keyed_integer(n: int, seed: int, tag: int, i: int) -> int:
    """``int(keyed_rng(seed, tag, i).integers(n))`` for integer arguments.

    For ``1 <= n < 2**32`` NumPy's bounded draw (Lemire's method) reads the
    low 32 bits of the stream's first word: the draw is
    ``(low32 * n) >> 32`` unless the product's low half falls below
    ``(2**32 - n) % n``, where NumPy rejects it and reads on.  That case
    (probability below ``n / 2**32``), larger ``n`` and keys with an entry
    outside ``[0, 2**32)`` build the generator instead, so a negative entry
    raises ``keyed_rng``'s ``ValueError``.
    """
    n, seed, tag, i = index(n), index(seed), index(tag), index(i)
    if 0 < n <= _M32 and 0 <= seed <= _M32 and 0 <= tag <= _M32 and 0 <= i <= _M32:
        m = (_word_block(seed, tag, i // WORD_BLOCK)[i % WORD_BLOCK] & _M32) * n
        leftover = m & _M32
        if leftover >= n or leftover >= ((1 << 32) - n) % n:
            return m >> 32
    return int(keyed_rng(seed, tag, i).integers(n))


class KeyedNormals:
    """``keyed_rng(seed, tag, i).standard_normal()`` for any ``i``, bit for bit.

    Building the generator costs 12-15 µs on a 2-core Xeon, nearly all of
    it hashing and seeding.  A drawer hashes the seed words of
    ``NORMAL_BLOCK`` consecutive ``i`` in one pass and keeps them (32 B a
    stream); a draw sets the stream's post-seeding state (the two LCG steps
    of PCG64's ``set_seed``) on one reused ``PCG64`` and lets NumPy's
    ziggurat read the stream, rejections included.  Keys with an entry
    outside ``[0, 2**32)`` go to ``keyed_rng``, whose errors they raise.
    """

    def __init__(self, seed: int, tag: int) -> None:
        self._key = (seed, tag)
        self._hashed = 0 <= index(seed) <= _M32 and 0 <= index(tag) <= _M32
        self._blocks: dict[int, np.ndarray] = {}
        self._gen = Generator(PCG64(0))

    def __call__(self, i: int) -> float:
        i = index(i)
        if not (self._hashed and 0 <= i <= _M32):
            return keyed_rng(*self._key, i).standard_normal()
        block, k = divmod(i, NORMAL_BLOCK)
        if block not in self._blocks:
            self._blocks[block] = _seed_words(*self._key, block * NORMAL_BLOCK, NORMAL_BLOCK)
        s_hi, s_lo, i_hi, i_lo = self._blocks[block][k].tolist()
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _M128
        self._gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                         "uinteger": 0, "state": {"state": state, "inc": inc}}
        return self._gen.standard_normal()


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
