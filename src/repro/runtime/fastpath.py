"""Control-plane helpers for the dispatch hot loop.

At 100k simulated clients the event core's cost is not client compute but
the *planning* Python does per dispatch.  Picking one idle client by
rebuilding the idle list is O(population) per dispatch; this module holds
the incremental structures the planner uses instead:

* :class:`IdleTracker` — per-client in-flight counts plus a Fenwick tree
  over the idle indicator, giving O(log N) ``mark_busy`` / ``mark_idle``
  and O(log N) ``kth_idle`` rank selection.  The keystone invariant:
  ``kth_idle(j)`` returns the j-th *smallest* idle client id, i.e. what
  indexing the ascending idle-id list returns — so a uniform rank draw
  maps to the same client an O(N) comprehension would pick
  (``tests/test_fastpath.py`` pins the async histories against such a
  scalar planner).
* :func:`mask_positions` — the shared busy-mask/include-mask helper the
  round policies (sync/semisync cohort paths) use instead of rebuilding
  per-round index lists with Python comprehensions.

The rank draw itself needs no generator either: a pick is the first
``integers(n_idle)`` draw of the stream keyed by the dispatch index, which
:func:`repro.utils.rng.keyed_integer` reads off first words computed for
256 dispatch indices at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["IdleTracker", "mask_positions"]


def mask_positions(mask: np.ndarray) -> list[int]:
    """Positions where a boolean cohort mask is True, as plain ints.

    The shared replacement for the round policies' per-round
    ``[i for i in range(n) if mask[i]]`` comprehensions: one vectorized
    ``flatnonzero`` instead of O(cohort) Python-level predicate calls.
    Returns a list (not an array) because callers feed the positions into
    record fields and ``Dispatch.cohort_pos`` slots that store plain ints.
    """
    return np.flatnonzero(np.asarray(mask)).tolist()


class IdleTracker:
    """Incrementally maintained busy mask over the client population.

    Keeps, per client, the number of in-flight dispatches (the async
    policy's only busy state) and a Fenwick/binary-indexed tree over the
    *idle* indicator, so the dispatch planner can

    * count idle clients in O(1) (:attr:`n_idle`),
    * map a uniform rank draw to the j-th smallest idle client id in
      O(log N) (:meth:`kth_idle`) — replacing the O(N) idle-list rebuild,
    * hand samplers the ascending idle-id array (:meth:`idle_ids`),
      rebuilt lazily via ``flatnonzero`` only when the mask changed since
      the last call.

    The counts are a numpy array (``idle_ids`` is one ``flatnonzero``) and
    the tree a list of Python ints (every pick walks it element by element,
    which NumPy scalar indexing makes ~2x slower).  Both pickle into run
    snapshots; a snapshot holding an ndarray tree resumes unchanged, since
    both index alike.
    """

    def __init__(self, num_clients: int) -> None:
        n = int(num_clients)
        if n < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.n = n
        self._count = np.zeros(n, dtype=np.int64)
        self.n_idle = n
        # Fenwick construction over the all-idle indicator in one vectorized
        # pass: tree[i] owns the range (i - (i & -i), i], so it holds that
        # range's length
        idx = np.arange(1, n + 1)
        self._tree: list[int] = [0] + (idx & -idx).tolist()
        self._idle_cache: np.ndarray | None = None
        self._dirty = True

    def _add(self, cid: int, delta: int) -> None:
        i = cid + 1
        tree, n = self._tree, self.n
        while i <= n:
            tree[i] += delta
            i += i & -i

    def mark_busy(self, cid: int) -> None:
        """A dispatch of ``cid`` was issued (idempotent for oversubscription)."""
        c = self._count[cid]
        self._count[cid] = c + 1
        if c == 0:
            self._add(cid, -1)
            self.n_idle -= 1
            self._dirty = True

    def mark_idle(self, cid: int) -> None:
        """A dispatch of ``cid`` completed."""
        c = self._count[cid]
        if c <= 0:  # defensive: a double-complete must not corrupt the tree
            return
        self._count[cid] = c - 1
        if c == 1:
            self._add(cid, 1)
            self.n_idle += 1
            self._dirty = True

    def kth_idle(self, j: int) -> int:
        """The j-th smallest idle client id (0-based rank), O(log N).

        Equivalent to ``sorted(idle_ids)[j]`` without ever materializing
        the list.
        """
        if not 0 <= j < self.n_idle:
            raise IndexError(f"rank {j} out of range for {self.n_idle} idle clients")
        k = j + 1
        pos = 0
        tree, n = self._tree, self.n
        step = 1 << (n.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= n and tree[nxt] < k:
                k -= tree[nxt]
                pos = nxt
            step >>= 1
        return pos  # 1-based Fenwick index pos+1 -> 0-based client id pos

    def idle_ids(self) -> np.ndarray:
        """Ascending idle client ids (cached until the mask next changes)."""
        if self._dirty or self._idle_cache is None:
            self._idle_cache = np.flatnonzero(self._count == 0).astype(np.int64)
            self._dirty = False
        return self._idle_cache
