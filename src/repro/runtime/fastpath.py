"""Control-plane helpers for the dispatch hot loop.

At 100k simulated clients the event core's cost is not client compute but
the *planning* Python does per dispatch.  Picking one idle client by
rebuilding the idle list is O(population) per dispatch; this module holds
the incremental structures the planner uses instead:

* :class:`IdleTracker` — the sorted busy client ids and their in-flight
  counts, giving O(log B) ``kth_idle`` rank selection over B busy clients.
  The keystone invariant: ``kth_idle(j)`` returns the j-th *smallest* idle
  client id, i.e. what indexing the ascending idle-id list returns — so a
  uniform rank draw maps to the same client an O(N) comprehension would
  pick (``tests/test_fastpath.py`` pins the async histories against such a
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

from bisect import bisect_left, insort
from operator import index

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
    """Incrementally maintained busy set over the client population.

    Keeps the ascending list of busy client ids (Python ints) and, for busy
    clients only, their in-flight dispatch counts (the async policy's only
    busy state; oversubscription keeps a count above 1), so the dispatch
    planner can

    * count idle clients in O(1) (:attr:`n_idle`),
    * map a uniform rank draw to the j-th smallest idle client id in
      O(log B) (:meth:`kth_idle`) — replacing the O(N) idle-list rebuild,
    * hand samplers the ascending idle-id array (:meth:`idle_ids`), built
      from the busy list only when a mark changed it since the last call.

    A mark shifts the list, O(B), so the tracker suits B far below the
    population: on 100k clients (2-core Xeon) a fill / churn step measured
    1.8 / 2.9 µs at 256 in flight (7.7 / 7.7 µs on the Fenwick tree it
    replaced) but 13.0 / 36.7 µs at 100,000 (5.0 / 6.8 µs); they cross
    below 20,000 in flight.
    """

    def __init__(self, num_clients: int) -> None:
        n = int(num_clients)
        if n < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.n = n
        self.n_idle = n
        self._busy: list[int] = []
        self._count: dict[int, int] = {}
        self._idle_cache: np.ndarray | None = None

    def _check(self, cid: int) -> int:
        if not 0 <= cid < self.n:
            raise IndexError(f"client id {cid} out of range for {self.n} clients")
        return index(cid)

    def mark_busy(self, cid: int) -> None:
        """A dispatch of ``cid`` was issued (idempotent for oversubscription)."""
        c = self._count.get(cid)
        if c is None:
            cid = self._check(cid)
            insort(self._busy, cid)
            self._count[cid] = 1
            self.n_idle -= 1
            self._idle_cache = None
        else:
            self._count[cid] = c + 1

    def mark_idle(self, cid: int) -> None:
        """A dispatch of ``cid`` completed."""
        c = self._count.get(cid)
        if c is None:  # defensive: a double-complete must not corrupt the set
            self._check(cid)
        elif c > 1:
            self._count[cid] = c - 1
        else:
            del self._count[cid]
            busy = self._busy
            del busy[bisect_left(busy, cid)]
            self.n_idle += 1
            self._idle_cache = None

    def kth_idle(self, j: int) -> int:
        """The j-th smallest idle client id (0-based rank), O(log B).

        Equivalent to ``sorted(idle_ids)[j]`` without ever materializing
        the list: the busy id at position ``i`` has ``busy[i] - i`` idle
        ids below it, so the answer is ``j`` plus the number of positions
        with ``busy[i] - i <= j``.
        """
        if not 0 <= j < self.n_idle:
            raise IndexError(f"rank {j} out of range for {self.n_idle} idle clients")
        busy = self._busy
        lo, hi = 0, len(busy)
        while lo < hi:
            mid = (lo + hi) >> 1
            if busy[mid] - mid <= j:
                lo = mid + 1
            else:
                hi = mid
        return j + lo

    def idle_ids(self) -> np.ndarray:
        """Ascending idle client ids (cached until the busy set next changes)."""
        if self._idle_cache is None:
            idle = np.ones(self.n, dtype=bool)
            idle[self._busy] = False
            self._idle_cache = np.flatnonzero(idle).astype(np.int64, copy=False)
        return self._idle_cache
