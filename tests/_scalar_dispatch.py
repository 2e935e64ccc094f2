"""The scalar async dispatch planner, kept as a test oracle.

``AsyncPolicy._dispatch_many`` plans a dispatch burst over an incremental
idle tracker, batched latency draws and one heap insertion.  This subclass
plans the same burst the direct way: one dispatch at a time, the idle set
rebuilt by an O(population) comprehension over the in-flight dispatches,
one ``latency()`` draw and one ``core.post`` each.  It shares no planning
state with the production path (the idle tracker is never read), so
``tests/test_fastpath.py`` can pin the production planner's histories
against it bit for bit.

Tests install it where the engine facade looks the policy up::

    monkeypatch.setattr(repro.runtime.async_engine, "AsyncPolicy",
                        ScalarAsyncPolicy)
"""

from __future__ import annotations

import numpy as np

from repro.runtime.events import AsyncPolicy, Completion, Dispatch
from repro.utils.rng import keyed_rng

__all__ = ["ScalarAsyncPolicy"]


class ScalarAsyncPolicy(AsyncPolicy):
    """:class:`AsyncPolicy` with the per-dispatch scalar planner."""

    #: dispatches this oracle planned — proof that a test really ran it
    scalar_dispatches = 0

    def _dispatch_many(self, core, n: int) -> None:
        for _ in range(n):
            self._dispatch_one(core)

    def _dispatch_one(self, core) -> None:
        ctx, cfg = core.ctx, core.ctx.config
        st = self._state
        busy = {d.client_id for d in self._in_flight.values()}
        avail = np.array(
            [k for k in range(ctx.num_clients) if k not in busy], dtype=np.int64
        )
        if avail.size == 0:  # concurrency exceeds the client pool
            avail = np.arange(ctx.num_clients, dtype=np.int64)
        if self.sampler is None:
            rng = keyed_rng(cfg.seed, 0xA7, st["dispatched"])
            cid = int(avail[rng.integers(avail.size)])
        else:
            cid = int(self.sampler.pick_next(avail, core.clock.now))
        seq = st["dispatched"]
        st["dispatched"] += 1
        lat = self.latency_model.latency(cid, seq)
        d = Dispatch(
            seq=seq, client_id=cid, round_idx=seq, issued_at=core.clock.now,
            version=st["version"], x_ref=core.x,
            state=core.state_store.snapshot(cid),
            state_version=core.state_store.version(cid),
        )
        core.post(lat, Completion(d, float(lat)), client_id=cid)
        self._in_flight[seq] = d
        self._queue.append((seq, self._make_job(core, d)))
        if self._streaming_active(core):
            self._hand_over(core)
        self.scalar_dispatches += 1
