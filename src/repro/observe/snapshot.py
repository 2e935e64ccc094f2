"""Round-boundary snapshots of the event core — the resume half of the journal.

A snapshot is everything :class:`~repro.runtime.events.EventCore.run` needs
to continue a run mid-flight *bit-identically*: the global model vector, the
virtual clock (``now`` plus the pending event heap — in-flight completions
ride along with their updates or, still unfinished, their jobs), the
history so far, the client-state store, the model's buffer estimate, and
the mutable state of the stateful components (algorithm, policy, sampler).

Component state is captured structurally — ``vars(obj)`` minus *live*
resources (context, model, dataset, backend) and minus plain functions —
and restored with ``__dict__.update`` so object identity is preserved: the
engine facade, the backend and the policy keep pointing at the same
algorithm instance they were built with.  Everything the runs depend on for
randomness is keyed-stream counters (``np.random.default_rng((seed, tag,
idx))``), so "RNG state" is just those counters inside the packed
components; no global RNG state exists to capture.

Determinism makes this cheap: a run is a pure function of (spec, seed), so
resuming from the last round boundary replays the exact event sequence the
uninterrupted run would have produced (``tests/test_observe.py`` pins
bit-identical histories across all engine kinds and backends).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import time
import types
from dataclasses import replace

import numpy as np

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot_core",
    "restore_core",
    "save_snapshot",
    "load_snapshot",
    "latest_snapshot",
    "model_hash",
]

#: 3: the async policy holds its jobs in one ``_queue`` (schema 2 had three)
#: 4: FedCM and MoFedSAM keep their momentum in ``momentum`` (a
#: ``GlobalMomentum``), where schema 3 pickled ``_delta``
#: 5: ``IdleTracker`` keeps a sorted busy list and a dict of counts, where
#: schema 4 pickled a Fenwick ``_tree`` and an ndarray ``_count``; in-flight
#: jobs ride the image in ``_queue`` with ``_handles`` empty
SNAPSHOT_SCHEMA_VERSION = 5

# plain functions/methods never carry run state and often don't pickle
# (lambdas, closures over builders); callable *objects* — samplers,
# controllers — do carry state and must be packed
_FUNC_TYPES = (types.FunctionType, types.MethodType, types.BuiltinFunctionType)

_SNAP_RE = re.compile(r"round_(\d+)\.pkl$")


def _live_types() -> tuple:
    # lazy: repro.observe must import before the heavyweight modules do
    from repro.data.registry import FederatedDataset
    from repro.nn.module import Module
    from repro.parallel.backend import ExecutionBackend
    from repro.simulation.context import SimulationContext

    return (SimulationContext, Module, FederatedDataset, ExecutionBackend)


def model_hash(x: np.ndarray | None) -> str | None:
    """Short content hash of a parameter vector (journal/snapshot stamping)."""
    if x is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:16]


def pack_component(obj) -> dict | None:
    """Picklable state of one engine component (None for a missing one)."""
    if obj is None:
        return None
    live = _live_types()
    return {
        k: v
        for k, v in vars(obj).items()
        if not isinstance(v, live) and not isinstance(v, _FUNC_TYPES)
    }


def restore_component(obj, state: dict | None) -> None:
    """Overwrite a component's packed attributes in place (identity kept)."""
    if obj is not None and state is not None:
        obj.__dict__.update(state)


def _pack_policy(policy) -> dict | None:
    """``pack_component(policy)`` with the jobs behind ``_handles`` queued.

    A handle carries its job, a pure function of its stamped inputs, so the
    image queues it again (in dispatch order, unstamped, so a resumed run
    times its own queueing) instead of waiting for its result.
    """
    state = pack_component(policy)
    if state is not None and "_handles" in state:
        queued = state["_queue"] + [(seq, h.job) for seq, h in state["_handles"].items()]
        queued.sort(key=lambda entry: entry[0])
        state |= {"_handles": {}, "_queue": [
            (seq, replace(job, submitted_at=None)) for seq, job in queued]}
    return state


def snapshot_core(core) -> dict:
    """Capture a resumable image of the core at a round boundary."""
    store = core.state_store
    model = core.ctx.model
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "rounds": len(core.history.records),
        "seq": core._seq,
        "x": core.x.copy(),
        "model_hash": model_hash(core.x),
        "clock_now": core.clock.now,
        "clock_seq": core.clock._seq,
        "clock_heap": list(core.clock._heap),
        "history": core.history,
        "store_state": dict(store._state),
        "store_versions": dict(store._versions),
        "store_stale": store.stale_commits,
        "buffers": model.get_buffers(copy=True) if model.buffers else None,
        "algorithm": pack_component(core.algorithm),
        "policy": _pack_policy(core.policy),
        "client_sampler": pack_component(core.client_sampler),
    }


def restore_core(core, snap: dict) -> None:
    """Rebuild a freshly constructed core's state from :func:`snapshot_core`.

    Called by :meth:`EventCore.run` after ``setup``/``capture_initial`` have
    run on the fresh objects, so every attribute the snapshot carries simply
    overwrites its just-initialized counterpart.
    """
    _check_schema(snap)
    from repro.runtime.clock import VirtualClock

    core.x = snap["x"].copy()
    core._seq = snap["seq"]
    core.history = snap["history"]
    clock = VirtualClock()
    clock.now = snap["clock_now"]
    clock._seq = snap["clock_seq"]
    clock._heap = list(snap["clock_heap"])
    core.clock = clock
    store = core.state_store
    store._state = dict(snap["store_state"])
    store._versions = dict(snap["store_versions"])
    store.stale_commits = snap["store_stale"]
    if snap["buffers"] is not None:
        core.ctx.model.set_buffers(snap["buffers"])
    restore_component(core.algorithm, snap["algorithm"])
    restore_component(core.policy, snap["policy"])
    restore_component(core.client_sampler, snap["client_sampler"])
    # packed wall-clock anchors are stale by definition
    if hasattr(core.policy, "_t0"):
        core.policy._t0 = time.perf_counter()


def save_snapshot(path: str, snap: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as f:
        pickle.dump(snap, f, protocol=pickle.HIGHEST_PROTOCOL)


def _check_schema(snap: dict) -> None:
    """Refuse a snapshot written under another ``SNAPSHOT_SCHEMA_VERSION``."""
    if snap.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            f"snapshot schema {snap.get('schema')!r} != "
            f"{SNAPSHOT_SCHEMA_VERSION} (incompatible repro version?)"
        )


def load_snapshot(path: str) -> dict:
    """Read a snapshot, refusing one from another schema version."""
    with open(path, "rb") as f:
        snap = pickle.load(f)
    _check_schema(snap)
    return snap


def latest_snapshot(run_dir: str) -> str | None:
    """Path of the newest ``snapshots/round_*.pkl`` under a run dir."""
    snap_dir = os.path.join(run_dir, "snapshots")
    if not os.path.isdir(snap_dir):
        return None
    best, best_round = None, -1
    for name in os.listdir(snap_dir):
        m = _SNAP_RE.fullmatch(name)
        if m and int(m.group(1)) > best_round:
            best, best_round = os.path.join(snap_dir, name), int(m.group(1))
    return best
