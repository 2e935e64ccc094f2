"""Append-only JSONL run journal: one record per typed event.

A :class:`RunRecorder` hooks into :class:`~repro.runtime.events.EventCore`
and turns a run into an operable artifact under ``<run_dir>/``:

* ``journal.jsonl`` — schema-versioned, append-only; one JSON object per
  line.  Record types:

  ==========  ============================================================
  type        contents
  ==========  ============================================================
  meta        schema version, algorithm/policy/backend names, client count
  resume      a resumed run re-attached at this round / virtual time
  dispatch    seq, client, round key, latency, late flag, server version
  completion  seq, client, arrival time, latency, staleness (async)
  tick        deadline tick: round index + phase (``open`` / ``close``)
  job         per-job backend timing: queue wait, compute wall, pickle B
  round       the closed round's full record (same schema as history JSON)
  snapshot    a resumable state snapshot was written (path + model hash)
  warning     a ``repro.*`` logger warning raised while recording
  stop        the run stopped early at a round boundary (checkpointed)
  profile     hot-path per-phase wall breakdown + clients/sec (profiled
              runs; see :class:`repro.observe.profile.HotPathProfiler`)
  end         the run completed; final accuracy and round count
  ==========  ============================================================

  ``stop`` / ``end`` records additionally carry a ``transport`` dict when
  the backend reports wire-level stats (the remote backend: bytes
  sent/received, workers seen/lost, requeued jobs).

* ``snapshots/round_NNNN.pkl`` — a full-state snapshot at every round
  boundary (:mod:`repro.observe.snapshot`) enabling ``repro run --resume``.

Records are buffered in memory and flushed at every round boundary (plus
``begin``/``stop``/``end``), so the journal on disk is always consistent at
a round granularity — a crash loses at most the open round's events, which
a resume replays deterministically anyway.  While attached, the recorder
also captures ``logging`` warnings from the ``repro`` logger hierarchy as
``warning`` records (the structured successor of ad-hoc stderr prints in
engine hot paths).
"""

from __future__ import annotations

import functools
import json
import logging
import os
import time

import numpy as np

from repro.observe.snapshot import model_hash, save_snapshot, snapshot_core
from repro.simulation.serialization import round_record_to_dict

__all__ = ["JOURNAL_SCHEMA_VERSION", "RunRecorder", "journal_path"]

JOURNAL_SCHEMA_VERSION = 1


def journal_path(run_dir: str) -> str:
    return os.path.join(run_dir, "journal.jsonl")


def _timed_hook(fn):
    """Accumulate a hook's wall time into ``recorder.hook_seconds``.

    Applied to every hook the event core calls (not to their internal
    helpers, which would double-count), so the recorder carries its own
    overhead accounting: the ``stop``/``end`` records report how much of
    the run's wall clock the journal cost.
    """

    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            self.hook_seconds += time.perf_counter() - t0

    return wrapped


class _JournalLogHandler(logging.Handler):
    """Route ``repro.*`` warnings into the journal while a run records."""

    def __init__(self, recorder: "RunRecorder") -> None:
        super().__init__(level=logging.WARNING)
        self._recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        self._recorder.emit(
            "warning",
            logger=record.name,
            level=record.levelname.lower(),
            message=record.getMessage(),
        )


class RunRecorder:
    """Append run events to ``<run_dir>/journal.jsonl``, snapshot every
    closed round, and journal ``repro.*`` warnings while the run records.

    Args:
        run_dir: directory owning the journal (created if missing); resumed
            runs append to the existing journal.
    """

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.path = journal_path(run_dir)
        self.snapshot_dir = os.path.join(run_dir, "snapshots")
        # a crashed writer can leave a torn final line; appending straight
        # onto it would corrupt the first new record too, so close the tear
        # with a newline (the tailer skips the invalid line either way)
        torn = False
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            with open(self.path, "rb") as f:
                f.seek(-1, os.SEEK_END)
                torn = f.read(1) != b"\n"
        self._fh = open(self.path, "a")
        if torn:
            self._fh.write("\n")
        self._buf: list[str] = []
        self._handler: _JournalLogHandler | None = None
        #: cumulative wall seconds spent inside the event-core hooks — the
        #: recorder's own overhead accounting (reported on stop/end records)
        self.hook_seconds = 0.0

    # -- low-level -----------------------------------------------------------
    def emit(self, type_: str, **fields) -> None:
        """Buffer one journal record (written at the next flush point)."""
        self._buf.append(json.dumps({"type": type_, **fields}))

    def flush(self) -> None:
        if self._buf:
            self._fh.write("\n".join(self._buf) + "\n")
            self._buf = []
        self._fh.flush()

    def close(self) -> None:
        self._detach_logs()
        self.flush()
        self._fh.close()

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _attach_logs(self) -> None:
        if self._handler is None:
            self._handler = _JournalLogHandler(self)
            logging.getLogger("repro").addHandler(self._handler)

    def _detach_logs(self) -> None:
        if self._handler is not None:
            logging.getLogger("repro").removeHandler(self._handler)
            self._handler = None

    # -- EventCore hooks -----------------------------------------------------
    @_timed_hook
    def begin(self, core, resumed: bool = False) -> None:
        self._attach_logs()
        if resumed:
            self.emit(
                "resume",
                t=core.clock.now,
                round=len(core.history.records),
                wall=time.time(),
            )
        else:
            # streaming is an async-policy property; round policies are batch
            streaming_active = getattr(core.policy, "_streaming_active", None)
            self.emit(
                "meta",
                schema=JOURNAL_SCHEMA_VERSION,
                algorithm=core.history.algorithm,
                policy=type(core.policy).__name__,
                backend=core.backend.name,
                streaming=bool(streaming_active(core))
                if streaming_active is not None
                else False,
                num_clients=core.ctx.num_clients,
                seed=core.ctx.config.seed,
                rounds_planned=core.ctx.config.rounds,
                wall=time.time(),
            )
        self.flush()

    @_timed_hook
    def on_dispatch(self, core, dispatch, delay: float) -> None:
        """One unit of client work was issued (its completion is scheduled)."""
        self.emit(
            "dispatch",
            t=core.clock.now,
            seq=dispatch.seq,
            client=dispatch.client_id,
            round=dispatch.round_idx,
            latency=float(delay),
            late=bool(dispatch.late),
            version=dispatch.version,
        )

    @_timed_hook
    def on_completion(self, core, comp, now: float) -> None:
        self.emit(
            "completion",
            t=float(now),
            seq=comp.dispatch.seq,
            client=comp.dispatch.client_id,
            round=comp.dispatch.round_idx,
            latency=float(comp.latency),
            late=bool(comp.dispatch.late),
            staleness=_async_staleness(core, comp),
        )

    @_timed_hook
    def on_tick(self, core, tick) -> None:
        self.emit("tick", t=core.clock.now, round=tick.round_idx, phase=tick.phase)

    @_timed_hook
    def on_job(self, core, job, result) -> None:
        if result.timing is not None:
            self.emit(
                "job",
                round=job.round_idx,
                client=job.client_id,
                **result.timing,
            )

    @_timed_hook
    def on_round(self, core) -> None:
        """A round record just closed: journal it, snapshot, flush."""
        rec = core.history.records[-1]
        self.emit("round", t=core.clock.now, **round_record_to_dict(rec))
        self.write_snapshot(core)
        self.flush()

    def write_snapshot(self, core) -> str:
        snap = snapshot_core(core)
        path = os.path.join(self.snapshot_dir, f"round_{snap['rounds']:04d}.pkl")
        save_snapshot(path, snap)
        self.emit(
            "snapshot",
            t=core.clock.now,
            round=snap["rounds"],
            path=os.path.relpath(path, self.run_dir),
            model_hash=snap["model_hash"],
            pending_events=len(snap["clock_heap"]),
        )
        return path

    @_timed_hook
    def on_stop(self, core) -> None:
        self.emit(
            "stop",
            t=core.clock.now,
            round=len(core.history.records),
            wall=time.time(),
            recorder_overhead_s=round(self.hook_seconds, 6),
            **_transport_field(core),
        )
        self.flush()

    @_timed_hook
    def finish(self, core) -> None:
        profiler = getattr(core, "profiler", None)
        if profiler is not None:
            # additive record (schema version unchanged): the hot-path
            # per-phase wall breakdown; `repro watch --summary` renders it
            # as the `hotpath:` line.  Emitted for stopped runs too — the
            # partial leg's profile is still real
            self.emit("profile", t=core.clock.now, **profiler.as_dict())
        if not getattr(core, "stopped", False):
            final = core.history.final_accuracy
            self.emit(
                "end",
                t=core.clock.now,
                round=len(core.history.records),
                final_accuracy=None if np.isnan(final) else float(final),
                wall=time.time(),
                recorder_overhead_s=round(self.hook_seconds, 6),
                **_transport_field(core),
            )
        self._detach_logs()
        self.flush()


def _transport_field(core) -> dict:
    """``{"transport": {...}}`` when the backend reports wire stats, else {}."""
    stats = getattr(core.backend, "transport_stats", lambda: {})()
    return {"transport": stats} if stats else {}


def _async_staleness(core, comp) -> float | None:
    """Server-version staleness of a completion (async policies only)."""
    st = getattr(core.policy, "_state", None)
    if isinstance(st, dict) and "version" in st:
        return float(st["version"] - comp.dispatch.version)
    return None
