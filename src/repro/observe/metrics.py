"""Tail a run journal and maintain rolling aggregates.

* :class:`JournalTailer` — incremental reader of a live (or finished)
  ``journal.jsonl``: each :meth:`~JournalTailer.poll` returns the complete
  records appended since the last poll, tolerating a partially written
  trailing line (the writer may be mid-append or may have crashed mid-line)
  and skipping any line that is not one UTF-8 JSON object.
* :class:`MetricsStore` — ingests journal records in any amount and keeps
  rolling aggregates: throughput (clients per virtual/wall second),
  staleness distribution, drop rate, per-round accuracy, controller
  deadline/concurrency trajectories, backend job timing.  Ingestion is
  idempotent per event key (dispatch/completion seq, round index), so
  re-reading a journal — or reading one a resumed run appended to — never
  double-counts.

``python -m repro watch <run_dir>`` is the CLI face: ``--summary`` one-shot
or ``-f`` follow mode.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = ["JournalTailer", "MetricsStore", "read_journal"]


class JournalTailer:
    """Incrementally read complete JSONL records from a (growing) file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0
        self._partial = b""

    def poll(self) -> list[dict]:
        """Records appended since the last poll (empty if none / no file)."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as f:
            f.seek(self._offset)
            chunk = f.read()
            self._offset = f.tell()
        if not chunk:
            return []
        lines = (self._partial + chunk).split(b"\n")
        # the final piece is complete only if the chunk ended with a newline
        self._partial = lines.pop()
        out = []
        for line in lines:
            try:
                rec = json.loads(line.decode())
            except ValueError:
                # a torn line from a crashed writer, or bytes that are not
                # UTF-8 or not JSON; skip it
                continue
            if isinstance(rec, dict):
                out.append(rec)
        return out


def read_journal(path: str) -> list[dict]:
    """All complete records of a journal file (one-shot convenience)."""
    return JournalTailer(path).poll()


class MetricsStore:
    """Rolling aggregates over journal records; idempotent per event key."""

    def __init__(self) -> None:
        self.meta: dict = {}
        self._dispatches: dict[int, dict] = {}
        self._completions: dict[int, dict] = {}
        self._rounds: dict[int, dict] = {}
        self._jobs: dict[tuple, dict] = {}
        self.warnings: list[dict] = []
        self.snapshots = 0
        self.resumes = 0
        self.stopped = False
        self.ended = False
        self.final_accuracy: float | None = None
        #: recorder hook seconds self-reported on the latest stop/end record
        self.recorder_overhead_s: float | None = None
        #: wire-level stats from the latest stop/end record (remote backend)
        self.transport: dict = {}
        #: hot-path profile record (profiled runs; latest leg wins)
        self.profile: dict | None = None

    # -- ingestion -----------------------------------------------------------
    def ingest(self, rec: dict) -> None:
        kind = rec.get("type")
        if kind == "meta":
            self.meta = rec
        elif kind == "dispatch":
            self._dispatches[rec["seq"]] = rec
        elif kind == "completion":
            self._completions[rec["seq"]] = rec
        elif kind == "round":
            self._rounds[rec["round"]] = rec
        elif kind == "job":
            self._jobs[(rec["round"], rec["client"])] = rec
        elif kind == "warning":
            self.warnings.append(rec)
        elif kind == "snapshot":
            self.snapshots += 1
        elif kind == "resume":
            self.resumes += 1
            self.stopped = False  # the run is live again
        elif kind == "profile":
            self.profile = rec
        elif kind == "stop":
            self.stopped = True
            self.recorder_overhead_s = rec.get("recorder_overhead_s")
            self.transport = rec.get("transport") or self.transport
        elif kind == "end":
            self.ended = True
            self.final_accuracy = rec.get("final_accuracy")
            self.recorder_overhead_s = rec.get("recorder_overhead_s")
            self.transport = rec.get("transport") or self.transport

    def ingest_many(self, records) -> None:
        for rec in records:
            self.ingest(rec)

    @classmethod
    def from_journal(cls, path: str) -> "MetricsStore":
        store = cls()
        store.ingest_many(read_journal(path))
        return store

    # -- aggregates ----------------------------------------------------------
    @property
    def n_dispatches(self) -> int:
        return len(self._dispatches)

    @property
    def n_completions(self) -> int:
        return len(self._completions)

    @property
    def n_rounds(self) -> int:
        return len(self._rounds)

    def rounds(self) -> list[dict]:
        """Round records in round order."""
        return [self._rounds[r] for r in sorted(self._rounds)]

    def virtual_time(self) -> float:
        """Latest virtual timestamp seen on any record."""
        times = [rec.get("t", 0.0) for rec in self._rounds.values()]
        times += [rec.get("t", 0.0) for rec in self._completions.values()]
        return float(max(times, default=0.0))

    def wall_time(self) -> float:
        """Total engine wall seconds (sum of per-round wall_time)."""
        return float(sum(rec.get("wall_time", 0.0) for rec in self._rounds.values()))

    def clients_per_vsec(self) -> float:
        """Completed client updates per virtual second."""
        vt = self.virtual_time()
        n = self.n_completions or sum(
            len(rec.get("selected") or []) for rec in self._rounds.values()
        )
        return n / vt if vt > 0 else float("nan")

    def clients_per_wall_sec(self) -> float:
        wall = self.wall_time()
        n = self.n_completions or sum(
            len(rec.get("selected") or []) for rec in self._rounds.values()
        )
        return n / wall if wall > 0 else float("nan")

    def staleness_values(self) -> np.ndarray:
        """Per-completion staleness (async); falls back to round means."""
        vals = [
            rec["staleness"]
            for rec in self._completions.values()
            if rec.get("staleness") is not None
        ]
        if not vals:
            vals = [
                rec["staleness"]
                for rec in self._rounds.values()
                if rec.get("staleness") is not None
            ]
        return np.asarray(vals, dtype=float)

    def staleness_quantiles(self) -> dict:
        vals = self.staleness_values()
        if vals.size == 0:
            return {"mean": None, "p50": None, "p90": None, "p99": None}
        return {
            "mean": float(vals.mean()),
            "p50": float(np.quantile(vals, 0.50)),
            "p90": float(np.quantile(vals, 0.90)),
            "p99": float(np.quantile(vals, 0.99)),
        }

    def drop_rate(self) -> float | None:
        """Dropped / sampled clients over all closed rounds (semisync)."""
        dropped = sampled = 0
        seen = False
        for rec in self._rounds.values():
            extras = rec.get("extras") or {}
            if "n_dropped" not in extras:
                continue
            seen = True
            n_drop = int(extras["n_dropped"])
            dropped += n_drop
            sampled += len(rec.get("selected") or []) + n_drop
        if not seen or sampled == 0:
            return None
        return dropped / sampled

    def accuracy_series(self) -> list[tuple[int, float]]:
        return [
            (r, rec["test_accuracy"])
            for r, rec in sorted(self._rounds.items())
            if rec.get("test_accuracy") is not None
        ]

    def best_accuracy(self) -> float | None:
        series = self.accuracy_series()
        return max(v for _, v in series) if series else None

    def last_accuracy(self) -> float | None:
        series = self.accuracy_series()
        return series[-1][1] if series else None

    def trajectory(self, extra_key: str) -> list[tuple[int, float]]:
        """A controller's per-round extras series (deadline, limit, ...)."""
        return [
            (r, (rec.get("extras") or {})[extra_key])
            for r, rec in sorted(self._rounds.items())
            if extra_key in (rec.get("extras") or {})
        ]

    def job_timing(self) -> dict:
        """Backend job-timing aggregates (empty dict when never collected)."""
        jobs = list(self._jobs.values())
        if not jobs:
            return {}
        queue = np.array([j.get("queue_wait_s", 0.0) for j in jobs], dtype=float)
        compute = np.array([j.get("compute_s", 0.0) for j in jobs], dtype=float)
        pickle_b = sum(int(j.get("pickle_bytes", 0)) for j in jobs)
        out = {
            "n_jobs": len(jobs),
            "queue_wait_mean_s": float(queue.mean()),
            "compute_mean_s": float(compute.mean()),
            "compute_total_s": float(compute.sum()),
            "pickle_total_bytes": pickle_b,
        }
        # per-job wire bytes exist only on remote-backend runs
        sent = sum(int(j.get("send_bytes", 0)) for j in jobs)
        recv = sum(int(j.get("recv_bytes", 0)) for j in jobs)
        if sent or recv:
            out["wire_sent_bytes"] = sent
            out["wire_recv_bytes"] = recv
        return out

    def to_dict(self) -> dict:
        """Everything a bench or dashboard needs, JSON-safe."""
        return {
            "algorithm": self.meta.get("algorithm"),
            "policy": self.meta.get("policy"),
            "backend": self.meta.get("backend"),
            "streaming": self.meta.get("streaming"),
            "n_rounds": self.n_rounds,
            "n_dispatches": self.n_dispatches,
            "n_completions": self.n_completions,
            "virtual_time": self.virtual_time(),
            "wall_time": self.wall_time(),
            "clients_per_vsec": _noneify(self.clients_per_vsec()),
            "clients_per_wall_sec": _noneify(self.clients_per_wall_sec()),
            "staleness": self.staleness_quantiles(),
            "drop_rate": self.drop_rate(),
            "final_accuracy": self.final_accuracy
            if self.final_accuracy is not None
            else self.last_accuracy(),
            "best_accuracy": self.best_accuracy(),
            "deadline_trajectory": self.trajectory("deadline"),
            "concurrency_trajectory": self.trajectory("concurrency_limit"),
            "job_timing": self.job_timing(),
            "profile": self.profile,
            "transport": self.transport,
            "n_warnings": len(self.warnings),
            "recorder_overhead_s": self.recorder_overhead_s,
            "snapshots": self.snapshots,
            "resumes": self.resumes,
            "stopped": self.stopped,
            "ended": self.ended,
        }

    def summary(self) -> str:
        """Human-readable one-shot report (``repro watch --summary``)."""
        d = self.to_dict()
        state = "finished" if d["ended"] else ("stopped" if d["stopped"] else "running")
        lines = [
            f"run:        {d['algorithm']} / {d['policy']} / "
            f"backend={d['backend']}"
            + ("+stream" if d["streaming"] else "")
            + f"  [{state}]"
            + (f"  (+{d['resumes']} resume)" if d["resumes"] else ""),
            f"rounds:     {d['n_rounds']}   completions: {d['n_completions']}"
            f"   snapshots: {d['snapshots']}   warnings: {d['n_warnings']}",
            f"virtual:    {d['virtual_time']:.2f}s"
            f"   clients/vsec: {_fmt(d['clients_per_vsec'])}",
            f"wall:       {d['wall_time']:.2f}s"
            f"   clients/sec:  {_fmt(d['clients_per_wall_sec'])}",
        ]
        if d["profile"]:
            from repro.observe.profile import format_hotpath

            lines.append(f"hotpath:    {format_hotpath(d['profile'])}")
        if d["recorder_overhead_s"] is not None:
            lines.append(
                f"recorder:   {d['recorder_overhead_s'] * 1e3:.1f}ms in hooks"
            )
        q = d["staleness"]
        if q["mean"] is not None:
            lines.append(
                f"staleness:  mean={q['mean']:.2f}  p50={q['p50']:.1f}  "
                f"p90={q['p90']:.1f}  p99={q['p99']:.1f}"
            )
        if d["drop_rate"] is not None:
            lines.append(f"drop rate:  {d['drop_rate']:.3f}")
        if d["final_accuracy"] is not None:
            best = d["best_accuracy"]
            lines.append(
                f"accuracy:   last={d['final_accuracy']:.4f}"
                + (f"  best={best:.4f}" if best is not None else "")
            )
        for name, key in (("deadline", "deadline_trajectory"),
                          ("conc.lim", "concurrency_trajectory")):
            traj = d[key]
            if traj:
                vals = [v for _, v in traj]
                lines.append(
                    f"{name}:   first={vals[0]:.3g}  last={vals[-1]:.3g}  "
                    f"min={min(vals):.3g}  max={max(vals):.3g}"
                )
        jt = d["job_timing"]
        if jt:
            lines.append(
                f"jobs:       n={jt['n_jobs']}  "
                f"queue~{jt['queue_wait_mean_s'] * 1e3:.2f}ms  "
                f"compute~{jt['compute_mean_s'] * 1e3:.2f}ms  "
                f"pickled {jt['pickle_total_bytes'] / 1e6:.2f}MB"
            )
        tr = d["transport"]
        if tr and tr.get("transport") == "pool":
            line = (
                f"transport:  pool  jobs={tr.get('jobs', 0)}"
                f"  tasks={tr.get('pool_tasks', 0)}"
                f"  batch={tr.get('job_batch') or 1}"
            )
            saved = tr.get("shm_bytes_saved", 0)
            if saved:
                line += f"  shm saved {saved / 1e6:.2f}MB"
            lines.append(line)
        elif tr:
            line = (
                f"network:    workers={tr.get('workers_seen', 0)}"
                f" (lost {tr.get('workers_lost', 0)})  "
                f"sent {tr.get('bytes_sent', 0) / 1e6:.2f}MB  "
                f"recv {tr.get('bytes_received', 0) / 1e6:.2f}MB  "
                f"requeued {tr.get('requeued_jobs', 0)}"
            )
            saved = tr.get("bytes_saved", 0)
            if saved:
                line += f"  saved {saved / 1e6:.2f}MB"
            lines.append(line)
        return "\n".join(lines)


def _noneify(v: float) -> float | None:
    return None if (isinstance(v, float) and np.isnan(v)) else v


def _fmt(v: float | None) -> str:
    return "n/a" if v is None else f"{v:.2f}"
