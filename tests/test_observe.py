"""Observability layer: run journal, metrics tailer, checkpoint/resume.

The PR-6 suite pins three contracts:

* the journal is schema-versioned JSONL whose records reproduce the run's
  history (round records round-trip through the history schema) and carry
  per-job backend timing;
* the tailer/metrics layer survives live files (torn lines, incremental
  appends) and resumed journals (replayed-round dedup);
* a run stopped at a round boundary and resumed from its snapshot produces
  a history *bit-identical* to the uninterrupted run — for every engine
  kind, on the serial and process backends.
"""

from __future__ import annotations

import copyreg
import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.experiments import (
    DataSpec,
    ExperimentSpec,
    MethodSpec,
    RuntimeSpec,
    SweepResult,
    resume_run,
    run,
    run_sweep,
)
from repro.observe import (
    JOURNAL_SCHEMA_VERSION,
    SNAPSHOT_SCHEMA_VERSION,
    JournalTailer,
    MetricsStore,
    journal_path,
    latest_snapshot,
    load_snapshot,
    read_journal,
    save_snapshot,
)
from repro.observe import journal as journal_module
from repro.observe.journal import RunRecorder
from repro.parallel import ClientJob, ClientResult, ProcessPoolBackend
from repro.runtime import IdleTracker
from repro.runtime.clock import Event
from repro.runtime.events import Completion, Dispatch
from repro.simulation import FLConfig
from test_backends import assert_history_equal

KINDS = ("sync", "semisync", "fedasync", "fedbuff")


class _Schema5Pickler(pickle.Pickler):
    """Pickles the records schema 6 made slotted as schema 5 did, frozen
    dataclasses with a ``__dict__``: ``copyreg.__newobj__`` and the fields
    as a dict state."""

    records = (Dispatch, Completion, Event, ClientJob, ClientResult)

    def reducer_override(self, obj):
        if type(obj) in self.records:
            state = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
            return copyreg.__newobj__, (type(obj),), state
        return NotImplemented

_TINY = dict(
    data=DataSpec(clients=6, scale=0.3, beta=0.3, imbalance_factor=0.3),
    config=FLConfig(rounds=3, participation=0.5, local_epochs=1, batch_size=10,
                    max_batches_per_round=3, eval_every=1, seed=0),
)


def _spec(kind: str, backend: str = "serial", run_dir=None,
          method: str | None = None, **runtime_kw) -> ExperimentSpec:
    default_method = {"sync": "fedavg", "semisync": "fedavg",
                      "fedasync": "fedasync", "fedbuff": "fedbuff"}[kind]
    if kind != "sync":
        runtime_kw.setdefault("latency", "lognormal")
    if backend != "serial":
        runtime_kw.setdefault("workers", 2)
    if run_dir is not None:
        runtime_kw.update(record=True, run_dir=str(run_dir))
    return ExperimentSpec(
        method=MethodSpec(name=method or default_method),
        runtime=RuntimeSpec(kind=kind, backend=backend, **runtime_kw),
        **_TINY,
    )


class TestJournal:
    def test_schema_and_history_round_trip(self, tmp_path):
        """One meta / N round / one end record; rounds mirror the history."""
        result = run(_spec("sync", run_dir=tmp_path / "run"))
        recs = read_journal(journal_path(str(tmp_path / "run")))
        assert recs[0]["type"] == "meta"
        assert recs[0]["schema"] == JOURNAL_SCHEMA_VERSION
        assert recs[0]["algorithm"] == "fedavg"
        assert recs[0]["rounds_planned"] == 3
        assert recs[-1]["type"] == "end"
        assert recs[-1]["final_accuracy"] == pytest.approx(
            result.history.final_accuracy
        )
        # the recorder accounts its own hook time on the closing record
        assert recs[-1]["recorder_overhead_s"] > 0.0
        rounds = [r for r in recs if r["type"] == "round"]
        assert [r["round"] for r in rounds] == [0, 1, 2]
        for jr, hr in zip(rounds, result.history.records):
            assert jr["test_accuracy"] == pytest.approx(hr.test_accuracy)
            assert jr["selected"] == list(map(int, hr.selected))
        # cohort of 3 (6 clients, participation 0.5), one dispatch each
        assert sum(r["type"] == "dispatch" for r in recs) == 9
        assert sum(r["type"] == "completion" for r in recs) == 9
        # every closed round snapshotted
        assert sum(r["type"] == "snapshot" for r in recs) == 3
        snap = load_snapshot(latest_snapshot(str(tmp_path / "run")))
        assert snap["rounds"] == 3

    def test_recording_does_not_perturb_run(self, tmp_path):
        """The recorder is an observer: recorded == unrecorded, bit for bit."""
        plain = run(_spec("fedbuff"))
        recorded = run(_spec("fedbuff", run_dir=tmp_path / "run"))
        assert_history_equal(recorded.history, plain.history)
        np.testing.assert_array_equal(recorded.final_params, plain.final_params)

    def test_job_timing_records(self, tmp_path):
        run(_spec("sync", run_dir=tmp_path / "serial"))
        jobs = [r for r in read_journal(journal_path(str(tmp_path / "serial")))
                if r["type"] == "job"]
        assert len(jobs) == 9
        for j in jobs:
            assert j["queue_wait_s"] >= 0.0
            assert j["compute_s"] > 0.0
            assert "pickle_bytes" not in j  # nothing crosses a process
        run(_spec("sync", backend="process", run_dir=tmp_path / "pool"))
        jobs = [r for r in read_journal(journal_path(str(tmp_path / "pool")))
                if r["type"] == "job"]
        assert len(jobs) == 9
        assert all(j["pickle_bytes"] > 0 for j in jobs)

    def test_warning_records_capture_engine_warnings(self, tmp_path):
        """Engine hot-path warnings go through logging and land in the
        journal: a deadline nobody meets forces the fastest client and
        warns every round."""
        run(_spec("semisync", run_dir=tmp_path / "run", deadline=1e-3))
        store = MetricsStore.from_journal(journal_path(str(tmp_path / "run")))
        assert len(store.warnings) == 3
        assert all("deadline" in w["message"] for w in store.warnings)
        assert all(w["logger"].startswith("repro") for w in store.warnings)


class TestTailerAndMetrics:
    def test_tailer_handles_torn_and_partial_lines(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        tail = JournalTailer(path)
        assert tail.poll() == []  # file does not exist yet
        with open(path, "w") as f:
            f.write('{"type": "meta", "schema": 1}\n{"type": "rou')
            f.flush()
            assert [r["type"] for r in tail.poll()] == ["meta"]
            assert tail.poll() == []  # the torn line stays buffered
            f.write('nd", "round": 0}\n')
            f.flush()
            assert [r["round"] for r in tail.poll()] == [0]
        # a line that never becomes valid JSON is skipped, not fatal
        with open(path, "a") as f:
            f.write('not json at all\n{"type": "end"}\n')
        assert [r["type"] for r in tail.poll()] == ["end"]

    def test_metrics_store_async_aggregates(self, tmp_path):
        run(_spec("fedasync", run_dir=tmp_path / "run"))
        store = MetricsStore.from_journal(journal_path(str(tmp_path / "run")))
        assert store.n_rounds == 3
        assert store.ended and not store.stopped
        assert store.virtual_time() > 0.0
        assert store.clients_per_vsec() > 0.0
        q = store.staleness_quantiles()
        assert q["p50"] is not None and q["p99"] >= q["p50"]
        assert store.last_accuracy() is not None
        assert store.recorder_overhead_s > 0.0
        text = store.summary()
        for needle in ("fedasync", "rounds:", "staleness:", "accuracy:",
                       "jobs:", "recorder:"):
            assert needle in text
        # the full dump is JSON-safe (NaNs become null)
        json.dumps(store.to_dict())

    def test_metrics_store_semisync_drop_rate(self, tmp_path):
        run(_spec("semisync", run_dir=tmp_path / "run", deadline=1.0))
        store = MetricsStore.from_journal(journal_path(str(tmp_path / "run")))
        rate = store.drop_rate()
        assert rate is not None and 0.0 <= rate <= 1.0
        assert store.trajectory("deadline") == [(0, 1.0), (1, 1.0), (2, 1.0)]


class TestResume:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_stop_resume_bit_identical(self, tmp_path, kind, backend):
        """Stop at a round boundary, resume from the snapshot: the stitched
        history equals the uninterrupted run's, bit for bit."""
        full = run(_spec(kind, backend=backend))
        rdir = str(tmp_path / "run")
        part = run(_spec(kind, backend=backend, run_dir=rdir),
                   stop_after_rounds=2)
        assert len(part.history.records) == 2
        resumed = resume_run(rdir)
        assert_history_equal(resumed.history, full.history)
        np.testing.assert_array_equal(resumed.final_params, full.final_params)

    def test_snapshot_waits_on_no_job(self, tmp_path, monkeypatch):
        """A recorded fedbuff run on the 2-worker pool snapshots with jobs
        in flight: writing the snapshot collects none of them, the image
        holds them as queued jobs, and resuming re-runs them to the
        uninterrupted run's history."""
        full = run(_spec("fedbuff", backend="process", streaming=True))
        in_flight, blocking, writing = [], [], []
        write_snapshot, collect = RunRecorder.write_snapshot, ProcessPoolBackend.collect

        def counting_write(self, core):
            in_flight.append(len(core.policy._handles))
            writing.append(True)
            try:
                return write_snapshot(self, core)
            finally:
                writing.pop()

        def watched_collect(self, handles=None, block=True):
            if writing and block:
                blocking.append(handles)
            return collect(self, handles, block)

        monkeypatch.setattr(RunRecorder, "write_snapshot", counting_write)
        monkeypatch.setattr(ProcessPoolBackend, "collect", watched_collect)
        rdir = str(tmp_path / "run")
        run(_spec("fedbuff", backend="process", run_dir=rdir, streaming=True),
            stop_after_rounds=2)
        assert max(in_flight) > 0 and blocking == []
        policy = load_snapshot(latest_snapshot(rdir))["policy"]
        assert policy["_handles"] == {}
        seqs = [seq for seq, _ in policy["_queue"]]
        assert seqs == sorted(seqs) and len(seqs) >= in_flight[-1]
        assert all(job.submitted_at is None for _, job in policy["_queue"])
        resumed = resume_run(rdir)
        assert_history_equal(resumed.history, full.history)
        np.testing.assert_array_equal(resumed.final_params, full.final_params)

    def test_resumed_journal_metrics(self, tmp_path):
        rdir = str(tmp_path / "run")
        run(_spec("sync", run_dir=rdir), stop_after_rounds=1)
        store = MetricsStore.from_journal(journal_path(rdir))
        assert store.stopped and not store.ended
        resume_run(rdir)
        store = MetricsStore.from_journal(journal_path(rdir))
        assert store.resumes == 1
        assert store.ended and not store.stopped
        assert store.n_rounds == 3  # replayed rounds dedup by index

    def test_crash_mid_round_resume(self, tmp_path):
        """A crash mid-write leaves a torn journal tail; resume replays the
        open round from the last snapshot and the tailer skips the tear."""
        full = run(_spec("semisync"))
        rdir = str(tmp_path / "run")
        run(_spec("semisync", run_dir=rdir), stop_after_rounds=2)
        with open(journal_path(rdir), "a") as f:
            f.write('{"type": "dispatch", "seq": 99')  # no newline: torn
        resumed = resume_run(rdir)
        assert_history_equal(resumed.history, full.history)
        store = MetricsStore.from_journal(journal_path(rdir))
        # the resume healed the torn tail: its own records stayed intact
        assert store.resumes == 1
        assert store.ended and not store.stopped

    def test_round_journaled_before_its_snapshot(self, tmp_path, monkeypatch):
        """A round's record is on disk before its snapshot is written, so a
        crash right after a snapshot lands cannot lose that round from the
        journal (a resume from the snapshot would never replay it)."""
        rdir = str(tmp_path / "run")
        save = journal_module.save_snapshot
        saved = []

        def checked_save(path, snap):
            on_disk = [r["round"] for r in read_journal(journal_path(rdir))
                       if r["type"] == "round"]
            assert snap["rounds"] - 1 in on_disk, (snap["rounds"], on_disk)
            saved.append(snap["rounds"])
            save(path, snap)

        monkeypatch.setattr(journal_module, "save_snapshot", checked_save)
        run(_spec("sync", run_dir=rdir))
        assert saved == [1, 2, 3]

    def test_torn_snapshot_write_resumes_from_round_before(
        self, tmp_path, monkeypatch
    ):
        """A crash halfway through pickling round 2's snapshot leaves round
        1's as the newest; the resume replays round 2 to the uninterrupted
        history."""
        full = run(_spec("sync"))
        rdir = str(tmp_path / "run")
        dump = pickle.dump

        class Killed(Exception):
            pass

        def torn_dump(obj, f, protocol=None):
            if isinstance(obj, dict) and obj.get("rounds") == 2:
                data = pickle.dumps(obj, protocol=protocol)
                f.write(data[: len(data) // 2])
                raise Killed("process died mid-write")
            dump(obj, f, protocol=protocol)

        monkeypatch.setattr(pickle, "dump", torn_dump)
        with pytest.raises(Killed):
            run(_spec("sync", run_dir=rdir))
        monkeypatch.undo()
        assert os.path.basename(latest_snapshot(rdir)) == "round_0001.pkl"
        resumed = resume_run(rdir)
        assert_history_equal(resumed.history, full.history)
        np.testing.assert_array_equal(resumed.final_params, full.final_params)
        store = MetricsStore.from_journal(journal_path(rdir))
        assert store.resumes == 1 and store.ended and store.n_rounds == 3

    def test_resume_without_snapshots_raises(self, tmp_path):
        rdir = tmp_path / "never_recorded"
        os.makedirs(rdir)
        _spec("sync").save(str(rdir / "spec.json"))
        with pytest.raises(FileNotFoundError, match="no snapshots"):
            resume_run(str(rdir))

    def test_foreign_schema_refused_before_touching_run_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        """A snapshot from another schema version is refused before the
        spec is parsed, a pool is bound or the journal is opened."""
        rdir = str(tmp_path / "run")
        run(_spec("fedbuff", backend="process", run_dir=rdir),
            stop_after_rounds=1)
        snap_path = latest_snapshot(rdir)
        with open(snap_path, "rb") as f:
            snap = pickle.load(f)
        spec_path = os.path.join(rdir, "spec.json")
        with open(spec_path) as f:
            spec_text = f.read()
        # specs saved alongside schema-1 snapshots carry the retired
        # runtime.fast_path key
        data = json.loads(spec_text)
        data["runtime"]["fast_path"] = None
        # schema 2's async policy held its jobs in three structures and had
        # no single queue: resuming it would break at the first dispatch
        policy_2 = dict(snap["policy"])
        del policy_2["_queue"]
        policy_2.update(_pending=[], _jobs={}, _burst=[])
        # schema 3's FedCM and MoFedSAM pickled ``_delta`` where schema 4
        # keeps ``momentum``: resumed, their momentum would restart at zero
        # schema 4's idle tracker pickled a Fenwick tree and an ndarray of
        # counts where schema 5 keeps a busy list and a dict
        n = snap["policy"]["_tracker"].n
        tracker_4 = object.__new__(IdleTracker)
        vars(tracker_4).update(
            n=n, n_idle=n, _count=np.zeros(n, dtype=np.int64),
            _tree=[0] + [i & -i for i in range(1, n + 1)],
            _idle_cache=None, _dirty=True)
        # schema 5 pickled the event records with a __dict__ state, which
        # their slotted classes cannot take: a plain unpickle fails at the
        # first one
        layouts = {
            1: (json.dumps(data), snap["policy"]),
            2: (spec_text, policy_2),
            3: (spec_text, snap["policy"]),
            4: (spec_text, dict(snap["policy"], _tracker=tracker_4)),
            5: (spec_text, snap["policy"]),
        }
        # a torn tail, which opening a recorder would heal with a newline
        with open(journal_path(rdir), "a") as f:
            f.write('{"type": "dispatch", "seq": 99')
        with open(journal_path(rdir), "rb") as f:
            journal = f.read()
        bound = []
        monkeypatch.setattr(ProcessPoolBackend, "bind",
                            lambda self, *a, **kw: bound.append(self))
        for schema, (spec_json, policy) in layouts.items():
            image = snap | {"schema": schema, "policy": policy}
            if schema == 5:
                with open(snap_path, "wb") as f:
                    _Schema5Pickler(f, protocol=pickle.HIGHEST_PROTOCOL).dump(image)
                with open(snap_path, "rb") as f, pytest.raises(
                    AttributeError, match="__dict__"
                ):
                    pickle.load(f)
            else:
                save_snapshot(snap_path, image)
            with open(spec_path, "w") as f:
                f.write(spec_json)
            message = f"snapshot schema {schema} != {SNAPSHOT_SCHEMA_VERSION}"
            with pytest.raises(ValueError, match=message):
                resume_run(rdir)
            assert cli_main(["run", "--resume", rdir]) == 2
            assert message in capsys.readouterr().err
            assert bound == []
            with open(journal_path(rdir), "rb") as f:
                assert f.read() == journal

    def test_record_without_run_dir_rejected(self):
        with pytest.raises(ValueError, match="run_dir"):
            RuntimeSpec(record=True)
        with pytest.raises(ValueError, match="record=True"):
            RuntimeSpec(run_dir="/tmp/somewhere")


class TestCLI:
    def test_record_stop_resume_watch(self, tmp_path, capsys):
        rdir = str(tmp_path / "run")
        base = ["run", "--clients", "6", "--scale", "0.3", "--rounds", "2",
                "--method", "fedavg"]
        assert cli_main(base + ["--record", rdir,
                                "--stop-after-rounds", "1"]) == 0
        assert "resume with" in capsys.readouterr().out
        assert cli_main(["run", "--resume", rdir]) == 0
        capsys.readouterr()
        assert cli_main(["watch", rdir, "--summary"]) == 0
        out = capsys.readouterr().out
        assert "fedavg" in out and "rounds:" in out and "accuracy:" in out

    def test_resume_rejects_spec_flags(self, tmp_path, capsys):
        assert cli_main(["run", "--resume", str(tmp_path),
                         "--method", "fedavg"]) == 2
        assert cli_main(["run", "--resume", str(tmp_path / "missing")]) == 2

    def test_watch_missing_journal(self, tmp_path, capsys):
        assert cli_main(["watch", str(tmp_path), "--summary"]) == 2

    @pytest.mark.parametrize("raw", ("-1", "0", "nan", "inf"))
    def test_watch_poll_refused_by_argparse(self, capsys, raw):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["watch", "RUN_DIR", "-f", "--poll", raw])
        assert exc.value.code == 2
        assert "--poll" in capsys.readouterr().err
        args = parser.parse_args(["watch", "RUN_DIR", "-f", "--poll", "0.5"])
        assert args.poll == 0.5

    def test_sweep_out_round_trip(self, tmp_path):
        sweep = run_sweep(_spec("sync"), {"config.seed": [0, 1]})
        path = str(tmp_path / "sweep.json")
        sweep.save(path)
        loaded = SweepResult.load(path)
        assert len(loaded) == 2
        assert loaded.base.to_dict() == sweep.base.to_dict()
        assert loaded.aggregate() == sweep.aggregate()
        for a, b in zip(loaded.results, sweep.results):
            assert_history_equal(a.history, b.history)
