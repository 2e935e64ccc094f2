"""Zero-copy broadcast + batched transport: the scaling-path test matrix.

Covers the transport optimizations behind the clients-per-second bench:

* bit-identity — batched pool tasks (``job_batch``) and shared-memory
  broadcast (``shared_memory``) against the serial reference, across engine
  kinds and stateful methods (SCAFFOLD under FedBuff included);
* :class:`~repro.parallel.shm.BroadcastStore` lifecycle — publish /
  attach round-trips, identity and content-equal fast paths, refcounted
  unlink of superseded versions, unlink-on-close;
* lazy :class:`~repro.runtime.events.ClientStateStore` — packed state
  materializes on first dispatch only, so memory is O(active clients);
* the pinned legacy ``collect(block=False)`` semantics — never starts
  work, never raises;
* ``submit_many`` chunking and transport accounting on the pool backend;
* the pool's forked workers — a job's exception and a worker killed
  mid-job both raise at ``collect``, a free worker takes the next task,
  large replies never deadlock a parent still submitting, an interrupted
  pipe transfer retires only its worker, ``close`` reaps everything even
  when its drain raises and kills no idle worker, and a parent's exit
  takes its workers with it.
"""

from __future__ import annotations

import functools
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from test_backends import _spec, assert_history_equal

from repro.algorithms import make_method
from repro.algorithms.fedavg import FedAvg
from repro.data import load_federated_dataset
from repro.experiments import resume_run, run
from repro.nn import make_mlp
from repro.parallel import backend as backend_module
from repro.parallel import (
    ArrayRef,
    BroadcastStore,
    ClientJob,
    ProcessPoolBackend,
    build_job_runtime,
    make_backend,
    resolve_job_refs,
)
from repro.parallel.shm import attach_array
from repro.runtime.events import ClientStateStore
from repro.simulation import FLConfig

KINDS = ("sync", "semisync", "fedasync", "fedbuff")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


# ---------------------------------------------------------------------------
# bit-identity: batched + shared-memory transport vs the serial reference
# ---------------------------------------------------------------------------
class TestTransportBitIdentity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_shm_batched_pool_matches_serial(self, kind):
        serial = run(_spec(kind))
        pooled = run(_spec(kind, backend="process",
                           job_batch=3, shared_memory=True))
        assert_history_equal(pooled.history, serial.history)
        np.testing.assert_array_equal(pooled.final_params, serial.final_params)

    def test_stateful_scaffold_under_fedbuff(self):
        """The hardest contract case: per-client control variates and the
        broadcast ``c`` array riding shm descriptors, batched 2-up."""
        kwargs = {"buffer_size": 3}
        serial = run(_spec("fedbuff", method="scaffold", method_kwargs=kwargs))
        pooled = run(_spec("fedbuff", method="scaffold", method_kwargs=kwargs,
                           backend="process", job_batch=2, shared_memory=True))
        assert_history_equal(pooled.history, serial.history)
        np.testing.assert_array_equal(pooled.final_params, serial.final_params)

    def test_batch_only_no_shm(self):
        serial = run(_spec("fedasync"))
        pooled = run(_spec("fedasync", backend="process", job_batch=4))
        assert_history_equal(pooled.history, serial.history)
        np.testing.assert_array_equal(pooled.final_params, serial.final_params)

    def test_stop_resume_with_transport_knobs(self, tmp_path):
        """The knobs persist through spec.json and the resumed half stays
        bit-identical — untouched clients lazily re-pack from the restored
        algorithm state, fresh shm segments publish on resume."""
        kwargs = {"buffer_size": 3}
        full = run(_spec("fedbuff", method="scaffold", method_kwargs=kwargs))
        rdir = str(tmp_path / "run")
        run(_spec("fedbuff", method="scaffold", method_kwargs=kwargs,
                  backend="process", job_batch=2, shared_memory=True,
                  record=True, run_dir=rdir),
            stop_after_rounds=2)
        resumed = resume_run(rdir)
        assert_history_equal(resumed.history, full.history)
        np.testing.assert_array_equal(resumed.final_params, full.final_params)


# ---------------------------------------------------------------------------
# BroadcastStore lifecycle
# ---------------------------------------------------------------------------
class TestBroadcastStore:
    def test_publish_attach_roundtrip_readonly(self):
        with BroadcastStore() as store:
            x = np.arange(32.0)
            ref = store.publish("x", x)
            assert isinstance(ref, ArrayRef)
            assert (ref.shape, ref.dtype, ref.nbytes) == (
                (32,), "float64", x.nbytes)
            mapped = attach_array(ref)
            np.testing.assert_array_equal(mapped, x)
            assert not mapped.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                mapped[0] = 99.0

    def test_identity_and_content_fast_paths(self):
        with BroadcastStore() as store:
            x = np.arange(16.0)
            ref1 = store.publish("x", x)
            assert store.publish("x", x) is ref1  # same object, no hash
            # a fresh object with identical bytes re-anchors, no new segment
            assert store.publish("x", x.copy()) is ref1
            assert store.stats()["shm_versions"] == 1
            # changed content bumps the version in a fresh segment
            ref2 = store.publish("x", x + 1.0)
            assert ref2.version > ref1.version
            assert store.stats()["shm_versions"] == 2

    def test_superseded_segment_unlinked_after_release(self):
        store = BroadcastStore()
        x = np.arange(8.0)
        job = ClientJob(round_idx=0, client_id=0, x_ref=x)
        packed, refs = store.pack_job(job)
        assert isinstance(packed.x_ref, ArrayRef) and len(refs) == 1
        store.publish("x", x + 1.0)  # supersede while the job is in flight
        assert store.stats()["shm_segments_live"] == 2  # refcount pins v0
        for ref in refs:
            store.release(ref)
        assert store.stats()["shm_segments_live"] == 1
        store.close()

    def test_close_unlinks_everything(self):
        store = BroadcastStore()
        ref = store.publish("x", np.arange(8.0))
        store.close()
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.name)
        store.close()  # idempotent
        with pytest.raises(RuntimeError, match="after close"):
            store.publish("x", np.arange(8.0))

    def test_small_and_non_array_ship_inline(self):
        with BroadcastStore(min_bytes=1024) as store:
            assert store.publish("x", np.arange(4.0)) is None  # below floor
            assert store.publish("x", "not an array") is None
            assert store.publish("x", np.empty(0)) is None
            job = ClientJob(round_idx=0, client_id=0, x_ref=np.arange(4.0))
            packed, refs = store.pack_job(job)
            assert packed is job and refs == ()
            assert resolve_job_refs(packed) is packed  # no-op passthrough


# ---------------------------------------------------------------------------
# lazy client-state store
# ---------------------------------------------------------------------------
class _CountingAlgo:
    stateful_per_client = True

    def __init__(self):
        self.packed: list[int] = []

    def pack_client_state(self, cid: int) -> dict:
        self.packed.append(cid)
        return {"cid": cid}


class TestLazyClientState:
    def test_state_materializes_on_first_snapshot_only(self):
        algo = _CountingAlgo()
        store = ClientStateStore(algo, num_clients=100_000)
        store.capture_initial()
        # a 100k-client store holds nothing until clients actually dispatch
        assert store._state == {} and algo.packed == []
        assert store.snapshot(7) == {"cid": 7}
        assert store.snapshot(7) == {"cid": 7}  # cached, not re-packed
        assert algo.packed == [7]
        store.snapshot(41)
        assert len(store._state) == 2  # O(active), not O(total)

    def test_inactive_store_stays_empty(self):
        algo = _CountingAlgo()
        store = ClientStateStore(algo, num_clients=100, active=False)
        store.capture_initial()
        assert store.snapshot(0) is None and algo.packed == []


# ---------------------------------------------------------------------------
# the pinned collect(block=False) contract + submit_many chunking
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_runtime():
    ds = load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
        num_clients=6, seed=0, scale=0.3,
    )
    cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0,
                   max_batches_per_round=2)
    return ds, cfg


def _jobs(ctx, algo, n: int) -> list[ClientJob]:
    return [
        ClientJob(round_idx=0, client_id=k % 3, x_ref=ctx.x0,
                  client_state=algo.pack_client_state(k % 3),
                  broadcast_state=algo.pack_broadcast_state())
        for k in range(n)
    ]


class TestCollectContract:
    @pytest.mark.parametrize("name", ("serial", "thread", "process"))
    def test_pool_nonblocking_collect_never_raises(self, tiny_runtime, name):
        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = (
            ProcessPoolBackend(workers=2, job_batch=2) if name == "process"
            else make_backend(name, workers=2)
        )
        try:
            backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
            handles = backend.submit_many(_jobs(ctx, algo, 3))
            bogus = type(handles[0])(seq=10_000, job=handles[0].job)
            # non-blocking: an unknown handle is skipped, never an error
            assert backend.collect([bogus], block=False) == []
            done = backend.collect(handles, block=True)
            assert [h for h, _ in done] == handles
            with pytest.raises(KeyError):
                backend.collect([handles[0]], block=True)  # already collected
            with pytest.raises(KeyError):
                backend.collect([bogus], block=True)
            # already-collected and unknown handles alike, after the fact
            assert backend.collect([handles[0], bogus], block=False) == []
            assert backend.collect(block=False) == []
        finally:
            backend.close()

    def test_submit_many_chunks_and_accounts(self, tiny_runtime):
        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("scaffold").algorithm,
        )
        backend = ProcessPoolBackend(workers=2, job_batch=2, shared_memory=True)
        try:
            backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
            jobs = _jobs(ctx, algo, 5)
            handles = backend.submit_many(jobs)
            assert [h.job.client_id for h in handles] == [j.client_id for j in jobs]
            results = dict(backend.collect(handles, block=True))
            assert len(results) == 5
            stats = backend.transport_stats()
            assert stats["jobs"] == 5
            assert stats["pool_tasks"] == 3  # ceil(5 / 2)
            assert stats["job_batch"] == 2
            # x (and scaffold's broadcast c) shipped as descriptors
            assert stats["shm_jobs_packed"] == 5
            assert stats["shm_bytes_saved"] > 0
            # every handle released its refs: only current versions live
            assert stats["shm_segments_live"] == stats["shm_versions"]
            # batched siblings share one pool task but results stay per-job
            # and match the in-process reference execution exactly
            from repro.parallel import execute_jobs

            for h, job in zip(handles, jobs):
                (want,) = execute_jobs(ctx, algo, [job])
                np.testing.assert_array_equal(
                    results[h].update.displacement,
                    want.update.displacement)
        finally:
            backend.close()
        # stats survive close (the journal's end record reads them then)
        assert backend.transport_stats()["shm_jobs_packed"] == 5

    def test_close_unlinks_inflight_segments(self, tiny_runtime):
        """close() with work in flight drains the pool first, then unlinks
        — the engines' finally-close reaps shm even on a crash."""
        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = ProcessPoolBackend(workers=2, shared_memory=True)
        backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
        handles = backend.submit_many(_jobs(ctx, algo, 4))
        ref = handles[0].job.x_ref  # the engine-side job keeps the real array
        packed_ref = backend._handle_refs[handles[0]][0]
        backend.close()  # never collected
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=packed_ref.name)
        assert isinstance(ref, np.ndarray)  # journal path untouched by shm

    def test_close_drains_short_inflight_jobs(self, tiny_runtime):
        """close() with short jobs in flight waits for them, then stops
        every worker with the stop payload: none is killed (every exit code
        is 0), all are reaped, and the shared-memory segments are
        unlinked."""
        from multiprocessing import shared_memory

        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = ProcessPoolBackend(workers=2, shared_memory=True)
        backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
        workers = [w.process for w in backend._pool]
        backend.submit_many(_jobs(ctx, algo, 4))
        names = {r.name for refs in backend._handle_refs.values() for r in refs}
        backend.close()  # never collected
        assert names and [p.exitcode for p in workers] == [0, 0]
        assert not any(p.is_alive() for p in workers)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# the pool's own workers: death, back-pressure, orphaning
# ---------------------------------------------------------------------------
class _Stuck(FedAvg):
    """A method whose client work never returns on its own."""

    def client_updates(self, ctx, jobs):
        threading.Event().wait()


class _StuckOnZero(FedAvg):
    """A method whose work for client 0 never returns on its own."""

    def client_updates(self, ctx, jobs):
        if any(k == 0 for _, k, _ in jobs):
            threading.Event().wait()
        return super().client_updates(ctx, jobs)


class _Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt landing inside a pipe transfer."""


def _interrupting(monkeypatch, method: str) -> None:
    """Make the parent's next ``Connection.<method>`` raise ``_Interrupt``
    once, as a Ctrl-C in the middle of a transfer would."""
    from multiprocessing.connection import Connection

    original = getattr(Connection, method)
    calls = []

    def interrupted(self, *args, **kwargs):
        calls.append(method)
        if len(calls) == 1:
            raise _Interrupt
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Connection, method, interrupted)


def _within(seconds: float, fn):
    """``fn()``'s value, or a test failure once ``seconds`` have passed
    (the call keeps running in a daemon thread instead of hanging the
    suite)."""
    box: dict = {}

    def call():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the test's thread
            box["error"] = exc

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"still blocked after {seconds} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie nobody reaped has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


_ORPHAN_HELPER = """
import os
from repro.algorithms import make_method
from repro.data import load_federated_dataset
from repro.nn import make_mlp
from repro.parallel import ProcessPoolBackend, build_job_runtime
from repro.simulation import FLConfig

ds = load_federated_dataset("fashion-mnist-lite", imbalance_factor=0.3,
                            beta=0.3, num_clients=6, seed=0, scale=0.3)
cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0)
ctx, algo = build_job_runtime(lambda: make_mlp(32, 10, seed=0), ds, cfg,
                              algo_builder=lambda: make_method("fedavg").algorithm)
backend = ProcessPoolBackend(workers=2)
backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
print(*(w.process.pid for w in backend._pool), flush=True)
os._exit(0)
"""


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("refuses to pickle")


class _NeedsTwo(Exception):
    """Pickles, but unpickling calls ``_NeedsTwo(a)`` and fails."""

    def __init__(self, a, b):
        super().__init__(a)


class TestPoolWorkers:
    @pytest.mark.parametrize("error, raised, match", [
        (ValueError("bad client"), ValueError, "bad client"),
        (_Unpicklable("x"), RuntimeError, r"_Unpicklable\('x'\)"),
        (_NeedsTwo("x", "y"), RuntimeError, r"_NeedsTwo\('x'\)"),
    ])
    def test_worker_exception_reraises_at_collect(self, tiny_runtime, error, raised,
                                                  match):
        """A job that raises comes back as its exception, carrying the
        worker's traceback as a note, or as a RuntimeError with its repr
        when it does not pickle; the worker lives on."""

        class Raises(FedAvg):
            def client_updates(self, ctx, jobs):
                raise error

        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = ProcessPoolBackend(workers=1)
        try:
            backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0),
                         algo_builder=Raises)
            handles = backend.submit_many(_jobs(ctx, algo, 1))
            with pytest.raises(raised, match=match) as info:
                _within(60.0, lambda: backend.collect(handles, block=True))
            if raised is ValueError:
                assert "in process-pool worker" in info.value.__notes__[-1]
            assert [w.process.is_alive() for w in backend._pool] == [True]
        finally:
            backend.close()

    def test_worker_killed_mid_job_raises_at_collect(self, tiny_runtime):
        """SIGKILL on the only worker while its job runs: ``collect`` raises
        an error naming the worker's pid and exit code instead of waiting
        for a reply that never comes."""
        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = ProcessPoolBackend(workers=1)
        try:
            backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0),
                         algo_builder=_Stuck)
            handles = backend.submit_many(_jobs(ctx, algo, 1))
            (worker,) = backend._pool
            pid = worker.process.pid
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match=rf"pid {pid} exited with code -9"):
                _within(60.0, lambda: backend.collect(handles, block=True))
            with pytest.raises(RuntimeError, match="after every worker exited"):
                backend.submit_many(_jobs(ctx, algo, 1))
        finally:
            backend.close()
        assert backend._pool is None and not worker.process.is_alive()

    def test_a_free_worker_takes_the_next_task(self, tiny_runtime, monkeypatch):
        """One worker stuck on a job while six one-job tasks wait: only the
        task it already holds waits behind it, the free worker runs every
        other one, and ``close`` kills the stuck worker alone once the
        drain bound passes (the idle one exits with code 0)."""
        monkeypatch.setattr(backend_module, "_CLOSE_DRAIN_S", 0.5)
        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = ProcessPoolBackend(workers=2)
        try:
            backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0),
                         algo_builder=_StuckOnZero)
            workers = [w.process for w in backend._pool]
            jobs = [ClientJob(round_idx=0, client_id=k, x_ref=ctx.x0)
                    for k in (0, 1, 2, 1, 2, 1)]
            handles = backend.submit_many(jobs)
            # the stuck worker got tasks 0 and 2; the free one runs the rest
            free = [handles[i] for i in (1, 3, 4, 5)]
            pairs = _within(60.0, lambda: backend.collect(free, block=True))
            assert [h for h, _ in pairs] == free
            assert backend.collect([handles[0], handles[2]], block=False) == []
        finally:
            backend.close()
        assert [p.exitcode for p in workers] == [-signal.SIGKILL, 0]

    def test_an_interrupted_write_retires_only_its_worker(self, tiny_runtime,
                                                          monkeypatch):
        """An interrupt inside ``submit_many``'s pipe write leaves that
        worker's stream out of frame: it is killed and reaped at once, its
        task fails at ``collect``, and the other worker runs on."""
        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = ProcessPoolBackend(workers=2)
        try:
            backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
            first, second = (w.process for w in backend._pool)
            _interrupting(monkeypatch, "send_bytes")
            with pytest.raises(_Interrupt):
                backend.submit_many(_jobs(ctx, algo, 1))
            (lost,) = backend._inflight
            assert first.exitcode == -signal.SIGKILL
            assert [w.process for w in backend._pool] == [second]
            with pytest.raises(RuntimeError, match=rf"pid {first.pid} exited with code -9"):
                backend.collect([lost], block=True)
            handles = backend.submit_many(_jobs(ctx, algo, 3))
            assert len(_within(60.0, lambda: backend.collect(handles))) == 3
        finally:
            backend.close()
        assert second.exitcode == 0

    def test_close_reaps_everything_when_its_drain_raises(self, tiny_runtime,
                                                         monkeypatch):
        """An interrupt inside the reply read of ``close``'s drain still
        leaves every worker reaped and every shared-memory segment
        unlinked."""
        from multiprocessing import shared_memory

        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = ProcessPoolBackend(workers=2, shared_memory=True)
        backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
        workers = [w.process for w in backend._pool]
        backend.submit_many(_jobs(ctx, algo, 4))
        names = {r.name for refs in backend._handle_refs.values() for r in refs}
        _interrupting(monkeypatch, "recv_bytes")
        with pytest.raises(_Interrupt):
            backend.close()  # never collected: the drain reads the replies
        assert backend._pool is None and names
        assert not any(p.is_alive() for p in workers)
        assert all(p.exitcode is not None for p in workers)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_large_replies_while_submitting_do_not_deadlock(self, tiny_runtime):
        """12 one-job tasks of 2.28 MB vectors over 2 workers, no shared
        memory: the parent writes tasks to busy workers while their large
        replies wait unread, and the results still equal in-process
        execution."""
        from repro.parallel import execute_jobs

        ds, cfg = tiny_runtime
        builder = functools.partial(make_mlp, 32, 10, hidden=(512, 512), seed=0)
        ctx, algo = build_job_runtime(
            builder, ds, cfg, algo_builder=lambda: make_method("fedavg").algorithm,
        )
        assert ctx.x0.nbytes > 2_000_000
        jobs = [ClientJob(round_idx=0, client_id=k % ds.num_clients, x_ref=ctx.x0 + k)
                for k in range(12)]
        backend = ProcessPoolBackend(workers=2, job_batch=1)
        backend.bind(ctx, algo, model_builder=builder)
        workers = [w.process for w in backend._pool]
        try:
            pairs = _within(60.0, lambda: backend.collect(
                backend.submit_many(jobs), block=True))
        except BaseException:
            for p in workers:  # the blocked thread then gets EPIPE and ends
                p.kill()
                p.join()
            raise
        backend.close()
        assert [h.job.client_id for h, _ in pairs] == [j.client_id for j in jobs]
        for (_, res), job in zip(pairs, jobs):
            (want,) = execute_jobs(ctx, algo, [job])
            np.testing.assert_array_equal(res.update.displacement,
                                          want.update.displacement)

    def test_workers_exit_when_the_parent_dies(self):
        """A parent that exits without closing its pool leaves no worker
        behind: each one sees EOF on its pipe and exits."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_HELPER],
                                stdout=subprocess.PIPE, env=env, text=True)
        pids: list[int] = []
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert proc.wait(timeout=60) == 0 and len(pids) == 2
            deadline = time.monotonic() + 30.0
            while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(_alive(pid) for pid in pids)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# transport knob validation
# ---------------------------------------------------------------------------
class TestKnobResolution:
    def test_spec_validates_transport_knobs(self):
        with pytest.raises(ValueError, match="job_batch"):
            _spec("fedasync", job_batch=0)
        with pytest.raises(ValueError, match="transport backends"):
            _spec("fedasync", backend="thread", job_batch=2)
        with pytest.raises(ValueError, match="shared_memory"):
            _spec("fedasync", backend="thread", shared_memory=True)
        # valid combinations construct fine
        _spec("fedasync", backend="process", job_batch=2, shared_memory=True)
