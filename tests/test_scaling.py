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
* ``submit_many`` chunking and transport accounting on the pool backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_backends import _spec, assert_history_equal

from repro.algorithms import make_method
from repro.data import load_federated_dataset
from repro.experiments import resume_run, run
from repro.nn import make_mlp
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

    def test_close_drains_short_inflight_jobs(self, tiny_runtime, monkeypatch):
        """close() with short jobs in flight waits for them and closes the
        pool; it never terminates it.  Terminating a pool whose worker is
        writing a result can block ``Pool.terminate()`` forever, so here
        terminate raises.  The workers are reaped and the shared-memory
        segments unlinked."""
        from multiprocessing import pool as mp_pool
        from multiprocessing import shared_memory

        ds, cfg = tiny_runtime
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("fedavg").algorithm,
        )
        backend = ProcessPoolBackend(workers=2, shared_memory=True)
        backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
        workers = list(backend._pool._pool)

        def refuse(pool):
            raise AssertionError("close() terminated a pool with short jobs in flight")

        monkeypatch.setattr(mp_pool.Pool, "terminate", refuse)
        backend.submit_many(_jobs(ctx, algo, 4))
        names = {r.name for refs in backend._handle_refs.values() for r in refs}
        try:
            backend.close()  # never collected
        finally:
            monkeypatch.undo()
            backend.close()  # reaps what a failed close left behind
        assert names and all(p.exitcode is not None for p in workers)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


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
