"""Execution-backend layer: job contract, backend equivalence, sweeps.

The PR-4 equivalence suite (old-vs-new event core) extended one axis: every
engine kind must produce *bit-identical* histories on the serial and
process-pool backends — including stateful methods (SCAFFOLD under FedBuff)
and BatchNorm buffer tracking, the two workloads the old worker-pool path
could not run at all.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.algorithms import AsyncAdapter, make_method
from repro.cli import main as cli_main
from repro.data import load_federated_dataset
from repro.experiments import (
    DataSpec,
    ExperimentSpec,
    MethodSpec,
    ModelSpec,
    RuntimeSpec,
    SweepResult,
    run,
    run_sweep,
)
from repro.nn import make_mlp
from repro.parallel import (
    BACKENDS,
    ClientJob,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    resolve_backend,
    resolve_streaming,
)
from repro.runtime import (
    AsyncFederatedSimulation,
    AsyncPolicy,
    EventCore,
    LognormalLatency,
    SemiSyncFederatedSimulation,
)
from repro.simulation import FederatedSimulation, FLConfig

KINDS = ("sync", "semisync", "fedasync", "fedbuff")
BACKEND_NAMES = ("serial", "process")

# small enough that the full kind x backend matrix stays CI-sized
_TINY = dict(
    data=DataSpec(clients=6, scale=0.3, beta=0.3, imbalance_factor=0.3),
    config=FLConfig(rounds=3, participation=0.5, local_epochs=1, batch_size=10,
                    max_batches_per_round=3, eval_every=1, seed=0),
)


def _spec(kind: str, method: str | None = None, backend: str = "serial",
          method_kwargs: dict | None = None, **runtime_kw) -> ExperimentSpec:
    default_method = {"sync": "fedavg", "semisync": "fedavg",
                      "fedasync": "fedasync", "fedbuff": "fedbuff"}[kind]
    if kind != "sync":
        runtime_kw.setdefault("latency", "lognormal")
    if backend != "serial":
        runtime_kw.setdefault("workers", 2)
    return ExperimentSpec(
        method=MethodSpec(name=method or default_method,
                          kwargs=method_kwargs or {}),
        runtime=RuntimeSpec(kind=kind, backend=backend, **runtime_kw),
        **_TINY,
    )


def assert_history_equal(new, old):
    """Bit-identical histories, wall_time excluded (it measures real time)."""
    assert new.algorithm == old.algorithm
    assert len(new.records) == len(old.records)
    for rn, ro in zip(new.records, old.records):
        assert type(rn) is type(ro)
        for f in ("round", "test_accuracy", "test_loss", "virtual_time",
                  "staleness", "concurrency", "updates_applied"):
            if hasattr(ro, f):
                a, b = getattr(rn, f), getattr(ro, f)
                assert (a == b) or (
                    isinstance(a, float) and np.isnan(a) and np.isnan(b)
                ), f
        np.testing.assert_array_equal(rn.selected, ro.selected)
        assert set(rn.extras) == set(ro.extras)
        for k, v in ro.extras.items():
            np.testing.assert_array_equal(rn.extras[k], v, err_msg=k)


class TestBackendEquivalence:
    """Serial vs process, across all four engine kinds."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend", ("process",))
    def test_bit_identical_plain_method(self, kind, backend):
        serial = run(_spec(kind))
        parallel = run(_spec(kind, backend=backend))
        assert_history_equal(parallel.history, serial.history)
        np.testing.assert_array_equal(parallel.final_params, serial.final_params)

    @pytest.mark.parametrize("kind,method", [
        ("sync", "scaffold"),       # stateful, live-state serial reference
        ("semisync", "scaffold"),   # stateful + broadcast c under deadlines
        ("semisync", "fedcm"),      # aggregate-broadcast momentum
        ("fedbuff", "scaffold"),    # the PR-4 serial-only flagship case
        ("fedasync", "feddyn"),     # stateful duals under immediate mixing
    ])
    @pytest.mark.parametrize("backend", ("process",))
    def test_bit_identical_stateful_and_broadcast(self, kind, method, backend):
        kwargs = {"buffer_size": 3} if kind == "fedbuff" else None
        serial = run(_spec(kind, method=method, method_kwargs=kwargs))
        parallel = run(_spec(kind, method=method, method_kwargs=kwargs,
                             backend=backend))
        assert_history_equal(parallel.history, serial.history)
        np.testing.assert_array_equal(parallel.final_params, serial.final_params)

    @pytest.mark.parametrize("kind", ("sync", "fedbuff"))
    def test_bit_identical_batchnorm_model(self, kind):
        """Buffers ride the job contract: the BN running-stat treatment
        (per-round mean for rounds, arrival EMA for async) matches serial
        on the process pool — recorded accuracies included."""
        base = _spec(kind, method_kwargs={"buffer_size": 3} if kind == "fedbuff" else None)
        bn = base.override_many([
            ("data", DataSpec(dataset="svhn-lite", clients=6, scale=0.2,
                              beta=0.3, imbalance_factor=0.3)),
            ("model", ModelSpec(arch="resnet-lite-18",
                                kwargs={"width": 2, "norm": "batch"})),
        ])
        serial = run(bn)
        pool = run(bn.override_many([
            ("runtime.backend", "process"), ("runtime.workers", 2)]))
        assert_history_equal(pool.history, serial.history)
        np.testing.assert_array_equal(pool.final_params, serial.final_params)


class TestJobContract:
    def test_jobs_are_order_independent(self):
        """The same job re-executed (even out of order) gives the same
        update — the purity the backend equivalence rests on."""
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
            num_clients=6, seed=0, scale=0.3,
        )
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=2)
        from repro.simulation.context import SimulationContext
        ctx = SimulationContext(make_mlp(32, 10, seed=0), ds, cfg)
        algo = make_method("scaffold").algorithm
        algo.setup(ctx)
        backend = SerialBackend().bind(ctx, algo)
        jobs = [
            ClientJob(round_idx=0, client_id=k, x_ref=ctx.x0.copy(),
                      client_state=algo.pack_client_state(k),
                      broadcast_state=algo.pack_broadcast_state())
            for k in range(3)
        ]
        a = [r for _, r in backend.collect(backend.submit_many(jobs))]
        b = [r for _, r in backend.collect(backend.submit_many(jobs[::-1]))]
        for res, rev in zip(a, reversed(b)):
            np.testing.assert_array_equal(
                res.update.displacement, rev.update.displacement
            )
            np.testing.assert_array_equal(
                res.new_state["ci"], rev.new_state["ci"]
            )

    def test_execute_client_job_is_the_shared_compute_path(self):
        """Every executor (serial, pool worker, remote worker) funnels
        through ``execute_jobs`` (which replaced the per-job
        ``execute_client_job``) on a replica from ``build_job_runtime`` — the
        same job gives the same result, and timing stamps appear exactly
        when the job asks for them."""
        from repro.parallel import build_job_runtime, execute_jobs

        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
            num_clients=6, seed=0, scale=0.3,
        )
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=2)
        ctx, algo = build_job_runtime(
            lambda: make_mlp(32, 10, seed=0), ds, cfg,
            algo_builder=lambda: make_method("scaffold").algorithm,
        )
        state0 = algo.pack_client_state(0)
        bcast0 = algo.pack_broadcast_state()
        job = ClientJob(round_idx=0, client_id=0, x_ref=ctx.x0.copy(),
                        client_state=state0, broadcast_state=bcast0)
        (plain,) = execute_jobs(ctx, algo, [job])
        assert plain.timing is None  # no collect_timing, no stamps
        timed_job = ClientJob(
            round_idx=0, client_id=0, x_ref=ctx.x0.copy(),
            client_state=state0, broadcast_state=bcast0,
            collect_timing=True, submitted_at=time.monotonic(),
        )
        # the transport measured the serialized size; no re-pickle happens
        (timed,) = execute_jobs(ctx, algo, [timed_job], job_bytes=4096)
        assert {"queue_wait_s", "compute_s", "pickle_bytes"} <= set(timed.timing)
        assert timed.timing["pickle_bytes"] == 4096
        np.testing.assert_array_equal(
            timed.update.displacement, plain.update.displacement
        )

    def test_make_backend_registry(self):
        assert set(BACKENDS) == {"serial", "process", "remote"}
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=2), ProcessPoolBackend)
        with pytest.raises(KeyError):
            make_backend("gpu")

    def test_resolve_backend_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None, None) == "serial"
        assert resolve_backend(None, 4) == "process"
        assert resolve_backend("remote", 4) == "remote"
        assert resolve_backend("auto", None) == "serial"
        monkeypatch.setenv("REPRO_BACKEND", "remote")
        # env applies only to opted-in (spec/sweep) resolution ...
        assert resolve_backend(None, None) == "serial"
        assert resolve_backend(None, None, env=True) == "remote"
        # ... and an explicit name always wins
        assert resolve_backend("process", None, env=True) == "process"
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            resolve_backend(None, None, env=True)

    def test_undeclared_state_methods_refused_off_serial(self):
        """An algorithm whose client state lives outside the pack/unpack and
        broadcast_attrs contracts would silently diverge on worker replicas —
        the backend layer refuses it at engine-construction time.  (No
        registry method trips this anymore: FedGraB's balancers now ride the
        client-state contract, see test_fedgrab_balancers_cross_backends.)"""
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
            num_clients=6, seed=0, scale=0.3,
        )
        algo = make_method("fedavg").algorithm
        algo.parallel_safe = False
        with pytest.raises(ValueError, match="outside the pack"):
            FederatedSimulation(
                algo, make_mlp(32, 10, seed=0), ds, FLConfig(rounds=1),
                backend="process", workers=2, model_builder=lambda: None,
            )
        # the serial backend still runs it: no replicas, nothing to diverge
        sim = FederatedSimulation(
            algo, make_mlp(32, 10, seed=0), ds, FLConfig(rounds=1),
            backend="serial",
        )
        assert sim.backend.name == "serial"

    @pytest.mark.parametrize("backend", ("process",))
    def test_fedgrab_balancers_cross_backends(self, backend):
        """FedGraB's per-client balancer accumulators ride the pack/unpack
        client-state contract, so pool runs reproduce the serial trajectory
        bit-for-bit (the accumulators feed every later participation)."""
        serial = run(_spec("sync", method="fedgrab"))
        pooled = run(_spec("sync", method="fedgrab", backend=backend))
        assert_history_equal(pooled.history, serial.history)
        np.testing.assert_array_equal(serial.final_params, pooled.final_params)

    def test_backend_name_case_normalized(self):
        with pytest.raises(ValueError, match="contradicts"):
            RuntimeSpec(backend="Serial", workers=4)
        assert RuntimeSpec(backend="Process", workers=2).backend == "process"

    def test_nonserial_backend_requires_model_builder(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
            num_clients=6, seed=0, scale=0.3,
        )
        with pytest.raises(ValueError, match="model_builder"):
            AsyncFederatedSimulation(
                make_method("fedasync").algorithm, make_mlp(32, 10, seed=0),
                ds, FLConfig(rounds=2), backend="process",
            )


class TestStreamingEquivalence:
    """Streaming dispatch must be invisible in results: every history and
    final parameter vector bit-identical to the lazy-batch path, because
    both modes stamp all job inputs at dispatch time."""

    @pytest.mark.parametrize("kind", ("fedasync", "fedbuff"))
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_stream_matches_batch(self, kind, backend):
        stream = run(_spec(kind, backend=backend, streaming=True))
        batch = run(_spec(kind, backend=backend, streaming=False))
        assert_history_equal(stream.history, batch.history)
        np.testing.assert_array_equal(stream.final_params, batch.final_params)

    @pytest.mark.parametrize("kind,method,kwargs", [
        ("fedbuff", "scaffold", {"buffer_size": 3}),  # packed client state
        ("fedasync", "feddyn", None),                 # stateful duals
    ])
    def test_stream_matches_batch_stateful(self, kind, method, kwargs):
        stream = run(_spec(kind, method=method, method_kwargs=kwargs,
                           backend="process", streaming=True))
        batch = run(_spec(kind, method=method, method_kwargs=kwargs,
                          backend="process", streaming=False))
        assert_history_equal(stream.history, batch.history)
        np.testing.assert_array_equal(stream.final_params, batch.final_params)

    def test_one_queued_stateful_job_per_completion(self, monkeypatch):
        """SCAFFOLD under FedBuff at concurrency 1: every completion's job is
        then the only one queued, and it carries broadcast state (SCAFFOLD's
        ``c``).  Serial == process and streaming on == off."""
        batches = []
        run_backend_jobs = EventCore.run_backend_jobs

        def spy(core, jobs):
            batches.append(len(jobs))
            return run_backend_jobs(core, jobs)

        monkeypatch.setattr(EventCore, "run_backend_jobs", spy)
        runs = {
            (backend, streaming): run(_spec(
                "fedbuff", method="scaffold", method_kwargs={"buffer_size": 3},
                backend=backend, concurrency=1, streaming=streaming,
            ))
            for backend in ("serial", "process")
            for streaming in (True, False)
        }
        # the serial runs and the lazy pool run hand over one job at a time
        assert batches and set(batches) == {1}
        ref = runs["serial", False]
        accuracy = [r.test_accuracy for r in ref.history.records]
        for key, res in runs.items():
            np.testing.assert_array_equal(
                [r.test_accuracy for r in res.history.records], accuracy,
                err_msg=str(key),
            )
            np.testing.assert_array_equal(
                res.final_params, ref.final_params, err_msg=str(key)
            )
            assert_history_equal(res.history, ref.history)

    def test_lazy_hand_over_keeps_live_broadcast_state(self, monkeypatch):
        """On a live-state backend a lazy batch unpacks each job's
        dispatch-time broadcast state into the server's algorithm; the
        hand-over puts the server's own state back after the batch.  The
        spy marks the live state first, so a batch that left any job's
        state behind shows."""
        hand_over = AsyncPolicy._hand_over
        kept = []

        def spy(policy, core):
            algo = core.algorithm
            marked = {k: v + 1.0 for k, v in algo.pack_broadcast_state().items()}
            algo.unpack_broadcast_state(marked)
            hand_over(policy, core)
            after = algo.pack_broadcast_state()
            kept.append(all(np.array_equal(after[k], v) for k, v in marked.items()))

        monkeypatch.setattr(AsyncPolicy, "_hand_over", spy)
        run(_spec("fedbuff", method="scaffold", method_kwargs={"buffer_size": 3}))
        assert kept and all(kept)

    @pytest.mark.parametrize("kind", ("sync", "semisync"))
    def test_round_kinds_unaffected_by_streaming_env(self, kind, monkeypatch):
        """Round policies dispatch whole cohorts (submit+collect is already
        eager there): the ambient REPRO_STREAMING default must be a no-op."""
        monkeypatch.setenv("REPRO_STREAMING", "1")
        on = run(_spec(kind, backend="process"))
        monkeypatch.setenv("REPRO_STREAMING", "0")
        off = run(_spec(kind, backend="process"))
        assert_history_equal(on.history, off.history)
        np.testing.assert_array_equal(on.final_params, off.final_params)

    def test_streaming_knob_forbidden_for_round_kinds(self):
        with pytest.raises(ValueError, match="streaming"):
            RuntimeSpec(kind="sync", streaming=True)
        with pytest.raises(ValueError, match="streaming"):
            RuntimeSpec(kind="semisync", streaming=False)

    def test_resolve_streaming_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAMING", raising=False)
        assert resolve_streaming(None) is True
        assert resolve_streaming(False) is False
        monkeypatch.setenv("REPRO_STREAMING", "0")
        # env applies only to opted-in (spec facade) resolution ...
        assert resolve_streaming(None) is True
        assert resolve_streaming(None, env=True) is False
        # ... and an explicit value always wins
        assert resolve_streaming(True, env=True) is True
        monkeypatch.setenv("REPRO_STREAMING", "maybe")
        with pytest.raises(ValueError, match="REPRO_STREAMING"):
            resolve_streaming(None, env=True)


class _HollowBackend(ExecutionBackend):
    name = "hollow"


class TestStreamingAPI:
    """The submit/collect contract itself: ordering, blocking semantics and
    submission-time stamping."""

    @pytest.fixture(scope="class")
    def problem(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
            num_clients=6, seed=0, scale=0.3,
        )
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=2, batch_size=10)
        return ds, cfg

    def _bound(self, name, ds, cfg):
        from repro.simulation.context import SimulationContext

        ctx = SimulationContext(make_mlp(32, 10, seed=0), ds, cfg)
        algo = make_method("fedavg").algorithm
        algo.setup(ctx)
        backend = make_backend(name, workers=2)
        backend.bind(ctx, algo, model_builder=lambda: make_mlp(32, 10, seed=0))
        return ctx, backend

    def _jobs(self, ctx, n=6, **kw):
        return [
            ClientJob(round_idx=0, client_id=k % ctx.num_clients,
                      x_ref=ctx.x0.copy(), **kw)
            for k in range(n)
        ]

    @pytest.fixture(scope="class")
    def reference(self, problem):
        """Serial displacements, the purity baseline for every backend."""
        ds, cfg = problem
        ctx, backend = self._bound("serial", ds, cfg)
        with backend:
            pairs = backend.collect(backend.submit_many(self._jobs(ctx)))
        return [r.update.displacement for _, r in pairs]

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_out_of_order_collect(self, name, problem, reference):
        """Jobs submitted up front can be collected singly, in reverse, and
        still map handle -> the right result; each handle comes back once."""
        ds, cfg = problem
        ctx, backend = self._bound(name, ds, cfg)
        with backend:
            handles = backend.submit_many(self._jobs(ctx))
            for i in reversed(range(len(handles))):
                ((h, res),) = backend.collect([handles[i]], block=True)
                assert h == handles[i]
                np.testing.assert_array_equal(
                    res.update.displacement, reference[i]
                )
            # every handle is returned at most once across calls
            assert backend.collect(handles, block=False) == []
            with pytest.raises(KeyError, match="handle"):
                backend.collect([handles[0]], block=True)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_collect_all_outstanding_in_submit_order(self, name, problem,
                                                     reference):
        ds, cfg = problem
        ctx, backend = self._bound(name, ds, cfg)
        with backend:
            handles = backend.submit_many(self._jobs(ctx))
            pairs = backend.collect(block=True)  # handles=None: everything
            assert [h for h, _ in pairs] == handles
            for (_, res), disp in zip(pairs, reference):
                np.testing.assert_array_equal(res.update.displacement, disp)

    def test_nonblocking_drain(self, problem, reference):
        """block=False never waits: polling it eventually surfaces every
        result exactly once (the pattern AsyncPolicy._obtain relies on)."""
        ds, cfg = problem
        ctx, backend = self._bound("process", ds, cfg)
        with backend:
            handles = backend.submit_many(self._jobs(ctx))
            got = {}
            deadline = time.monotonic() + 120
            while len(got) < len(handles) and time.monotonic() < deadline:
                for h, res in backend.collect(block=False):
                    assert h not in got
                    got[h] = res
            assert len(got) == len(handles)
            for h, disp in zip(handles, reference):
                np.testing.assert_array_equal(
                    got[h].update.displacement, disp
                )

    def test_serial_submit_is_eager(self, problem):
        ds, cfg = problem
        ctx, backend = self._bound("serial", ds, cfg)
        with backend:
            handles = backend.submit_many(self._jobs(ctx, n=3))
            # everything already finished: a non-blocking collect drains all
            assert len(backend.collect(handles, block=False)) == 3

    def test_submit_stamps_submitted_at(self, problem):
        """The queue-wait anchor is set at submission, unless the caller
        anchored an earlier time itself (the event core stamps a job where
        it builds it)."""
        ds, cfg = problem
        ctx, backend = self._bound("serial", ds, cfg)
        with backend:
            (job,) = self._jobs(ctx, n=1, collect_timing=True)
            assert job.submitted_at is None
            (h,) = backend.submit_many([job])
            assert h.job.submitted_at is not None
            ((_, res),) = backend.collect([h])
            assert res.timing["queue_wait_s"] >= 0.0
            assert res.timing["compute_s"] > 0.0
            # a caller-provided (earlier) anchor survives submission
            anchor = time.monotonic() - 1.0
            (early,) = self._jobs(ctx, n=1, collect_timing=True,
                                  submitted_at=anchor)
            (h2,) = backend.submit_many([early])
            assert h2.job.submitted_at == anchor
            ((_, res2),) = backend.collect([h2])
            assert res2.timing["queue_wait_s"] >= 1.0

    def test_pool_timing_measures_real_queue_wait(self, problem):
        ds, cfg = problem
        ctx, backend = self._bound("process", ds, cfg)
        with backend:
            handles = backend.submit_many(self._jobs(ctx, n=4, collect_timing=True))
            for _, res in backend.collect(handles, block=True):
                assert res.timing["queue_wait_s"] >= 0.0
                assert res.timing["compute_s"] > 0.0
                assert res.timing["pickle_bytes"] > 0

    def test_backend_with_neither_api_raises(self):
        job = ClientJob(round_idx=0, client_id=0, x_ref=np.zeros(1))
        with pytest.raises(NotImplementedError, match="submit_many"):
            _HollowBackend().submit_many([job])
        with pytest.raises(NotImplementedError, match="collect"):
            _HollowBackend().collect()


class TestBackendLifecycle:
    """bind -> submit/collect -> close; worker reaping on failure paths."""

    @pytest.fixture()
    def problem(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
            num_clients=6, seed=0, scale=0.3,
        )
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=2, batch_size=10, eval_every=1)
        return ds, cfg

    @staticmethod
    def _leaked(before: set) -> set:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            leaked = {p.pid for p in mp.active_children()} - before
            if not leaked:
                return set()
            time.sleep(0.05)
        return leaked

    def test_context_manager_reaps_inflight_workers(self, problem):
        """Leaving the with-block with uncollected jobs drains and closes
        the fork pool — no orphaned workers, no hang."""
        ds, cfg = problem
        from repro.simulation.context import SimulationContext

        ctx = SimulationContext(make_mlp(32, 10, seed=0), ds, cfg)
        algo = make_method("fedavg").algorithm
        algo.setup(ctx)
        before = {p.pid for p in mp.active_children()}
        with make_backend("process", workers=2) as backend:
            backend.bind(ctx, algo,
                         model_builder=lambda: make_mlp(32, 10, seed=0))
            backend.submit_many([
                ClientJob(round_idx=0, client_id=k, x_ref=ctx.x0.copy())
                for k in range(4)
            ])
        assert backend._pool is None
        assert self._leaked(before) == set()

    def test_close_is_idempotent_and_prebind_safe(self):
        backend = make_backend("process", workers=2)
        backend.close()  # never bound
        backend.close()

    @staticmethod
    def _engine(kind, problem, backend, metric_hooks=()):
        ds, cfg = problem
        kw = dict(backend=backend, workers=2, metric_hooks=metric_hooks,
                  model_builder=lambda: make_mlp(32, 10, seed=0))
        model = make_mlp(32, 10, seed=0)
        if kind == "async":
            return AsyncFederatedSimulation(
                make_method("fedasync").algorithm, model, ds, cfg, **kw
            )
        engine = FederatedSimulation if kind == "sync" else SemiSyncFederatedSimulation
        return engine(make_method("fedavg").algorithm, model, ds, cfg, **kw)

    @pytest.mark.parametrize("passed", ("name", "instance"))
    @pytest.mark.parametrize("kind", ("sync", "semisync", "async"))
    def test_engine_reaps_workers_when_run_raises(self, problem, kind, passed):
        """A failed run must not leak the backend's fork pool — the engine
        binds and runs inside a close() guard, and closes the backend it
        ran on whether it built it from a name or was handed it."""

        def boom(ctx, round_idx, x, extras):
            raise RuntimeError("boom")

        backend = "process" if passed == "name" else ProcessPoolBackend(workers=2)
        sim = self._engine(kind, problem, backend, metric_hooks=[boom])
        before = {p.pid for p in mp.active_children()}
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert self._leaked(before) == set()
        if passed == "instance":
            assert backend._pool is None

    @pytest.mark.parametrize("kind", ("sync", "semisync", "async"))
    def test_engine_closes_passed_backend_and_runs_again(self, problem, kind):
        """A clean run closes the instance it was handed too; the next run
        binds it again and reproduces the first."""
        backend = ProcessPoolBackend(workers=2)
        sim = self._engine(kind, problem, backend)
        before = {p.pid for p in mp.active_children()}
        first = sim.run()
        first_params = sim.final_params.copy()
        assert backend._pool is None
        assert self._leaked(before) == set()
        second = sim.run()
        assert backend._pool is None
        assert_history_equal(second, first)
        np.testing.assert_array_equal(sim.final_params, first_params)


class TestStateVersioning:
    def _sim(self, ds, concurrency):
        algo = AsyncAdapter(
            make_method("scaffold").algorithm,
            make_method("fedbuff", buffer_size=2).algorithm,
        )
        return AsyncFederatedSimulation(
            algo, make_mlp(32, 10, seed=0), ds,
            FLConfig(rounds=3, participation=0.5, local_epochs=1, seed=0,
                     max_batches_per_round=2, eval_every=1, batch_size=10),
            latency_model=LognormalLatency(sigma=1.0),
            concurrency=concurrency,
        )

    @pytest.fixture(scope="class")
    def ds(self):
        return load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
            num_clients=6, seed=0, scale=0.3,
        )

    def test_oversubscription_is_observable(self, ds):
        """concurrency > clients forces concurrent self-dispatches: their
        commits land on state newer than their snapshot and are counted
        instead of silently last-writer-winning."""
        h = self._sim(ds, concurrency=9).run()
        assert h.records[-1].extras["state_stale_commits"] > 0
        # the counter is cumulative across windows
        counts = [r.extras["state_stale_commits"] for r in h.records]
        assert counts == sorted(counts)

    def test_no_oversubscription_no_stale_commits(self, ds):
        h = self._sim(ds, concurrency=2).run()
        assert h.records[-1].extras["state_stale_commits"] == 0

    def test_stateless_histories_keep_schema(self, ds):
        """The counter keys off the state store, so plain FedAsync extras
        are unchanged (pre-refactor histories stay bit-identical)."""
        sim = AsyncFederatedSimulation(
            make_method("fedasync").algorithm, make_mlp(32, 10, seed=0), ds,
            FLConfig(rounds=2, participation=0.5, local_epochs=1, seed=0,
                     max_batches_per_round=2, eval_every=1),
        )
        h = sim.run()
        assert all("state_stale_commits" not in r.extras for r in h.records)


class TestBufferEMA:
    def _run(self, buffer_ema, concurrency):
        ds = load_federated_dataset(
            "svhn-lite", imbalance_factor=0.3, beta=0.3, num_clients=6,
            seed=0, scale=0.2,
        )
        shape = ds.info.shape
        from repro.nn import build_model

        def mb():
            return build_model(
                "resnet-lite-18", in_channels=shape[0], image_size=shape[1],
                num_classes=ds.num_classes, width=2, seed=0, norm="batch",
            )

        sim = AsyncFederatedSimulation(
            make_method("fedbuff", buffer_size=2).algorithm, mb(), ds,
            FLConfig(rounds=2, participation=0.5, local_epochs=1, seed=0,
                     max_batches_per_round=2, eval_every=1, batch_size=10),
            latency_model=LognormalLatency(sigma=1.0),
            concurrency=concurrency,
            buffer_ema=buffer_ema,
        )
        sim.run()
        return sim

    def test_staleness_discount_changes_buffers_under_staleness(self):
        fixed = self._run("fixed", concurrency=6)
        disc = self._run("staleness", concurrency=6)
        # same parameter trajectory (buffers never enter the gradients) ...
        np.testing.assert_array_equal(fixed.final_params, disc.final_params)
        # ... but the buffer estimate blends stale arrivals more gently
        assert any(
            not np.array_equal(fixed.ctx.model.buffers[k], disc.ctx.model.buffers[k])
            for k in fixed.ctx.model.buffers
        )

    def test_modes_agree_at_zero_staleness(self):
        # concurrency 1 => tau == 0 for every arrival => identical blends
        fixed = self._run("fixed", concurrency=1)
        disc = self._run("staleness", concurrency=1)
        for k in fixed.ctx.model.buffers:
            np.testing.assert_array_equal(
                fixed.ctx.model.buffers[k], disc.ctx.model.buffers[k]
            )

    def test_invalid_mode_rejected(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3,
            num_clients=6, seed=0, scale=0.3,
        )
        with pytest.raises(ValueError, match="buffer_ema"):
            AsyncFederatedSimulation(
                make_method("fedasync").algorithm, make_mlp(32, 10, seed=0),
                ds, FLConfig(rounds=2), buffer_ema="adaptive",
            )


class TestParallelSweeps:
    def _base(self):
        return ExperimentSpec(
            method=MethodSpec(name="fedavg"),
            **dict(
                data=DataSpec(clients=6, scale=0.3, beta=0.3),
                config=FLConfig(rounds=2, participation=0.5, local_epochs=1,
                                batch_size=10, max_batches_per_round=2,
                                eval_every=1, seed=0),
            ),
        )

    GRID = {"method.name": ["fedavg", "fedcm"], "config.seed": [0, 1]}

    def test_serial_sweep_result_shape(self):
        result = run_sweep(self._base(), self.GRID)
        assert isinstance(result, SweepResult)
        assert len(result) == 4
        assert result.group_axes == ("method.name",)
        assert list(result.groups()) == [("fedavg",), ("fedcm",)]
        rows = result.aggregate()
        assert [r["method.name"] for r in rows] == ["fedavg", "fedcm"]
        assert all(r["n"] == 2 for r in rows)
        assert all(np.isfinite(r["final_mean"]) for r in rows)
        assert all(r["final_std"] >= 0.0 for r in rows)

    @pytest.mark.parametrize("backend", ("process", "remote"))
    def test_parallel_sweep_matches_serial(self, backend):
        """Same grouping keys, same per-group mean/std on a 2-axis grid
        including config.seed — the acceptance criterion.  A process sweep
        runs each point in a pool worker; any other backend name runs the
        points in-process (remote: no socket opens, the grid points'
        own runtime.backend stays auto)."""
        serial = run_sweep(self._base(), self.GRID)
        parallel = run_sweep(self._base(), self.GRID, backend=backend, workers=2)
        assert parallel.group_axes == serial.group_axes
        assert list(parallel.groups()) == list(serial.groups())
        assert parallel.aggregate() == serial.aggregate()
        for a, b in zip(parallel.results, serial.results):
            np.testing.assert_array_equal(
                a.history.accuracy, b.history.accuracy
            )
            np.testing.assert_array_equal(a.final_params, b.final_params)

    def test_unhashable_axis_values_group_cleanly(self):
        """kwargs-dict axes (unhashable) must not crash grouping after the
        whole grid has already been computed."""
        result = run_sweep(
            self._base().override("method.name", "fedcm"),
            {"method.kwargs": [{"alpha": 0.05}, {"alpha": 0.1}],
             "config.seed": [0, 1]},
        )
        assert len(result) == 4
        rows = result.aggregate()
        assert len(rows) == 2
        # rows report the original dict values, not a stringified key
        assert [r["method.kwargs"] for r in rows] == [
            {"alpha": 0.05}, {"alpha": 0.1}]
        assert all(r["n"] == 2 for r in rows)

    def test_empty_grid_single_point(self):
        result = run_sweep(self._base(), {})
        assert len(result) == 1
        assert result.assignments == [{}]
        assert result.aggregate()[0]["n"] == 1

    def test_keep_engines_requires_serial(self):
        with pytest.raises(ValueError, match="keep_engines"):
            run_sweep(self._base(), {"config.seed": [0, 1]},
                      backend="process", workers=2, keep_engines=True)
        # explicit serial: immune to a REPRO_BACKEND environment default
        result = run_sweep(self._base(), {}, backend="serial", keep_engines=True)
        assert result.results[0].engine is not None

    def test_keep_engines_refused_for_in_process_remote_sweep(self):
        """A remote-named sweep runs its points in this process, yet the
        refusal still names every backend but serial."""
        with pytest.raises(ValueError, match="keep_engines"):
            run_sweep(self._base(), {}, backend="remote", keep_engines=True)

    def test_explicit_process_backend_refused_inside_process_sweep(self):
        """A grid point asking for its own process pool inside a sweep's
        pool worker gets a ValueError naming the fix, not a traceback from
        multiprocessing (an implicit choice quietly runs serial there)."""
        spec = self._base().override_many([
            ("runtime.backend", "process"), ("runtime.workers", 2),
        ])
        with pytest.raises(ValueError, match="runtime.backend='auto'"):
            run_sweep(spec, {"config.seed": [0, 1]}, backend="process", workers=2)

    def test_sweep_cli_nested_process_backend_exits_2(self, capsys):
        rc = cli_main([
            "sweep", "--clients", "6", "--rounds", "1", "--scale", "0.3",
            "--max-batches", "2", "--grid", "config.seed=0,1",
            "--backend", "process", "--workers", "2",
            "--set", "runtime.backend=process", "--set", "runtime.workers=2",
        ])
        assert rc == 2
        assert "error: backend 'process' cannot run" in capsys.readouterr().err

    def test_sweep_cli_smoke(self, capsys):
        rc = cli_main([
            "sweep", "--clients", "6", "--rounds", "2", "--scale", "0.3",
            "--max-batches", "2", "--eval-every", "1",
            "--grid", "method.name=fedavg,fedcm", "--grid", "config.seed=0,1",
            "--backend", "process", "--workers", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "method.name" in out
        assert "fedavg" in out and "fedcm" in out
        assert "±" in out  # the aggregate table rendered

    def test_sweep_cli_bad_grid_exits_2(self, capsys):
        rc = cli_main(["sweep", "--grid", "method.name"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_cli_duplicate_axis_exits_2(self, capsys):
        rc = cli_main(["sweep", "--grid", "config.seed=0,1",
                       "--grid", "config.seed=2,3"])
        assert rc == 2
        assert "given twice" in capsys.readouterr().err
