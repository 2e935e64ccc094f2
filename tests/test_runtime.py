"""Tests for the event-driven asynchronous runtime (repro.runtime)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import FedAsync, FedAvg, FedBuff, FedCM, make_method
from repro.cli import main as cli_main
from repro.data import load_federated_dataset
from repro.nn import make_mlp
from repro.parallel import resolve_workers
from repro.runtime import (
    AsyncFederatedSimulation,
    ConstantLatency,
    DropoutRetryLatency,
    LognormalLatency,
    ParetoLatency,
    SemiSyncFederatedSimulation,
    VirtualClock,
    make_latency_model,
)
from repro.simulation import (
    CommunicationModel,
    FederatedSimulation,
    FLConfig,
    History,
    TimedRoundRecord,
    load_history,
    save_history,
)
from repro.simulation.context import SimulationContext


@pytest.fixture(scope="module")
def ds():
    return load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3, num_clients=6, seed=0, scale=0.3
    )


def _model_builder():
    return make_mlp(32, 10, seed=0)


def _tiny_cfg(**kw):
    base = dict(rounds=4, participation=0.5, local_epochs=1, seed=0,
                max_batches_per_round=3, eval_every=2, batch_size=10)
    base.update(kw)
    return FLConfig(**base)


class TestVirtualClock:
    def test_pop_order_and_now(self):
        clock = VirtualClock()
        clock.schedule(3.0, client_id=1)
        clock.schedule(1.0, client_id=2)
        clock.schedule(2.0, client_id=3)
        order = [clock.pop().client_id for _ in range(3)]
        assert order == [2, 3, 1]
        assert clock.now == 3.0

    def test_ties_break_in_schedule_order(self):
        clock = VirtualClock()
        for cid in (7, 8, 9):
            clock.schedule(1.0, client_id=cid)
        assert [clock.pop().client_id for _ in range(3)] == [7, 8, 9]

    def test_schedule_relative_to_now(self):
        clock = VirtualClock()
        clock.schedule(1.0, client_id=0)
        clock.pop()
        ev = clock.schedule(0.5, client_id=1)
        assert ev.time == pytest.approx(1.5)

    def test_invalid_delay(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.schedule(-1.0)
        with pytest.raises(ValueError):
            clock.schedule(float("inf"))

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            VirtualClock().pop()


class TestLatencyModels:
    def _ctx(self, ds):
        return SimulationContext(_model_builder(), ds, _tiny_cfg())

    def test_requires_bind(self, ds):
        with pytest.raises(RuntimeError):
            ConstantLatency().latency(0, 0)

    def test_constant_prices_data_size(self, ds):
        ctx = self._ctx(ds)
        lat = ConstantLatency().bind(ctx)
        vals = np.array([lat.latency(k, 0) for k in range(ds.num_clients)])
        assert (vals > 0).all()
        # repeat dispatches cost the same under the constant model
        assert lat.latency(0, 0) == lat.latency(0, 5)

    def test_deterministic_across_instances(self, ds):
        ctx = self._ctx(ds)
        a = LognormalLatency(sigma=1.0).bind(ctx)
        b = LognormalLatency(sigma=1.0).bind(ctx)
        for k in range(ds.num_clients):
            assert a.latency(k, 3) == b.latency(k, 3)

    def test_lognormal_device_heterogeneity(self, ds):
        ctx = self._ctx(ds)
        lat = LognormalLatency(sigma=1.0, jitter=0.0).bind(ctx)
        factors = {round(lat.factor(k, 0), 12) for k in range(ds.num_clients)}
        assert len(factors) > 1  # persistent per-device speeds differ

    def test_pareto_heavy_tail(self, ds):
        ctx = self._ctx(ds)
        lat = ParetoLatency(alpha=1.1).bind(ctx)
        factors = [lat.factor(0, i) for i in range(200)]
        assert min(factors) >= 1.0
        assert max(factors) > 5.0  # stragglers exist

    def test_dropout_retry_adds_cost(self, ds):
        ctx = self._ctx(ds)
        inner = ConstantLatency().bind(ctx)
        drop = DropoutRetryLatency(inner="constant", p_drop=0.9, max_retries=3).bind(ctx)
        base = inner.latency(0, 0)
        costs = [drop.latency(0, i) for i in range(50)]
        assert all(c >= base for c in costs)
        assert max(costs) > base  # at least one retry happened

    def test_registry(self):
        assert type(make_latency_model("lognormal")) is LognormalLatency
        with pytest.raises(KeyError):
            make_latency_model("warp-drive")

    def test_rebind_follows_new_seed(self, ds):
        lat = LognormalLatency(sigma=1.0)
        lat.bind(SimulationContext(_model_builder(), ds, _tiny_cfg(seed=0)))
        f0 = lat.factor(0, 0)
        lat.bind(SimulationContext(_model_builder(), ds, _tiny_cfg(seed=1)))
        assert lat.factor(0, 0) != f0
        # an explicit seed survives binding
        lat2 = LognormalLatency(sigma=1.0, seed=123)
        lat2.bind(SimulationContext(_model_builder(), ds, _tiny_cfg(seed=0)))
        assert lat2.seed == 123


class TestAsyncAlgorithms:
    def test_registry_and_comm_profiles(self):
        assert make_method("fedasync").algorithm.name == "fedasync"
        assert make_method("fedbuff", buffer_size=2).algorithm.buffer_size == 2
        cm = CommunicationModel(num_params=100, clients_per_round=4)
        for m in ("fedasync", "fedbuff"):
            assert cm.estimate(m, rounds=3).total > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FedAsync(mixing=0.0)
        with pytest.raises(ValueError):
            FedAsync(staleness_exponent=-1.0)
        with pytest.raises(ValueError):
            FedBuff(buffer_size=0)

    def test_staleness_discount_monotone(self):
        algo = FedAsync(staleness_exponent=0.5)
        w = [algo.staleness_weight(t) for t in range(5)]
        assert w[0] == 1.0
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_sync_fallback_runs_in_plain_engine(self, ds):
        cfg = _tiny_cfg()
        sim = FederatedSimulation(FedBuff(buffer_size=3), _model_builder(), ds, cfg)
        h = sim.run()
        assert len(h.records) == cfg.rounds

    def test_requires_server_apply(self, ds):
        with pytest.raises(TypeError):
            AsyncFederatedSimulation(FedAvg(), _model_builder(), ds, _tiny_cfg())

    @pytest.mark.parametrize("kwargs", [{"concurrency": 2.5}, {"max_updates": 7.5}])
    def test_counts_must_be_integers(self, ds, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            AsyncFederatedSimulation(FedAsync(), _model_builder(), ds, _tiny_cfg(), **kwargs)


class TestAsyncEngine:
    def _run(self, ds, algo, workers=None, **kw):
        sim = AsyncFederatedSimulation(
            algo, _model_builder(), ds, _tiny_cfg(),
            latency_model=LognormalLatency(sigma=1.0),
            workers=workers, model_builder=_model_builder, **kw,
        )
        return sim, sim.run()

    def test_history_shape_and_timing(self, ds):
        sim, h = self._run(ds, FedAsync())
        assert len(h.records) == 4  # rounds windows
        assert all(isinstance(r, TimedRoundRecord) for r in h.records)
        times = [r.virtual_time for r in h.records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert sim.total_virtual_time == times[-1]
        assert not np.isnan(h.final_accuracy)

    def test_same_seed_same_schedule(self, ds):
        _, h1 = self._run(ds, FedAsync())
        _, h2 = self._run(ds, FedAsync())
        assert [r.virtual_time for r in h1.records] == [r.virtual_time for r in h2.records]
        assert [r.staleness for r in h1.records] == [r.staleness for r in h2.records]

    @pytest.mark.parametrize("algo_builder", [FedAsync, lambda: FedBuff(buffer_size=3)])
    def test_workers_do_not_change_results(self, ds, algo_builder):
        """Same seed => identical event order, history and final parameters
        for workers=1 vs workers=4 (mirrors tests/test_parallel.py)."""
        sim1, h1 = self._run(ds, algo_builder())
        sim4, h4 = self._run(ds, algo_builder(), workers=4, algo_builder=algo_builder)
        np.testing.assert_array_equal(sim1.final_params, sim4.final_params)
        assert [r.virtual_time for r in h1.records] == [r.virtual_time for r in h4.records]
        assert [r.staleness for r in h1.records] == [r.staleness for r in h4.records]
        for r1, r4 in zip(h1.records, h4.records):
            np.testing.assert_array_equal(r1.selected, r4.selected)
            if not np.isnan(r1.test_accuracy):
                assert r1.test_accuracy == r4.test_accuracy

    @pytest.mark.filterwarnings("ignore:model has BatchNorm")
    def test_workers_invariance_with_batchnorm_buffers(self):
        """Buffered (BatchNorm) models: workers reset to the initial buffers
        per job, so results stay bit-identical across worker counts."""
        from repro.nn import build_model

        ds_img = load_federated_dataset(
            "svhn-lite", imbalance_factor=0.3, beta=0.3, num_clients=6, seed=0, scale=0.2
        )
        shape = ds_img.info.shape

        def mb():
            return build_model(
                "resnet-lite-18", in_channels=shape[0], image_size=shape[1],
                num_classes=ds_img.num_classes, width=2, seed=0, norm="batch",
            )

        assert mb().buffers  # the point of the test
        cfg = FLConfig(rounds=2, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=2, eval_every=1, batch_size=10)
        finals = {}
        for w in (1, 4):
            sim = AsyncFederatedSimulation(
                FedBuff(buffer_size=3), mb(), ds_img, cfg,
                latency_model=LognormalLatency(sigma=1.0),
                workers=w, model_builder=mb,
                algo_builder=lambda: FedBuff(buffer_size=3),
            )
            sim.run()
            finals[w] = sim.final_params
        np.testing.assert_array_equal(finals[1], finals[4])

    def test_fedbuff_applies_every_k(self, ds):
        sim, h = self._run(ds, FedBuff(buffer_size=3))
        # 4 windows x 3 updates = 12 arrivals; K=3 => 4 server steps
        assert h.records[-1].updates_applied == 4

    def test_staleness_grows_with_concurrency(self, ds):
        _, h_lo = self._run(ds, FedAsync(), concurrency=1)
        _, h_hi = self._run(ds, FedAsync(), concurrency=6)
        assert np.mean([r.staleness for r in h_lo.records]) == 0.0
        assert np.mean([r.staleness for r in h_hi.records]) > 0.0

    def test_lr_schedule_evaluated_per_window(self, ds):
        """The dispatch-seq round index must not distort lr schedules."""
        cfg = _tiny_cfg(lr_schedule=lambda r: 0.5 ** r)
        sim = AsyncFederatedSimulation(
            FedAsync(), _model_builder(), ds, cfg, latency_model=ConstantLatency()
        )
        sched = sim.ctx.config.lr_schedule
        w = sim.window
        # every dispatch within window i sees the base schedule's value at i
        assert sched(0) == 1.0
        assert sched(w - 1) == 1.0
        assert sched(w) == 0.5
        assert sched(3 * w) == 0.5 ** 3

    def test_batchnorm_buffers_tracked_on_every_backend(self):
        """The server-side EMA over arriving clients' BatchNorm statistics
        runs on every backend: buffers ride the job contract, so worker
        pools no longer freeze them (the PR-4 restriction is lifted) and
        the recorded accuracies match the serial run exactly."""
        import warnings as warnings_mod

        from repro.nn import build_model

        ds_img = load_federated_dataset(
            "svhn-lite", imbalance_factor=0.3, beta=0.3, num_clients=6, seed=0, scale=0.2
        )
        shape = ds_img.info.shape

        def mb():
            return build_model(
                "resnet-lite-18", in_channels=shape[0], image_size=shape[1],
                num_classes=ds_img.num_classes, width=2, seed=0, norm="batch",
            )

        buffers = {}
        accs = {}
        for workers in (None, 2):
            with warnings_mod.catch_warnings(record=True) as caught:
                warnings_mod.simplefilter("always")
                sim = AsyncFederatedSimulation(
                    FedAsync(), mb(), ds_img, _tiny_cfg(),
                    latency_model=ConstantLatency(),
                    workers=workers, model_builder=mb, algo_builder=FedAsync,
                )
                assert not caught  # no frozen-buffer warning anywhere
            buf0 = {k: v.copy() for k, v in sim.ctx.model.buffers.items()}
            h = sim.run()
            buffers[workers] = {k: v.copy() for k, v in sim.ctx.model.buffers.items()}
            accs[workers] = h.accuracy
            moved = any(
                not np.array_equal(buffers[workers][k], buf0[k]) for k in buf0
            )
            assert moved  # eval used the EMA estimate, not the initial buffers
        for k in buffers[None]:
            np.testing.assert_array_equal(buffers[None][k], buffers[2][k])
        np.testing.assert_array_equal(accs[None], accs[2])

    def test_default_algo_builder_warns_on_config_mismatch(self, ds):
        """workers>1 replicas default to type(algo)(); non-default
        hyperparameters must be flagged unless the algorithm whitelists
        them as server-side (replica_safe_hyperparams)."""
        import warnings

        class ProxAsync(FedAsync):
            def __init__(self, prox: float = 0.0):
                super().__init__()
                self.prox = prox  # pretend-client-side knob, not whitelisted

        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            AsyncFederatedSimulation(
                ProxAsync(prox=0.1), _model_builder(), ds, _tiny_cfg(),
                workers=2, model_builder=_model_builder,
            )
            assert any("prox" in str(x.message) for x in w)
        # whitelisted server-side knobs (FedAsync.mixing) stay silent, and
        # an explicit algo_builder always silences the check
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            AsyncFederatedSimulation(
                FedAsync(mixing=0.9), _model_builder(), ds, _tiny_cfg(),
                workers=2, model_builder=_model_builder,
            )
            AsyncFederatedSimulation(
                ProxAsync(prox=0.1), _model_builder(), ds, _tiny_cfg(),
                workers=2, model_builder=_model_builder,
                algo_builder=lambda: ProxAsync(prox=0.1),
            )
            assert not w

    def test_time_to_accuracy(self, ds):
        _, h = self._run(ds, FedAsync())
        tta = h.time_to_accuracy(0.0)
        assert tta is not None and tta > 0
        assert h.time_to_accuracy(2.0) is None


class TestAcceptanceMiniature:
    """Async reaches sync-level accuracy in less simulated time (ISSUE 1)."""

    def test_async_matches_sync_accuracy_faster(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.1, beta=0.3,
            num_clients=20, seed=0, scale=0.4,
        )
        cfg = FLConfig(rounds=30, participation=0.25, local_epochs=1, seed=0,
                       max_batches_per_round=6, eval_every=5, batch_size=10)
        lat = lambda: LognormalLatency(sigma=1.0)  # noqa: E731

        sync = SemiSyncFederatedSimulation(
            FedAvg(), make_mlp(32, 10, seed=0), ds, cfg, latency_model=lat()
        )
        h_sync = sync.run()

        for algo in (FedAsync(mixing=0.9), FedBuff(buffer_size=3)):
            asim = AsyncFederatedSimulation(
                algo, make_mlp(32, 10, seed=0), ds, cfg, latency_model=lat()
            )
            h = asim.run()
            # within 2 accuracy points of the synchronous FedAvg baseline...
            assert h.final_accuracy >= h_sync.final_accuracy - 0.02, algo.name
            # ...in less simulated wall-clock time than the straggler-blocked run
            assert asim.total_virtual_time < sync.total_virtual_time, algo.name


class TestSemiSync:
    def test_no_deadline_matches_sync_engine_exactly(self, ds):
        """deadline=None is the synchronous engine plus a virtual clock."""
        for method in ("fedavg", "fedcm"):
            cfg = _tiny_cfg()
            plain = FederatedSimulation(
                make_method(method).algorithm, _model_builder(), ds, cfg
            )
            hp = plain.run()
            semi = SemiSyncFederatedSimulation(
                make_method(method).algorithm, _model_builder(), ds, cfg,
                latency_model=LognormalLatency(sigma=1.0),
            )
            hs = semi.run()
            np.testing.assert_array_equal(plain.final_params, semi.final_params)
            np.testing.assert_array_equal(hp.accuracy, hs.accuracy)
            assert semi.total_virtual_time > 0

    def test_deadline_drops_late_clients(self, ds):
        cfg = _tiny_cfg()
        semi = SemiSyncFederatedSimulation(
            FedAvg(), _model_builder(), ds, cfg,
            latency_model=ParetoLatency(alpha=1.1), deadline=1e-3,
        )
        h = semi.run()
        dropped = sum(r.extras["n_dropped"] for r in h.records)
        assert dropped > 0
        # at least the fastest client is always kept
        assert all(len(r.selected) >= 1 for r in h.records)
        # when every client misses the deadline the round waits for the
        # kept (fastest) client, so virtual time overruns rounds * deadline
        assert semi.total_virtual_time > cfg.rounds * 1e-3

    def test_late_weight_downweights_instead_of_dropping(self, ds):
        cfg = _tiny_cfg()
        semi = SemiSyncFederatedSimulation(
            FedCM(alpha=0.1), _model_builder(), ds, cfg,
            latency_model=ParetoLatency(alpha=1.1), deadline=1e-3, late_weight=0.5,
        )
        h = semi.run()
        assert sum(r.extras["n_dropped"] for r in h.records) == 0
        assert sum(r.extras["n_late"] for r in h.records) > 0
        assert not np.isnan(h.final_accuracy)


class TestHistorySchemaV2:
    def test_timed_records_round_trip(self, tmp_path, ds):
        sim = AsyncFederatedSimulation(
            FedAsync(), _model_builder(), ds, _tiny_cfg(),
            latency_model=LognormalLatency(),
        )
        h = sim.run()
        h.records[0].extras["vec"] = np.array([1.5, np.nan, np.inf])
        h.records[0].extras["nested"] = {"a": [1, 2.5], "b": float("nan")}
        path = str(tmp_path / "h.json")
        save_history(path, h)
        h2 = load_history(path)
        assert isinstance(h2.records[0], TimedRoundRecord)
        for r, r2 in zip(h.records, h2.records):
            assert r2.virtual_time == r.virtual_time
            assert r2.staleness == r.staleness
            assert r2.concurrency == r.concurrency
            assert r2.updates_applied == r.updates_applied
        vec = h2.records[0].extras["vec"]
        np.testing.assert_array_equal(vec, np.array([1.5, np.nan, np.inf]))
        assert h2.records[0].extras["nested"]["a"] == [1, 2.5]
        assert np.isnan(h2.records[0].extras["nested"]["b"])

    def test_schema_key_written(self, tmp_path):
        h = History(algorithm="fedavg")
        h.records.append(TimedRoundRecord(round=0, test_accuracy=0.5, virtual_time=1.0))
        path = str(tmp_path / "h.json")
        save_history(path, h)
        with open(path) as f:
            payload = json.load(f)
        assert payload["schema"] == 2
        assert payload["records"][0]["kind"] == "timed"

    def test_v1_files_still_load(self, tmp_path):
        payload = {
            "algorithm": "fedavg",
            "records": [
                {
                    "round": 0,
                    "test_accuracy": 0.4,
                    "test_loss": None,
                    "wall_time": 0.1,
                    "selected": [0, 2],
                    "per_class_accuracy": [0.5, None],
                    "extras": {"alpha": 0.3},
                }
            ],
        }
        path = str(tmp_path / "v1.json")
        with open(path, "w") as f:
            json.dump(payload, f)
        h = load_history(path)
        assert type(h.records[0]).__name__ == "RoundRecord"
        assert h.records[0].test_accuracy == 0.4
        assert np.isnan(h.records[0].test_loss)
        assert h.records[0].extras == {"alpha": 0.3}


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert resolve_workers() == 3

    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert 1 <= resolve_workers() <= 8

    def test_invalid(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_workers(0)
        for bad in (1.5, 2.0, True):
            with pytest.raises(ValueError, match="workers must be an integer"):
                resolve_workers(bad)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "zero")
        with pytest.raises(ValueError):
            resolve_workers()
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers()


class TestRuntimeCLI:
    def test_runtime_subcommand_smoke(self, tmp_path, capsys):
        hist = str(tmp_path / "h.json")
        ckpt = str(tmp_path / "c.npz")
        rc = cli_main([
            "runtime", "--algorithm", "fedbuff", "--clients", "6", "--rounds", "2",
            "--max-batches", "2", "--eval-every", "1", "--buffer-size", "2",
            "--latency", "lognormal", "--target-accuracy", "0.05",
            "--save-history", hist, "--save-checkpoint", ckpt,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total virtual time" in out
        h = load_history(hist)
        assert isinstance(h.records[0], TimedRoundRecord)

    def test_runtime_semisync_smoke(self):
        rc = cli_main([
            "runtime", "--algorithm", "semisync", "--base-method", "fedavg",
            "--clients", "6", "--rounds", "2", "--max-batches", "2",
            "--eval-every", "1", "--deadline", "0.5", "--latency", "pareto",
        ])
        assert rc == 0
