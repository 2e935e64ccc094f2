"""Tests for the simulation engine, context and config."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from _population import one_sample_population
from repro.algorithms import FedAvg, FedCM, FedWCM, make_method
from repro.data import load_federated_dataset
from repro.data import registry as registry_mod
from repro.data.registry import FederatedDataset
from repro.nn import make_linear, make_mlp, make_resnet_lite
from repro.runtime import AsyncFederatedSimulation, LognormalLatency
from repro.simulation import FLConfig, FederatedSimulation, History, RoundRecord
from repro.simulation import context as context_mod
from repro.simulation.context import SimulationContext


@pytest.fixture(scope="module")
def ds():
    return load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.2, beta=0.3, num_clients=6, seed=0, scale=0.3
    )


class TestFLConfig:
    def test_defaults_match_paper(self):
        cfg = FLConfig()
        assert cfg.batch_size == 50
        assert cfg.local_epochs == 5
        assert cfg.lr_local == 0.1
        assert cfg.lr_global == 1.0
        assert cfg.participation == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"batch_size": 0},
            {"local_epochs": 0},
            {"lr_local": -1},
            {"lr_global": 0},
            {"participation": 0},
            {"participation": 1.5},
            {"eval_every": 0},
            {"max_batches_per_round": 0},
            {"seed": -3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FLConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 2.5},
            {"batch_size": 10.0},
            {"local_epochs": 1.5},
            {"eval_every": 2.5},
            {"max_batches_per_round": 1.5},
            {"seed": 1.5},
            {"rounds": True},
        ],
    )
    def test_counts_and_seed_must_be_integers(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            FLConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = FLConfig(rounds=np.int64(3), batch_size=np.int32(10),
                       max_batches_per_round=np.int64(2), seed=np.uint32(0))
        assert (cfg.rounds, cfg.batch_size, cfg.max_batches_per_round, cfg.seed) == (3, 10, 2, 0)
        assert type(cfg.rounds) is int and type(cfg.seed) is int


class TestContext:
    def _ctx(self, ds):
        model = make_mlp(32, 10, seed=0)
        return SimulationContext(model, ds, FLConfig(seed=1, participation=0.5))

    def test_client_xy_is_client_data(self, ds):
        ctx = self._ctx(ds)
        for k in range(ds.num_clients):
            want_x, want_y = ds.client_data(k)
            x, y = ctx.client_xy(k)
            np.testing.assert_array_equal(x, want_x)
            np.testing.assert_array_equal(y, want_y)
            np.testing.assert_array_equal(y, ds.y_train[ds.client_rows(k)])

    def test_sample_clients_deterministic(self, ds):
        ctx = self._ctx(ds)
        np.testing.assert_array_equal(ctx.sample_clients(3), ctx.sample_clients(3))
        # different rounds -> (almost surely) different cohorts at 50%
        all_same = all(
            np.array_equal(ctx.sample_clients(r), ctx.sample_clients(0)) for r in range(1, 6)
        )
        assert not all_same

    def test_sample_size(self, ds):
        # round(), not ceil: 0.75 of 6 is 4.5, which rounds half to even
        for participation, expected in [(0.5, 3), (0.75, 4), (0.25, 2)]:
            ctx = SimulationContext(
                make_mlp(32, 10, seed=0), ds, FLConfig(seed=1, participation=participation)
            )
            assert len(ctx.sample_clients(0)) == expected, participation

    def test_client_rng_independent_of_order(self, ds):
        ctx = self._ctx(ds)
        a = ctx.client_rng(2, 4).random()
        _ = ctx.client_rng(1, 1).random()
        b = ctx.client_rng(2, 4).random()
        assert a == b

    def test_load_params_roundtrip(self, ds):
        ctx = self._ctx(ds)
        x = ctx.x0.copy()
        x += 1.0
        ctx.load_params(x)
        from repro.utils import flatten_params

        flat, _ = flatten_params(ctx.model.params)
        np.testing.assert_allclose(flat, x)

    def test_nominal_batches(self, ds):
        ctx = self._ctx(ds)
        n_avg = len(ds.y_train) // 6
        per_epoch = int(np.ceil(n_avg / ctx.config.batch_size))
        assert ctx.nominal_batches() == per_epoch * ctx.config.local_epochs


def _fedasync(population: FederatedDataset, updates: int) -> AsyncFederatedSimulation:
    return AsyncFederatedSimulation(
        make_method("fedasync").algorithm, make_linear(16, 2, seed=0), population,
        FLConfig(rounds=1, participation=0.1, local_epochs=1, batch_size=10,
                 max_batches_per_round=1, eval_every=8, seed=0),
        latency_model=LognormalLatency(sigma=0.5, jitter=0.0),
        concurrency=256, max_updates=updates, backend="serial",
    )


class TestClientRows:
    """A client is its rows of the dataset: local SGD gathers its batches
    through them, and the context keeps nothing per client."""

    def _ctx(self, ds, layout):
        if layout == "one-sample":
            return SimulationContext(make_linear(16, 2, seed=0), one_sample_population(8),
                                     FLConfig(seed=1))
        return SimulationContext(make_mlp(32, 10, seed=0), ds, FLConfig(seed=1))

    @pytest.mark.parametrize("layout", ["one-sample", "multi-sample"])
    @pytest.mark.parametrize("outside", ["-1", "N"])
    def test_ids_outside_the_population_are_refused(self, ds, layout, outside):
        # -1 used to train the last client's data under id -1, and N to
        # fail on a bare list index
        ctx = self._ctx(ds, layout)
        n = ctx.num_clients
        k = n if outside == "N" else -1
        match = f"client id {k} out of range for {n} clients"
        with pytest.raises(IndexError, match=match):
            FedAvg().client_update(ctx, 0, k, ctx.x0)
        with pytest.raises(IndexError, match=match):
            ctx.client_xy(k)
        with pytest.raises(IndexError, match=match):
            ctx.sampler_for(k)

    @pytest.mark.parametrize("layout", ["one-sample", "multi-sample"])
    def test_numpy_integer_ids_are_accepted(self, ds, layout):
        ctx = self._ctx(ds, layout)
        want = FedAvg().client_update(ctx, 0, 3, ctx.x0)
        for k in (np.int64(3), np.int32(3), np.uint8(3)):
            got = FedAvg().client_update(ctx, 0, k, ctx.x0)
            np.testing.assert_array_equal(got.displacement, want.displacement)
            assert got.n_samples == want.n_samples == len(ctx.dataset.partitions[3])

    def test_local_sgd_never_copies_a_client(self, ds, monkeypatch):
        """Neither a fedasync run nor a sync FedWCM run reads a client's
        arrays whole."""
        calls = []
        client_data, client_xy = FederatedDataset.client_data, SimulationContext.client_xy

        def spy(real):
            def wrapped(self, k):
                calls.append((real.__name__, k))
                return real(self, k)
            return wrapped

        monkeypatch.setattr(FederatedDataset, "client_data", spy(client_data))
        monkeypatch.setattr(SimulationContext, "client_xy", spy(client_xy))
        assert _fedasync(one_sample_population(64), 200).run().records
        cfg = FLConfig(rounds=2, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=3)
        assert FederatedSimulation(FedWCM(), make_mlp(32, 10, seed=0), ds, cfg).run().records
        assert calls == []
        ctx = self._ctx(ds, "multi-sample")
        ctx.client_xy(2)  # the spies do see a whole-array read
        assert calls == [("client_xy", 2), ("client_data", 2)]

    def test_a_run_keeps_nothing_per_client(self):
        """Nothing the context or the dataset allocates during a 2k-client
        one-sample fedasync run survives it: no client copies, samplers,
        losses or dicts of them."""
        sim = _fedasync(one_sample_population(2_000), 1_000)
        tracemalloc.start()
        try:
            history = sim.run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert len({k for r in history.records for k in r.selected}) > 500
        kept = snapshot.filter_traces([
            tracemalloc.Filter(True, context_mod.__file__),
            tracemalloc.Filter(True, registry_mod.__file__),
        ]).statistics("lineno")
        # a freed tuple parked in an interpreter free list stays traced at
        # the line that first allocated it, so allow a few such bytes; a
        # cache keyed by client holds a block for each of the ~1,000
        # clients trained, or one dict of tens of KiB
        assert sum(s.count for s in kept) < 8 and sum(s.size for s in kept) < 1024, kept


class TestHistory:
    def _history(self, accs):
        h = History(algorithm="x")
        for i, a in enumerate(accs):
            h.records.append(RoundRecord(round=i, test_accuracy=a))
        return h

    def test_final_and_best(self):
        h = self._history([0.1, 0.5, 0.4])
        assert h.final_accuracy == 0.4
        assert h.best_accuracy == 0.5

    def test_nan_handling(self):
        h = self._history([0.1, float("nan"), 0.3])
        assert h.final_accuracy == 0.3
        assert h.best_accuracy == 0.3

    def test_rounds_to_accuracy(self):
        h = self._history([0.1, 0.2, 0.6, 0.7])
        assert h.rounds_to_accuracy(0.55) == 2
        assert h.rounds_to_accuracy(0.9) is None

    def test_tail_accuracy(self):
        h = self._history([0.0, 0.2, 0.4, 0.6])
        assert h.tail_accuracy(2) == pytest.approx(0.5)

    def test_empty(self):
        h = History(algorithm="x")
        assert np.isnan(h.final_accuracy)
        assert np.isnan(h.tail_accuracy())


class TestEngine:
    def test_eval_every(self, ds):
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=5, participation=0.5, local_epochs=1, eval_every=2,
                       seed=0, max_batches_per_round=2)
        h = FederatedSimulation(FedAvg(), model, ds, cfg).run()
        evaluated = [not np.isnan(r.test_accuracy) for r in h.records]
        assert evaluated == [True, False, True, False, True]  # 0, 2, 4 (+ last)

    def test_metric_hooks_called(self, ds):
        calls = []

        def hook(ctx, r, x, extras):
            calls.append(r)
            extras["probe"] = 1.0

        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=2, participation=0.5, local_epochs=1, eval_every=1,
                       seed=0, max_batches_per_round=2)
        h = FederatedSimulation(FedAvg(), model, ds, cfg, metric_hooks=[hook]).run()
        assert calls == [0, 1]
        assert h.records[0].extras["probe"] == 1.0

    def test_per_class_eval(self, ds):
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, eval_per_class=True,
                       seed=0, max_batches_per_round=2)
        h = FederatedSimulation(FedAvg(), model, ds, cfg).run()
        assert h.records[0].per_class_accuracy.shape == (10,)

    def test_selected_recorded(self, ds):
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=2)
        h = FederatedSimulation(FedAvg(), model, ds, cfg).run()
        assert len(h.records[0].selected) == 3

    def test_final_params_exposed(self, ds):
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=2)
        sim = FederatedSimulation(FedAvg(), model, ds, cfg)
        sim.run()
        assert sim.final_params.shape == (sim.ctx.dim,)

    def test_batchnorm_buffers_averaged(self):
        # engine must reset per-client buffers and average them server-side
        ds = load_federated_dataset(
            "cifar10-lite", imbalance_factor=0.5, beta=0.5, num_clients=4, seed=0, scale=0.15
        )
        model = make_resnet_lite(3, 8, 10, depth="micro", width=4, seed=0, norm="batch")
        buf_before = {k: v.copy() for k, v in model.buffers.items()}
        cfg = FLConfig(rounds=2, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=2)
        FederatedSimulation(FedAvg(), model, ds, cfg).run()
        changed = any(
            not np.allclose(model.buffers[k], buf_before[k]) for k in buf_before
        )
        assert changed

    def test_history_algorithm_name(self, ds):
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0,
                       max_batches_per_round=1)
        h = FederatedSimulation(FedCM(), model, ds, cfg).run()
        assert h.algorithm == "fedcm"
