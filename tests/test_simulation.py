"""Tests for the simulation engine, context and config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FedAvg, FedCM
from repro.data import load_federated_dataset
from repro.nn import make_mlp, make_resnet_lite
from repro.simulation import FLConfig, FederatedSimulation, History, RoundRecord
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

    def test_client_xy_cached(self, ds):
        ctx = self._ctx(ds)
        x1, y1 = ctx.client_xy(0)
        x2, y2 = ctx.client_xy(0)
        assert x1 is x2

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
