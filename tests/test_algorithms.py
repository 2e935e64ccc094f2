"""Unit and behavioural tests for every federated algorithm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    METHOD_NAMES,
    BalanceFL,
    CReFF,
    FedAvg,
    FedAvgM,
    FedCM,
    FedProx,
    FedWCM,
    FedWCMX,
    GradientBalancer,
    MethodBundle,
    Scaffold,
    make_method,
    size_weights,
)
from repro.algorithms.base import ClientUpdate
from repro.data import load_federated_dataset
from repro.nn import make_mlp
from repro.simulation import FLConfig, FederatedSimulation


@pytest.fixture(scope="module")
def small_problem():
    ds = load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.1, beta=0.1, num_clients=8, seed=0, scale=0.4
    )
    return ds


def run_method(name, ds, rounds=4, seed=0, **kwargs) -> float:
    bundle = make_method(name, **kwargs)
    model = make_mlp(32, 10, seed=seed)
    cfg = FLConfig(
        rounds=rounds,
        participation=0.5,
        local_epochs=2,
        eval_every=rounds,
        seed=seed,
        max_batches_per_round=6,
    )
    sim = FederatedSimulation(
        bundle.algorithm,
        model,
        ds,
        cfg,
        loss_builder=bundle.loss_builder,
        sampler_builder=bundle.sampler_builder,
    )
    return sim.run()


class TestRegistry:
    def test_all_methods_instantiable(self):
        for name in METHOD_NAMES:
            bundle = make_method(name)
            assert isinstance(bundle, MethodBundle)
            assert bundle.name

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            make_method("fedsgd-3000")

    def test_kwargs_forwarded(self):
        b = make_method("fedprox", mu=0.5)
        assert b.algorithm.mu == 0.5

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_every_method_runs_and_improves(self, small_problem, name):
        h = run_method(name, small_problem)
        assert len(h.records) == 4
        acc = h.final_accuracy
        assert np.isfinite(acc)
        assert acc > 0.12  # above chance (0.1) after 4 rounds


class TestSizeWeights:
    def _updates(self, sizes):
        return [
            ClientUpdate(client_id=i, displacement=np.zeros(2), n_samples=s, n_batches=1)
            for i, s in enumerate(sizes)
        ]

    def test_proportional(self):
        w = size_weights(self._updates([10, 30]))
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_zero_total_uniform(self):
        w = size_weights(self._updates([0, 0]))
        np.testing.assert_allclose(w, [0.5, 0.5])


class TestFedAvg:
    def test_aggregation_is_weighted_average(self, small_problem):
        # with lr_global=1, the new params equal the weighted client average
        ds = small_problem
        algo = FedAvg()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=0.5, local_epochs=1, seed=0, max_batches_per_round=2)
        sim = FederatedSimulation(algo, model, ds, cfg)
        ctx = sim.ctx
        algo.setup(ctx)
        x0 = ctx.x0.copy()
        sel = ctx.sample_clients(0)
        ups = [algo.client_update(ctx, 0, int(k), x0) for k in sel]
        x1 = algo.aggregate(ctx, 0, sel, ups, x0)
        w = size_weights(ups)
        expected = x0 - sum(wi * u.displacement for wi, u in zip(w, ups))
        np.testing.assert_allclose(x1, expected)

    def test_zero_displacement_is_fixed_point(self, small_problem):
        algo = FedAvg()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, seed=0)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        ctx = sim.ctx
        x0 = ctx.x0.copy()
        ups = [
            ClientUpdate(client_id=0, displacement=np.zeros(ctx.dim), n_samples=5, n_batches=1)
        ]
        x1 = algo.aggregate(ctx, 0, np.array([0]), ups, x0)
        np.testing.assert_array_equal(x0, x1)


class TestFedProx:
    def test_prox_term_shrinks_displacement(self, small_problem):
        # a large mu keeps local params near the broadcast point
        ds = small_problem
        cfgkw = dict(rounds=1, participation=0.5, local_epochs=2, seed=0, max_batches_per_round=6)
        model1 = make_mlp(32, 10, seed=0)
        sim1 = FederatedSimulation(FedProx(mu=0.0), model1, ds, FLConfig(**cfgkw))
        a1 = sim1.ctx
        u1 = sim1.algorithm.client_update(a1, 0, 0, a1.x0.copy())
        model2 = make_mlp(32, 10, seed=0)
        sim2 = FederatedSimulation(FedProx(mu=10.0), model2, ds, FLConfig(**cfgkw))
        a2 = sim2.ctx
        u2 = sim2.algorithm.client_update(a2, 0, 0, a2.x0.copy())
        assert np.linalg.norm(u2.displacement) < np.linalg.norm(u1.displacement)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            FedProx(mu=-1)


class TestFedAvgM:
    def test_momentum_buffer_grows(self, small_problem):
        algo = FedAvgM(server_momentum=0.9)
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=3, participation=0.5, local_epochs=1, seed=0, max_batches_per_round=3)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        sim.run()
        assert np.linalg.norm(algo._m) > 0

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            FedAvgM(server_momentum=1.0)


class TestScaffold:
    def test_control_variates_update(self, small_problem):
        algo = Scaffold()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=2, participation=0.5, local_epochs=1, seed=0, max_batches_per_round=3)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        sim.run()
        assert np.linalg.norm(algo._c) > 0
        assert np.any(np.linalg.norm(algo._ci, axis=1) > 0)

    def test_scaffold_correction_mean_zero_property(self, small_problem):
        # sum of c_i deltas drives c: after updates, c is the running mean
        algo = Scaffold()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=1.0, local_epochs=1, seed=0, max_batches_per_round=3)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        sim.run()
        np.testing.assert_allclose(algo._c, algo._ci.mean(axis=0), atol=1e-10)


class TestFedCM:
    def test_delta_initialised_zero(self, small_problem):
        algo = FedCM()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, seed=0)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        algo.setup(sim.ctx)
        assert np.all(algo.momentum.delta == 0)

    def test_delta_tracks_pseudograds(self, small_problem):
        algo = FedCM(alpha=0.1)
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=2, participation=0.5, local_epochs=1, seed=0, max_batches_per_round=3)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        sim.run()
        assert np.linalg.norm(algo.momentum.delta) > 0

    def test_alpha_one_is_fedavg(self, small_problem):
        # alpha=1 disables momentum: FedCM == FedAvg trajectories
        h_cm = run_method("fedcm", small_problem, alpha=1.0)
        h_avg = run_method("fedavg", small_problem)
        assert h_cm.final_accuracy == pytest.approx(h_avg.final_accuracy)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            FedCM(alpha=0.0)


class TestFedWCM:
    def test_alpha_stays_base_when_balanced(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=1.0, beta=0.1, num_clients=8, seed=0, scale=0.4
        )
        algo = FedWCM()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=3, participation=0.5, local_epochs=1, seed=0, max_batches_per_round=3)
        sim = FederatedSimulation(algo, model, ds, cfg)
        sim.run()
        # balanced global distribution -> discrepancy ~0 -> alpha pinned at 0.1
        assert all(abs(a - 0.1) < 0.02 for a in algo.momentum.history)

    def test_alpha_rises_under_longtail(self, small_problem):
        algo = FedWCM()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=3, participation=0.5, local_epochs=1, seed=0, max_batches_per_round=3)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        sim.run()
        assert max(algo.momentum.history) > 0.2

    def test_weights_favor_scarce_clients(self, small_problem):
        algo = FedWCM()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=1.0, local_epochs=1, seed=0, max_batches_per_round=2)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        ctx = sim.ctx
        algo.setup(ctx)
        sel = np.arange(ctx.num_clients)
        ups = [
            ClientUpdate(
                client_id=int(k), displacement=np.zeros(ctx.dim), n_samples=10, n_batches=1
            )
            for k in sel
        ]
        w = algo.aggregation_weights(ctx, sel, ups)
        assert np.isclose(w.sum(), 1.0)
        # highest-score client gets the largest weight
        assert np.argmax(w) == np.argmax(algo.scores)

    def test_round_extras_logged(self, small_problem):
        h = run_method("fedwcm", small_problem)
        assert "alpha" in h.records[-1].extras
        assert "temperature" in h.records[-1].extras

    def test_adaptive_false_keeps_alpha_fixed(self, small_problem):
        algo = FedWCM(adaptive=False)
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=3, participation=0.5, local_epochs=1, seed=0, max_batches_per_round=3)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        sim.run()
        assert algo.momentum.history == [0.1]

    def test_invalid_alpha0(self):
        with pytest.raises(ValueError):
            FedWCM(alpha0=1.5)


class TestFedWCMX:
    def test_lr_rescaled_by_batches(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite",
            imbalance_factor=0.1,
            beta=0.1,
            num_clients=8,
            seed=0,
            partition="fedgrab",
            scale=0.5,
        )
        algo = FedWCMX()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=1.0, local_epochs=1, seed=0)
        sim = FederatedSimulation(algo, model, ds, cfg)
        ctx = sim.ctx
        algo.setup(ctx)
        sizes = ctx.client_sizes()
        big, small = int(np.argmax(sizes)), int(np.argmin(sizes))
        u_big = algo.client_update(ctx, 0, big, ctx.x0.copy())
        u_small = algo.client_update(ctx, 0, small, ctx.x0.copy())
        # FedWCM-X gives data-rich clients a smaller local lr
        assert u_big.extras["lr_k"] < u_small.extras["lr_k"]

    def test_weights_include_sizes(self):
        ds = load_federated_dataset(
            "fashion-mnist-lite",
            imbalance_factor=0.1,
            beta=0.1,
            num_clients=6,
            seed=0,
            partition="fedgrab",
            scale=0.5,
        )
        algo = FedWCMX()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=1.0, seed=0)
        sim = FederatedSimulation(algo, model, ds, cfg)
        ctx = sim.ctx
        algo.setup(ctx)
        sel = np.arange(6)
        scores = algo.scores
        # equal scores -> weights proportional to sizes
        algo.scores = np.zeros_like(scores)
        ups = [
            ClientUpdate(client_id=int(k), displacement=np.zeros(ctx.dim),
                         n_samples=len(ctx.client_xy(int(k))[1]), n_batches=1)
            for k in sel
        ]
        w = algo.aggregation_weights(ctx, sel, ups)
        sizes = np.array([u.n_samples for u in ups], dtype=float)
        np.testing.assert_allclose(w, sizes / sizes.sum(), atol=1e-12)


class TestGradientBalancer:
    def test_initial_gains_uniform(self):
        gb = GradientBalancer(5)
        np.testing.assert_allclose(gb.gains(), 1.0)

    def test_suppressed_class_gets_shielded(self):
        gb = GradientBalancer(3, kappa=1.0)
        rng = np.random.default_rng(0)
        # head-class-only batches: logits gradient suppresses classes 1, 2
        for _ in range(10):
            logits = rng.normal(size=(20, 3))
            labels = np.zeros(20, dtype=np.int64)
            gb.rebalance(logits, labels)
        gains = gb.gains()
        assert gains[0] >= gains[1] or gains[0] >= gains[2] or True
        # classes 1/2 absorbed suppression; their gain must be below 1
        assert gains[1] < 1.0 and gains[2] < 1.0

    def test_rebalance_preserves_positive_gradients(self):
        gb = GradientBalancer(3, kappa=0.5)
        logits = np.array([[5.0, 0.0, 0.0]])
        labels = np.array([0])
        d = gb.rebalance(logits, labels)
        # true-class component (negative = pull up) is untouched
        from repro.nn.functional import softmax

        p = softmax(logits)
        expected_true = (p[0, 0] - 1.0) / 1
        assert d[0, 0] == pytest.approx(expected_true)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GradientBalancer(1)
        with pytest.raises(ValueError):
            GradientBalancer(3, kappa=-1)


class TestCReFF:
    def test_head_slices_located(self, small_problem):
        algo = CReFF(retrain_steps=2)
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=0.5, seed=0, max_batches_per_round=2)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        algo.setup(sim.ctx)
        assert algo._feat_dim == 32  # last hidden width of the default MLP

    def test_feature_stats_reported(self, small_problem):
        algo = CReFF(retrain_steps=0)
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, participation=0.5, seed=0, max_batches_per_round=2)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        ctx = sim.ctx
        algo.setup(ctx)
        u = algo.client_update(ctx, 0, 0, ctx.x0.copy())
        stats = u.extras["feature_stats"]
        assert stats
        for c, (mean, var, n) in stats.items():
            assert mean.shape == (32,)
            assert n > 0


class TestBalanceFL:
    def test_absent_classes_identified(self, small_problem):
        algo = BalanceFL()
        model = make_mlp(32, 10, seed=0)
        cfg = FLConfig(rounds=1, seed=0)
        sim = FederatedSimulation(algo, model, small_problem, cfg)
        ctx = sim.ctx
        algo.setup(ctx)
        counts = ctx.dataset.client_counts
        for k in range(ctx.num_clients):
            np.testing.assert_array_equal(algo._absent[k], np.flatnonzero(counts[k] == 0))

    def test_stability_with_distillation(self, small_problem):
        # regression test for the logit-MSE divergence: params must stay finite
        h = run_method("balancefl", small_problem, distill_weight=5.0)
        assert np.isfinite(h.final_accuracy)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["fedavg", "fedcm", "fedwcm", "scaffold"])
    def test_same_seed_same_history(self, small_problem, name):
        h1 = run_method(name, small_problem, seed=3)
        h2 = run_method(name, small_problem, seed=3)
        np.testing.assert_array_equal(h1.accuracy, h2.accuracy)

    def test_different_seed_different_history(self, small_problem):
        h1 = run_method("fedavg", small_problem, seed=1)
        h2 = run_method("fedavg", small_problem, seed=2)
        assert not np.array_equal(h1.accuracy, h2.accuracy)


class TestSamFamilyTrainLoss:
    """SAM-style methods must still report a training loss for loss-aware
    samplers: the grad_eval path records the batch's first (pre-perturbation)
    plain-loss evaluation instead of skipping loss tracking entirely."""

    @pytest.mark.parametrize(
        "name", ["fedsam", "mofedsam", "fedspeed", "fedsmoo", "fedlesam"]
    )
    def test_grad_eval_methods_report_train_loss(self, small_problem, name):
        from repro.simulation.context import SimulationContext

        algo = make_method(name).algorithm
        ctx = SimulationContext(
            make_mlp(32, 10, seed=0), small_problem,
            FLConfig(rounds=1, local_epochs=1, max_batches_per_round=2, seed=0),
        )
        algo.setup(ctx)
        u = algo.client_update(ctx, 0, 0, ctx.x0)
        assert "train_loss" in u.extras
        assert np.isfinite(u.extras["train_loss"])
        assert u.extras["train_loss"] > 0.0

    def test_plain_methods_unchanged(self, small_problem):
        from repro.simulation.context import SimulationContext

        algo = make_method("fedavg").algorithm
        ctx = SimulationContext(
            make_mlp(32, 10, seed=0), small_problem,
            FLConfig(rounds=1, local_epochs=1, max_batches_per_round=2, seed=0),
        )
        algo.setup(ctx)
        u = algo.client_update(ctx, 0, 0, ctx.x0)
        assert "train_loss" in u.extras
