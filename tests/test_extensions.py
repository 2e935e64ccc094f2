"""Tests for the extension modules: server optimizers, FedWCM-HE,
serialization, sampling strategies, viz and the CLI."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.algorithms import (
    FedAdam,
    FedNova,
    FedWCM,
    FedWCMEncrypted,
    FedYogi,
    make_method,
)
from repro.data import load_federated_dataset
from repro.he import BFVParams
from repro.nn import make_mlp
from repro.simulation import (
    FederatedSimulation,
    FLConfig,
    History,
    RoundRecord,
    RoundRobinSampler,
    ScoreBiasedSampler,
    UniformSampler,
    load_checkpoint,
    load_history,
    save_checkpoint,
    save_history,
)
from repro.viz import ascii_barchart, ascii_lineplot, history_plot


@pytest.fixture(scope="module")
def ds():
    return load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.2, beta=0.2, num_clients=6, seed=0, scale=0.3
    )


def _cfg(**kw):
    base = dict(rounds=3, participation=0.5, local_epochs=1, eval_every=1, seed=0,
                max_batches_per_round=3)
    base.update(kw)
    return FLConfig(**base)


class TestServerOptimizers:
    @pytest.mark.parametrize("cls", [FedAdam, FedYogi, FedNova])
    def test_runs_and_finite(self, ds, cls):
        model = make_mlp(32, 10, seed=0)
        h = FederatedSimulation(cls(), model, ds, _cfg()).run()
        assert np.isfinite(h.final_accuracy)

    def test_adam_moments_updated(self, ds):
        algo = FedAdam()
        model = make_mlp(32, 10, seed=0)
        FederatedSimulation(algo, model, ds, _cfg()).run()
        assert np.linalg.norm(algo._m) > 0
        assert np.any(algo._v != algo.tau**2)

    def test_yogi_second_moment_sign_rule(self):
        y = FedYogi()

        class Ctx:
            dim = 3
        y.setup(Ctx())
        g = np.array([1.0, 0.0, 2.0])
        v0 = y._v.copy()
        y._second_moment(g)
        # entries where g^2 > v must increase, zero-gradient entries unchanged
        assert y._v[0] > v0[0]
        assert y._v[1] == v0[1]

    def test_fednova_normalises_step_counts(self, ds):
        # same displacement, different step counts -> same effective update
        algo = FedNova()
        model = make_mlp(32, 10, seed=0)
        sim = FederatedSimulation(algo, model, ds, _cfg())
        ctx = sim.ctx
        from repro.algorithms.base import ClientUpdate

        d = np.ones(ctx.dim)
        u_fast = ClientUpdate(client_id=0, displacement=d, n_samples=10, n_batches=1)
        u_slow = ClientUpdate(client_id=1, displacement=5 * d, n_samples=10, n_batches=5)
        x0 = np.zeros(ctx.dim)
        x1 = algo.aggregate(ctx, 0, np.array([0, 1]), [u_fast, u_slow], x0)
        # both clients apply d per step; tau_eff = 3, normalised mean = d
        np.testing.assert_allclose(x1, -3.0 * d)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            FedAdam(server_lr=0)
        with pytest.raises(ValueError):
            FedAdam(beta1=1.0)
        with pytest.raises(ValueError):
            FedAdam(tau=0)


class TestFedWCMEncrypted:
    def test_trajectory_matches_plain_fedwcm(self):
        """The HE protocol is exact, so training must be bit-identical: the
        scores, every round's alpha and the final parameters.  On this
        problem a per-client score loop differs from the one-GEMV scores
        in the last bit, and that difference reaches the parameters."""
        ds8 = load_federated_dataset(
            "fashion-mnist-lite", imbalance_factor=0.1, beta=0.1, num_clients=8,
            seed=0, scale=0.3,
        )
        small = BFVParams(n=256, t=1 << 16, q_bits=40)
        runs = []
        for algo in (FedWCM(), FedWCMEncrypted(bfv_params=small)):
            sim = FederatedSimulation(algo, make_mlp(32, 10, seed=0), ds8, _cfg())
            runs.append((algo, sim, sim.run()))
        (plain, sim_plain, h_plain), (he, sim_he, h_he) = runs
        np.testing.assert_array_equal(plain.scores, he.scores)
        np.testing.assert_array_equal(
            [r.extras["alpha"] for r in h_plain.records],
            [r.extras["alpha"] for r in h_he.records],
        )
        np.testing.assert_array_equal(sim_plain.final_params, sim_he.final_params)
        np.testing.assert_array_equal(h_plain.accuracy, h_he.accuracy)

    def test_report_available(self, ds):
        algo = FedWCMEncrypted(bfv_params=BFVParams(n=256, t=1 << 16, q_bits=40))
        FederatedSimulation(algo, make_mlp(32, 10, seed=0), ds, _cfg()).run()
        assert algo.report is not None
        np.testing.assert_array_equal(
            algo.report.global_counts, ds.client_counts.sum(axis=0)
        )

    def test_paillier_backend(self, ds):
        algo = FedWCMEncrypted(scheme="paillier")
        h = FederatedSimulation(algo, make_mlp(32, 10, seed=0), ds, _cfg()).run()
        assert np.isfinite(h.final_accuracy)

    def test_registry_entry(self):
        assert make_method("fedwcm-he").name == "fedwcm-he"


class TestSerialization:
    def test_checkpoint_roundtrip(self, ds, tmp_path):
        model = make_mlp(32, 10, seed=0)
        sim = FederatedSimulation(make_method("fedavg").algorithm, model, ds, _cfg())
        sim.run()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, sim.final_params, sim.ctx.spec, round_idx=2)
        x, meta = load_checkpoint(path, spec=sim.ctx.spec)
        np.testing.assert_array_equal(x, sim.final_params)
        assert meta["round"] == 2

    def test_checkpoint_layout_mismatch(self, tmp_path):
        m1 = make_mlp(8, 3, seed=0)
        m2 = make_mlp(9, 3, seed=0)
        from repro.utils import flatten_params

        f1, s1 = flatten_params(m1.params)
        _, s2 = flatten_params(m2.params)
        path = str(tmp_path / "c.npz")
        save_checkpoint(path, f1, s1)
        with pytest.raises(ValueError):
            load_checkpoint(path, spec=s2)

    def test_history_roundtrip(self, tmp_path):
        h = History(algorithm="fedwcm")
        h.records.append(
            RoundRecord(
                round=0,
                test_accuracy=0.5,
                selected=np.array([1, 2]),
                per_class_accuracy=np.array([0.1, np.nan]),
                extras={"alpha": 0.3},
            )
        )
        h.records.append(RoundRecord(round=1))  # NaN accuracy
        path = str(tmp_path / "h.json")
        save_history(path, h)
        back = load_history(path)
        assert back.algorithm == "fedwcm"
        assert back.records[0].test_accuracy == 0.5
        assert back.records[0].extras["alpha"] == 0.3
        assert np.isnan(back.records[1].test_accuracy)
        assert np.isnan(back.records[0].per_class_accuracy[1])

    def test_history_is_valid_json(self, tmp_path):
        h = History(algorithm="x")
        h.records.append(RoundRecord(round=0, test_accuracy=float("nan")))
        path = str(tmp_path / "h.json")
        save_history(path, h)
        with open(path) as f:
            json.load(f)  # must not contain bare NaN tokens


class TestSamplingStrategies:
    def _ctx(self, ds):
        model = make_mlp(32, 10, seed=0)
        sim = FederatedSimulation(make_method("fedavg").algorithm, model, ds, _cfg())
        return sim.ctx

    def test_uniform_matches_builtin(self, ds):
        ctx = self._ctx(ds)
        np.testing.assert_array_equal(UniformSampler()(ctx, 4), ctx.sample_clients(4))

    def test_score_biased_prefers_scarce_clients(self, ds):
        ctx = self._ctx(ds)
        sampler = ScoreBiasedSampler(temperature=0.02)
        from repro.core import client_scores

        scores = client_scores(ds.client_counts.astype(float))
        top = int(np.argmax(scores))
        hits = sum(top in sampler(ctx, r) for r in range(40))
        base = sum(top in ctx.sample_clients(r) for r in range(40))
        assert hits >= base  # biased sampling selects the scarce client more

    def test_round_robin_covers_all_clients(self, ds):
        ctx = self._ctx(ds)
        seen = set()
        for r in range(10):
            seen.update(RoundRobinSampler()(ctx, r).tolist())
        assert seen == set(range(ds.num_clients))

    def test_engine_accepts_custom_sampler(self, ds):
        model = make_mlp(32, 10, seed=0)
        h = FederatedSimulation(
            make_method("fedavg").algorithm, model, ds, _cfg(),
            client_sampler=RoundRobinSampler(),
        ).run()
        np.testing.assert_array_equal(h.records[0].selected, [0, 1, 2])


class TestViz:
    def test_lineplot_renders(self):
        out = ascii_lineplot({"a": ([0, 1, 2], [0.1, 0.5, 0.9])}, title="t")
        assert "t" in out and "o" in out

    def test_lineplot_handles_nan(self):
        out = ascii_lineplot({"a": ([0, 1], [0.5, float("nan")])})
        assert "0.500" in out

    def test_barchart(self):
        out = ascii_barchart({"x": 1.0, "y": 0.5}, width=10)
        assert out.count("#") == 15

    def test_barchart_nan(self):
        out = ascii_barchart({"x": float("nan")})
        assert "nan" in out

    def test_history_plot(self):
        h = History(algorithm="a")
        h.records.append(RoundRecord(round=0, test_accuracy=0.3))
        h.records.append(RoundRecord(round=1, test_accuracy=0.6))
        out = history_plot({"a": h})
        assert "o" in out


class TestCLI:
    def test_methods_command(self, capsys):
        from repro.cli import main

        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "fedwcm" in out

    def test_datasets_command(self, capsys):
        from repro.cli import main

        assert main(["datasets"]) == 0
        assert "cifar10-lite" in capsys.readouterr().out

    def test_run_command_with_saving(self, tmp_path, capsys):
        from repro.cli import main

        hist = str(tmp_path / "h.json")
        ckpt = str(tmp_path / "c.npz")
        rc = main([
            "run", "--method", "fedavg", "--rounds", "2", "--clients", "4",
            "--participation", "0.5", "--local-epochs", "1", "--eval-every", "1",
            "--save-history", hist, "--save-checkpoint", ckpt,
        ])
        assert rc == 0
        assert os.path.exists(hist) and os.path.exists(ckpt)
        back = load_history(hist)
        assert len(back.records) == 2

    def test_compare_unknown_method(self, capsys):
        from repro.cli import main

        assert main(["compare", "--methods", "fedxyz", "--rounds", "1"]) == 2
