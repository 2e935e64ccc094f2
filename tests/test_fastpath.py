"""The async dispatch planner is bit-identical to a scalar per-dispatch loop.

Pins the vectorized control plane's keystone claims:

* ``LatencyModel.sample_many`` equals per-element ``latency()`` for every
  registered model (same RNG stream discipline, batched);
* ``IdleTracker`` rank selection equals indexing the ascending idle
  comprehension, under arbitrary busy/idle churn, at dense occupancy and
  across a pickle round trip;
* ``VirtualClock.push_many`` pops in the same order as sequential
  ``schedule`` calls (both below and above the heapify threshold);
* ``AsyncPolicy._dispatch_many`` histories are bit-identical to the scalar
  oracle's (``tests/_scalar_dispatch.py``) across the async kinds, latency
  models, backends, samplers, stateful methods, a 2k-client population and
  a seed whose picks cannot use the keyed-word kernel;
* incremental sampler weights equal freshly recomputed ones after observes;
* profiled runs journal a ``profile`` record and ``watch --summary``
  renders the ``hotpath:`` line — with histories untouched by profiling.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from _population import one_sample_population
from _scalar_dispatch import ScalarAsyncPolicy
from repro.algorithms import make_method
from repro.data import load_federated_dataset
from repro.experiments import run
from repro.experiments.spec import DataSpec, ExperimentSpec, MethodSpec, RuntimeSpec
from repro.nn import make_linear, make_mlp
from repro.observe import MetricsStore, format_hotpath
from repro.observe.snapshot import latest_snapshot, load_snapshot
from repro.runtime import (
    AsyncFederatedSimulation,
    FastFirstSampler,
    IdleTracker,
    LATENCY_MODELS,
    LognormalLatency,
    UtilitySampler,
    VirtualClock,
    async_engine,
    make_latency_model,
)
from repro.simulation import FLConfig
from repro.simulation.context import SimulationContext
from repro.utils import rng as rng_mod
from repro.utils.rng import keyed_rng

_TINY = dict(
    data=DataSpec(clients=6, scale=0.3, beta=0.3, imbalance_factor=0.3),
    config=FLConfig(rounds=3, participation=0.5, local_epochs=1, batch_size=10,
                    max_batches_per_round=3, eval_every=1, seed=0),
)


@pytest.fixture(scope="module")
def ds():
    return load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.3, beta=0.3, num_clients=6,
        seed=0, scale=0.3,
    )


@pytest.fixture(scope="module")
def ctx(ds):
    cfg = FLConfig(rounds=4, participation=0.5, local_epochs=1, seed=0,
                   max_batches_per_round=3, eval_every=2, batch_size=10)
    return SimulationContext(make_mlp(32, 10, seed=0), ds, cfg)


def _spec(kind: str, method: str | None = None, backend: str = "serial",
          **runtime_kw) -> ExperimentSpec:
    default = {"fedasync": "fedasync", "fedbuff": "fedbuff"}[kind]
    runtime_kw.setdefault("latency", "lognormal")
    if backend != "serial":
        runtime_kw.setdefault("workers", 2)
    return ExperimentSpec(
        method=MethodSpec(name=method or default),
        runtime=RuntimeSpec(kind=kind, backend=backend, **runtime_kw),
        **_TINY,
    )


def _history_key(result):
    return [
        (r.round, r.test_accuracy, r.test_loss, r.virtual_time, r.staleness,
         r.concurrency, r.updates_applied, tuple(np.asarray(r.selected)))
        for r in result.history.records
    ]


def _under_oracle(monkeypatch, run_once):
    """``run_once()`` with the engine facade building the scalar oracle.

    Returns its result after checking that the oracle planned every
    dispatch the run issued.
    """
    built: list[ScalarAsyncPolicy] = []

    def oracle(*args, **kwargs):
        built.append(ScalarAsyncPolicy(*args, **kwargs))
        return built[-1]

    with monkeypatch.context() as m:
        m.setattr(async_engine, "AsyncPolicy", oracle)
        result = run_once()
    (policy,) = built
    assert policy.scalar_dispatches == policy._state["dispatched"] > 0
    return result


def _assert_matches_oracle(monkeypatch, spec: ExperimentSpec) -> None:
    fast = run(spec)
    scalar = _under_oracle(monkeypatch, lambda: run(spec))
    assert _history_key(fast) == _history_key(scalar)
    np.testing.assert_array_equal(fast.final_params, scalar.final_params)


class TestSampleMany:
    """Batched draws equal per-element ``latency()`` for every model."""

    _KW = {"lognormal": dict(sigma=1.0),
           "pareto": dict(alpha=1.1),
           "dropout": dict(inner="lognormal", p_drop=0.4, max_retries=3)}

    @pytest.mark.parametrize("name", sorted(LATENCY_MODELS))
    def test_bit_equal_to_sequential(self, ctx, name):
        model = make_latency_model(name, **self._KW.get(name, {})).bind(ctx)
        rng = np.random.default_rng(7)
        cids = rng.integers(0, ctx.num_clients, size=64).astype(np.int64)
        seqs = np.arange(64, dtype=np.int64)
        batched = model.sample_many(cids, seqs)
        scalar = np.array(
            [model.latency(int(c), int(i)) for c, i in zip(cids, seqs)]
        )
        np.testing.assert_array_equal(batched, scalar)
        assert batched.dtype == np.float64

    def test_zero_sigma_and_jitter_shortcuts(self, ctx):
        # exp(0 * z) == 1.0 exactly, so skipping the draws is bit-safe
        flat = make_latency_model("lognormal", sigma=0.0, jitter=0.0).bind(ctx)
        cids = np.arange(ctx.num_clients, dtype=np.int64)
        seqs = np.arange(ctx.num_clients, dtype=np.int64)
        scalar = np.array([flat.latency(int(c), int(i)) for c, i in zip(cids, seqs)])
        np.testing.assert_array_equal(flat.sample_many(cids, seqs), scalar)

    def test_unbound_raises(self):
        with pytest.raises(RuntimeError):
            make_latency_model("constant").sample_many(
                np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
            )


def _churn(tr: IdleTracker, busy: dict[int, int], rng, steps: int) -> None:
    """``steps`` random busy/idle events on ``tr`` and on the reference
    in-flight map ``busy``, each checked against the idle comprehension."""
    n = tr.n
    for _ in range(steps):
        cid = int(rng.integers(n))
        if rng.random() < 0.55:
            busy[cid] = busy.get(cid, 0) + 1
            tr.mark_busy(cid)
        elif busy.get(cid, 0):
            if busy[cid] <= 1:
                busy.pop(cid)
            else:
                busy[cid] -= 1
            tr.mark_idle(cid)
        ref = [k for k in range(n) if not busy.get(k)]
        assert tr.n_idle == len(ref)
        assert tr.idle_ids().tolist() == ref
        if ref:
            j = int(rng.integers(len(ref)))
            assert tr.kth_idle(j) == ref[j]


def _answers(tr: IdleTracker) -> tuple[list[int], list[int]]:
    return tr.idle_ids().tolist(), [tr.kth_idle(j) for j in range(tr.n_idle)]


class TestIdleTracker:
    def test_matches_comprehension_under_churn(self):
        _churn(IdleTracker(97), {}, np.random.default_rng(3), 600)

    def test_pickle_round_trip_mid_churn(self):
        tr, busy, rng = IdleTracker(97), {}, np.random.default_rng(3)
        _churn(tr, busy, rng, 300)
        back = pickle.loads(pickle.dumps(tr))
        assert back.n_idle == tr.n_idle and _answers(back) == _answers(tr)
        _churn(back, busy, rng, 300)

    def test_dense_churn_checks_every_rank(self):
        """With at least 3/4 of the clients in flight, some of them more
        than once, every rank is the comprehension's after each event."""
        n, rng = 97, np.random.default_rng(5)
        tr, busy = IdleTracker(n), {}
        dense = over = 0
        for _ in range(1200):
            if len(busy) < 80 or (len(busy) < 92 and rng.random() < 0.5):
                cid = int(rng.integers(n))
                busy[cid] = busy.get(cid, 0) + 1
                tr.mark_busy(cid)
            else:
                cid = int(rng.choice(sorted(busy)))
                busy[cid] -= 1
                if not busy[cid]:
                    del busy[cid]
                tr.mark_idle(cid)
            ref = [k for k in range(n) if k not in busy]
            assert tr.n_idle == len(ref)
            assert [tr.kth_idle(j) for j in range(tr.n_idle)] == ref
            assert tr.idle_ids().tolist() == ref
            dense += len(busy) >= 3 * n / 4
            over += max(busy.values()) > 1
        assert dense > 1000 and over > 1000

    def test_pickle_round_trip_keeps_busy_layout(self):
        """A pickled tracker is its sorted busy ids and their counts, and
        it answers the rest of the churn as the original would."""
        tr, busy, rng = IdleTracker(97), {}, np.random.default_rng(11)
        _churn(tr, busy, rng, 400)
        back = pickle.loads(pickle.dumps(tr))
        assert sorted(vars(back)) == ["_busy", "_count", "_idle_cache", "n", "n_idle"]
        assert back._busy == sorted(busy)
        assert all(type(c) is int for c in back._busy)
        assert back._count == busy
        _churn(back, busy, rng, 400)

    @pytest.mark.parametrize("cid", [-1, 5])
    def test_marks_refuse_ids_outside_population(self, cid):
        tr = IdleTracker(5)
        for mark in (tr.mark_busy, tr.mark_idle):
            with pytest.raises(IndexError, match=f"client id {cid} out of range for 5"):
                mark(cid)
        assert tr.n_idle == 5 and _answers(tr) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])

    def test_rank_out_of_range(self):
        tr = IdleTracker(4)
        with pytest.raises(IndexError):
            tr.kth_idle(4)

    def test_double_complete_is_noop(self):
        tr = IdleTracker(4)
        tr.mark_idle(2)  # never marked busy
        assert tr.n_idle == 4


class TestPushMany:
    @pytest.mark.parametrize("k", [1, 3, 8, 50])
    def test_pop_order_matches_sequential(self, k):
        rng = np.random.default_rng(k)
        delays = rng.uniform(0.0, 5.0, size=k)
        delays[rng.integers(k)] = delays[0]  # force at least one tie
        a, b = VirtualClock(), VirtualClock()
        # pre-load both so push_many lands in a non-empty heap
        for c in (a, b):
            c.schedule(2.5, client_id=100)
            c.schedule(0.5, client_id=101)
        for i, d in enumerate(delays):
            a.schedule(float(d), client_id=i)
        b.push_many([(float(d), i, {}) for i, d in enumerate(delays)])
        order_a = [(a.pop().client_id, a.now) for _ in range(k + 2)]
        order_b = [(b.pop().client_id, b.now) for _ in range(k + 2)]
        assert order_a == order_b

    def test_invalid_delay(self):
        with pytest.raises(ValueError):
            VirtualClock().push_many([(-1.0, 0, {})])


class TestEngineEquivalence:
    """Production planner histories are bit-identical to the scalar oracle's."""

    @pytest.mark.parametrize("kind", ("fedasync", "fedbuff"))
    @pytest.mark.parametrize(
        "latency", ("constant", "lognormal", "pareto", "dropout")
    )
    def test_serial_all_latency_models(self, monkeypatch, kind, latency):
        _assert_matches_oracle(monkeypatch, _spec(kind, latency=latency))

    def test_process_backend(self, monkeypatch):
        _assert_matches_oracle(monkeypatch, _spec("fedbuff", backend="process"))

    def test_scaffold_under_fedbuff(self, monkeypatch):
        # stateful per-client dispatch snapshots ride the planner too
        _assert_matches_oracle(monkeypatch, _spec("fedbuff", method="scaffold"))

    @pytest.mark.parametrize("sampler", ("fast", "utility"))
    def test_time_aware_samplers(self, monkeypatch, sampler):
        _assert_matches_oracle(monkeypatch, _spec("fedasync", sampler=sampler))

    def test_oversubscribed_concurrency(self, monkeypatch):
        # concurrency > clients exercises the empty-idle fallback draw
        _assert_matches_oracle(monkeypatch, _spec("fedasync", concurrency=9))

    def test_two_thousand_client_population(self, monkeypatch):
        """The control-plane bench's population: 2k one-sample clients,
        256 in flight, 1000 fedasync updates."""
        ds = one_sample_population(2_000)

        def run_once():
            sim = AsyncFederatedSimulation(
                make_method("fedasync").algorithm,
                make_linear(16, 2, seed=0),
                ds,
                FLConfig(rounds=1, participation=0.1, local_epochs=1,
                         batch_size=10, max_batches_per_round=1, eval_every=8,
                         seed=0),
                latency_model=LognormalLatency(sigma=0.5, jitter=0.0),
                concurrency=256,
                max_updates=1_000,
            )
            return sim.run(), sim.final_params

        h_fast, x_fast = run_once()
        h_scalar, x_scalar = _under_oracle(monkeypatch, run_once)
        np.testing.assert_array_equal(h_fast.accuracy, h_scalar.accuracy)
        np.testing.assert_array_equal(x_fast, x_scalar)
        assert [r.virtual_time for r in h_fast.records] == [
            r.virtual_time for r in h_scalar.records]
        assert [r.staleness for r in h_fast.records] == [
            r.staleness for r in h_scalar.records]

    @pytest.mark.parametrize("seed", (0, 2**32 + 5))
    def test_picks_read_keyed_words(self, monkeypatch, seed):
        """At a seed in the uint32 range every pick reads the keyed-word
        kernel and builds no generator; beyond it each pick builds one.
        Either way the history is the scalar oracle's, which draws every
        pick from ``keyed_rng``."""
        picks = []

        def counting(*key):
            if key[1] == 0xA7:
                picks.append(key)
            return keyed_rng(*key)

        monkeypatch.setattr(rng_mod, "keyed_rng", counting)
        spec = dataclasses.replace(
            _spec("fedasync", concurrency=9),
            config=dataclasses.replace(_TINY["config"], seed=seed),
        )
        _assert_matches_oracle(monkeypatch, spec)
        if seed < 2**32:
            assert picks == []
        else:
            assert picks and {k[0] for k in picks} == {seed}

    def test_fast_path_key_rejected(self):
        # the retired planner knob is an unknown key for every kind
        for kind in ("sync", "fedasync"):
            data = ExperimentSpec(
                method=MethodSpec(name="fedavg" if kind == "sync" else kind),
                runtime=RuntimeSpec(kind=kind),
                **_TINY,
            ).to_dict()
            data["runtime"]["fast_path"] = True
            with pytest.raises(ValueError, match=r"unknown key.*fast_path"):
                ExperimentSpec.from_dict(data)


def test_packed_policy_holds_no_word_block(tmp_path):
    """Pick words live in a module-level cache, so a recorded run's packed
    policy carries exactly the attributes it carried before the kernel."""
    run_dir = str(tmp_path / "run")
    spec = _spec("fedasync", record=True, run_dir=run_dir)
    run(spec)
    snap = load_snapshot(latest_snapshot(run_dir))
    assert sorted(snap["policy"]) == [
        "_buffers", "_completed", "_handles", "_in_flight", "_queue",
        "_results", "_round_idx", "_state", "_t0", "_tracker", "_win_clients",
        "_win_conc", "_win_tau", "buffer_ema", "concurrency",
        "concurrency_controller", "latency_model", "max_updates", "sampler",
        "streaming", "window",
    ]


def test_packed_latency_model_holds_no_drawer(tmp_path):
    """The speed drawer's hashed blocks and generator, and the speed memo,
    stay out of a recorded run's snapshot: its packed latency model holds
    an empty drawer slot and memo, and a resumed model draws again."""
    run_dir = str(tmp_path / "run")
    run(_spec("fedasync", record=True, run_dir=run_dir))
    model = load_snapshot(latest_snapshot(run_dir))["policy"]["latency_model"]
    assert isinstance(model, LognormalLatency)
    assert sorted(vars(model)) == [
        "_base", "_comm", "_compute", "_explicit_seed", "_normals",
        "_speed_cache", "bandwidth", "bytes_per_param", "comm_method",
        "jitter", "scale", "seed", "sigma", "time_per_batch",
    ]
    assert model._normals is None and model._speed_cache == {}


class TestSamplerWeightCache:
    """Incrementally invalidated weights equal freshly recomputed ones."""

    def test_fastfirst_dispatch_weights(self, ctx):
        lat = make_latency_model("lognormal", sigma=1.0).bind(ctx)
        cached = FastFirstSampler(power=2.0).bind(ctx, lat)
        fresh = FastFirstSampler(power=2.0).bind(ctx, lat)
        idle = np.arange(ctx.num_clients, dtype=np.int64)
        rng = np.random.default_rng(11)
        for i in range(20):
            np.testing.assert_array_equal(
                cached.dispatch_weights(idle, now=float(i)),
                np.power(np.maximum(fresh.expected_seconds(), 1e-12),
                         -fresh.power)[idle],
            )
            cid = int(rng.integers(ctx.num_clients))
            obs = float(rng.uniform(0.1, 5.0))
            cached.observe(cid, obs)
            fresh.observe(cid, obs)
        # cache hit: identical object when nothing was observed in between
        w1 = cached._full_weights()
        w2 = cached._full_weights()
        assert w1 is w2

    def test_utility_cache_invalidates_on_loss(self, ctx):
        lat = make_latency_model("constant").bind(ctx)
        s = UtilitySampler().bind(ctx, lat)
        u0 = s.utilities()
        assert s.utilities() is u0  # cached between observes
        s.observe_loss(0, 2.0)
        u1 = s.utilities()
        assert u1 is not u0


class TestProfiler:
    def _recorded(self, tmp_path):
        spec = _spec("fedbuff")
        spec = ExperimentSpec(
            method=spec.method,
            runtime=RuntimeSpec(
                kind="fedbuff", latency="lognormal",
                record=True, run_dir=str(tmp_path / "run"),
            ),
            **_TINY,
        )
        return run(spec)

    def test_profile_journaled_and_summarized(self, tmp_path):
        res = self._recorded(tmp_path)
        assert res.profile is not None
        assert res.profile["completions"] == res.profile["dispatches"] > 0
        assert res.profile["clients_per_sec"] > 0
        assert res.profile["wall_s"] > 0
        # every attributed second is one of the declared phases
        store = MetricsStore.from_journal(
            str(tmp_path / "run" / "journal.jsonl")
        )
        assert store.profile is not None
        assert store.profile["type"] == "profile"
        assert store.ended  # the profile record precedes end, not replaces it
        line = store.summary()
        assert "hotpath:" in line
        assert format_hotpath(res.profile).split(" ")[1] == "clients/s"

    def test_profiling_does_not_change_history(self, tmp_path):
        recorded = self._recorded(tmp_path)
        plain = run(_spec("fedbuff"))
        assert _history_key(recorded) == _history_key(plain)
        np.testing.assert_array_equal(
            recorded.final_params, plain.final_params
        )

    @pytest.mark.parametrize("kind", ["sync", "semisync"])
    def test_round_kinds_attribute_phases(self, kind):
        """The round kinds feed job_build / collect / apply / eval, and a
        profiled run's history equals the unprofiled one."""
        from repro.experiments import build
        from repro.observe import HotPathProfiler

        timed = {"latency": "lognormal"} if kind == "semisync" else {}
        spec = ExperimentSpec(
            method=MethodSpec(name="fedwcm"),
            runtime=RuntimeSpec(kind=kind, **timed),
            **_TINY,
        )
        profiler = HotPathProfiler()
        profiled = build(spec)
        history = profiled.run(profiler=profiler)
        plain = build(spec)
        reference = plain.run()
        assert [r.test_accuracy for r in history.records] == [
            r.test_accuracy for r in reference.records
        ]
        np.testing.assert_array_equal(profiled.final_params, plain.final_params)
        for phase in ("job_build", "collect", "apply", "eval"):
            assert profiler.seconds[phase] > 0.0, phase
        assert profiler.seconds["collect"] > profiler.seconds["job_build"]
