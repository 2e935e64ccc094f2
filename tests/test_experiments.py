"""Tests for the declarative experiment API (repro.experiments)."""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.experiments import (
    DataSpec,
    ENGINE_KINDS,
    ExperimentSpec,
    MethodSpec,
    ModelSpec,
    RuntimeSpec,
    build,
    expand,
    parse_override,
    resolve_model_alias,
    run,
)
from repro.runtime import AsyncFederatedSimulation, SemiSyncFederatedSimulation
from repro.simulation import FLConfig, FederatedSimulation

# a problem small enough that every engine kind finishes in ~a second
_TINY = dict(
    data=DataSpec(clients=6, scale=0.3, beta=0.3),
    config=FLConfig(rounds=2, participation=0.5, local_epochs=1, batch_size=10,
                    max_batches_per_round=2, eval_every=1, seed=1),
)


def tiny_spec(kind: str = "sync", **runtime_kw) -> ExperimentSpec:
    method = {"sync": "fedavg", "semisync": "fedavg",
              "fedasync": "fedasync", "fedbuff": "fedbuff"}[kind]
    if kind != "sync":
        runtime_kw.setdefault("latency", "lognormal")
    return ExperimentSpec(
        method=MethodSpec(name=method),
        runtime=RuntimeSpec(kind=kind, **runtime_kw),
        **_TINY,
    )


class TestSpecValidation:
    def test_defaults_construct(self):
        spec = ExperimentSpec()
        assert spec.runtime.kind == "sync"
        assert spec.method.name == "fedavg"

    def test_registry_names_checked_at_construction(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            DataSpec(dataset="mnist-prime")
        with pytest.raises(ValueError, match="unknown model arch"):
            ModelSpec(arch="transformer-xxl")
        with pytest.raises(ValueError, match="unknown method"):
            MethodSpec(name="fedmagic")
        with pytest.raises(ValueError, match="unknown engine kind"):
            RuntimeSpec(kind="warp")
        with pytest.raises(ValueError, match="unknown latency model"):
            RuntimeSpec(kind="semisync", latency="quantum")
        with pytest.raises(ValueError, match="unknown sampler"):
            RuntimeSpec(kind="semisync", sampler="psychic")

    def test_range_checks(self):
        with pytest.raises(ValueError):
            DataSpec(imbalance_factor=0.0)
        with pytest.raises(ValueError):
            DataSpec(clients=0)
        with pytest.raises(ValueError):
            RuntimeSpec(kind="semisync", deadline=-1.0)
        with pytest.raises(ValueError):
            RuntimeSpec(kind="semisync", adaptive_deadline=1.0)
        with pytest.raises(ValueError):
            RuntimeSpec(kind="fedasync", concurrency=0)

    @pytest.mark.parametrize("cls, kwargs", [
        (DataSpec, {"clients": 6.0}),
        (RuntimeSpec, {"kind": "sync", "job_batch": 2.7}),
        (RuntimeSpec, {"kind": "sync", "workers": 1.5}),
        (RuntimeSpec, {"kind": "fedasync", "concurrency": 2.5}),
        (RuntimeSpec, {"kind": "fedasync", "max_updates": True}),
    ])
    def test_counts_must_be_integers(self, cls, kwargs):
        (name,) = kwargs.keys() - {"kind"}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            cls(**kwargs)

    def test_numpy_counts_and_example_specs_accepted(self):
        assert DataSpec(clients=np.int64(6)).clients == 6
        rt = RuntimeSpec(kind="fedasync", concurrency=np.int32(4),
                         max_updates=np.int64(8), workers=np.int64(2))
        assert (rt.concurrency, rt.max_updates, rt.workers) == (4, 8, 2)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "examples", "specs", "*.json")))
        assert paths
        for path in paths:
            ExperimentSpec.load(path)

    def test_async_kind_wraps_other_methods_but_not_async_rules(self):
        # any synchronous method may run under an async kind (its local
        # rule is wrapped in an AsyncAdapter by the facade) ...
        ExperimentSpec(method=MethodSpec(name="scaffold"),
                       runtime=RuntimeSpec(kind="fedasync"))
        # ... but a second staleness-aware rule cannot nest
        with pytest.raises(ValueError, match="cannot run under"):
            ExperimentSpec(method=MethodSpec(name="fedbuff"),
                           runtime=RuntimeSpec(kind="fedasync"))
        # async methods may still run in the synchronous fallback engines
        ExperimentSpec(method=MethodSpec(name="fedbuff"),
                       runtime=RuntimeSpec(kind="sync"))

    def test_stateful_method_parallelises_via_job_contract(self):
        # the PR-4 restriction is lifted: packed client state rides the
        # execution backends' job contract, so stateful methods accept
        # worker pools on every engine kind
        ExperimentSpec(method=MethodSpec(name="scaffold"),
                       runtime=RuntimeSpec(kind="fedbuff", workers=2))
        ExperimentSpec(method=MethodSpec(name="fedsam"),
                       runtime=RuntimeSpec(kind="fedbuff", workers=2))
        ExperimentSpec(method=MethodSpec(name="scaffold"),
                       runtime=RuntimeSpec(kind="sync", backend="process"))

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RuntimeSpec(backend="gpu-cluster")
        with pytest.raises(ValueError, match="contradicts"):
            RuntimeSpec(backend="serial", workers=4)
        with pytest.raises(ValueError, match="buffer_ema"):
            RuntimeSpec(kind="fedasync", buffer_ema="adaptive")
        with pytest.raises(ValueError, match="no effect"):
            RuntimeSpec(kind="semisync", buffer_ema="staleness")
        RuntimeSpec(kind="fedbuff", backend="process", workers=2)  # fine
        RuntimeSpec(kind="fedasync", buffer_ema="staleness")  # fine

    def test_aggregate_broadcast_methods_rejected_under_async(self):
        # FedCM's momentum broadcast only refreshes in aggregate(): under an
        # async rule it would stay frozen, so the spec refuses it up front
        with pytest.raises(ValueError, match="aggregate"):
            ExperimentSpec(method=MethodSpec(name="fedcm"),
                           runtime=RuntimeSpec(kind="fedbuff"))
        with pytest.raises(ValueError, match="aggregate"):
            ExperimentSpec(method=MethodSpec(name="fedwcm"),
                           runtime=RuntimeSpec(kind="fedasync"))
        # the semisync engine drives them unchanged
        ExperimentSpec(method=MethodSpec(name="fedcm"),
                       runtime=RuntimeSpec(kind="semisync"))

    def test_kind_rejects_unconsumable_knobs(self):
        with pytest.raises(ValueError, match="no effect"):
            RuntimeSpec(kind="sync", latency="lognormal")
        with pytest.raises(ValueError, match="no effect"):
            RuntimeSpec(kind="sync", deadline=1.0)
        with pytest.raises(ValueError, match="no effect"):
            RuntimeSpec(kind="semisync", concurrency=4)
        with pytest.raises(ValueError, match="no effect"):
            RuntimeSpec(kind="fedasync", deadline=1.0)
        with pytest.raises(ValueError, match="no effect"):
            RuntimeSpec(kind="fedbuff", late_policy="trickle")

    def test_late_policy_validated(self):
        with pytest.raises(ValueError, match="late_policy"):
            RuntimeSpec(kind="semisync", late_policy="teleport")
        with pytest.raises(ValueError, match="late_weight only applies"):
            RuntimeSpec(kind="semisync", late_policy="trickle", late_weight=0.5)
        RuntimeSpec(kind="semisync", late_policy="trickle", deadline=1.0)  # fine

    def test_async_sampler_must_be_time_aware(self):
        with pytest.raises(ValueError, match="per-dispatch"):
            RuntimeSpec(kind="fedbuff", sampler="score")
        RuntimeSpec(kind="fedbuff", sampler="fast")  # fine
        RuntimeSpec(kind="fedasync", sampler="utility")  # fine

    def test_latency_kwargs_require_latency(self):
        with pytest.raises(ValueError, match="latency_kwargs requires"):
            RuntimeSpec(kind="semisync", latency_kwargs={"sigma": 5.0})
        RuntimeSpec(kind="semisync", latency="lognormal",
                    latency_kwargs={"sigma": 5.0})  # fine

    def test_sampler_kwargs_validated(self):
        with pytest.raises(ValueError, match="non-uniform sampler"):
            RuntimeSpec(kind="semisync", sampler_kwargs={"power": 2.0})
        RuntimeSpec(kind="fedbuff", sampler="fast",
                    sampler_kwargs={"power": 2.0})  # per-dispatch: fine now
        RuntimeSpec(kind="semisync", sampler="fast",
                    sampler_kwargs={"power": 2.0})  # fine

    def test_kwargs_must_be_jsonable(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            MethodSpec(name="fedavg", kwargs={"fn": lambda: None})

    def test_lr_schedule_must_be_callable(self):
        with pytest.raises(TypeError, match="callable"):
            FLConfig(lr_schedule="cosine")
        FLConfig(lr_schedule=lambda r: 1.0)  # fine


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_dict_and_json_round_trip(self, kind):
        spec = tiny_spec(kind)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = tiny_spec("semisync", sampler="utility", adaptive_deadline=0.3,
                         price_comm=True, latency_kwargs={"sigma": 1.3})
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ExperimentSpec.load(path) == spec
        # the file is plain JSON anyone can edit
        d = json.load(open(path))
        assert d["runtime"]["sampler"] == "utility"

    def test_randomized_round_trip_property(self):
        rng = np.random.default_rng(0)
        kinds = list(ENGINE_KINDS)
        for _ in range(25):
            kind = kinds[rng.integers(len(kinds))]
            spec = tiny_spec(kind).override_many([
                ("data.imbalance_factor", float(rng.uniform(0.01, 1.0))),
                ("data.beta", float(rng.uniform(0.05, 1.0))),
                ("config.rounds", int(rng.integers(1, 50))),
                ("config.seed", int(rng.integers(0, 1000))),
                ("name", f"prop-{rng.integers(1e6)}"),
            ])
            assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_partial_dict_fills_defaults(self):
        spec = ExperimentSpec.from_dict({"method": {"name": "fedcm"}})
        assert spec.method.name == "fedcm"
        assert spec.data == DataSpec()

    def test_unknown_keys_raise(self):
        with pytest.raises(ValueError, match="unknown spec section"):
            ExperimentSpec.from_dict({"modle": {}})
        with pytest.raises(ValueError, match="unknown key"):
            ExperimentSpec.from_dict({"config": {"rouns": 3}})
        with pytest.raises(ValueError, match="lr_schedule"):
            # callable-only field never appears in serialized form
            ExperimentSpec.from_dict({"config": {"lr_schedule": "x"}})

    @pytest.mark.parametrize("section, key, value", (
        ("config", "rounds", 2.5),
        ("config", "seed", 1.5),
        ("config", "batch_size", 10.0),
        ("data", "clients", 6.0),
        ("runtime", "workers", 1.5),
        ("runtime", "job_batch", 2.7),
        ("data", "clients", True),
        ("data", "scale", "big"),
    ))
    def test_wrongly_typed_value_names_its_field(self, section, key, value, tmp_path, capsys):
        """A spec file's counts are type-checked as overrides are: a
        fraction is refused, not rounded or left to fail inside the build."""
        with pytest.raises(ValueError, match=f"{section}.{key}: expected"):
            ExperimentSpec.from_dict({section: {key: value}})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert cli_main(["spec", "validate", str(path)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_int_in_a_float_field_promotes(self):
        spec = ExperimentSpec.from_dict({"data": {"scale": 1, "beta": 0.5}})
        assert spec.data.scale == 1.0 and isinstance(spec.data.scale, float)

    def test_lr_schedule_blocks_serialization(self):
        spec = ExperimentSpec(config=FLConfig(lr_schedule=lambda r: 1.0))
        with pytest.raises(ValueError, match="cannot be serialized"):
            spec.to_dict()


class TestOverrides:
    def test_parse_override(self):
        assert parse_override("config.rounds=3") == ("config.rounds", 3)
        assert parse_override("runtime.sampler=utility") == ("runtime.sampler", "utility")
        assert parse_override('data.dataset="cifar10-lite"') == ("data.dataset", "cifar10-lite")
        assert parse_override("runtime.deadline=null") == ("runtime.deadline", None)
        assert parse_override("runtime.price_comm=true") == ("runtime.price_comm", True)
        with pytest.raises(ValueError, match="key.path=value"):
            parse_override("config.rounds")
        with pytest.raises(ValueError, match="empty key"):
            parse_override("=3")

    def test_apply_overrides(self):
        spec = tiny_spec().apply_overrides([
            "config.rounds=7", "data.beta=0.6", "method.name=fedcm",
        ])
        assert spec.config.rounds == 7
        assert spec.data.beta == 0.6
        assert spec.method.name == "fedcm"

    def test_nested_kwargs_override(self):
        spec = tiny_spec("fedasync").apply_overrides(["method.kwargs.mixing=0.9"])
        assert spec.method.kwargs["mixing"] == 0.9

    def test_order_independent_cross_section(self):
        # kind and method must change together; either order works
        a = tiny_spec().apply_overrides(
            ["runtime.kind=fedasync", "method.name=fedasync", "runtime.latency=lognormal"])
        b = tiny_spec().apply_overrides(
            ["method.name=fedasync", "runtime.latency=lognormal", "runtime.kind=fedasync"])
        assert a == b
        assert a.runtime.kind == "fedasync"

    def test_whole_section_and_dotted_mix_raises(self):
        with pytest.raises(ValueError, match="one style per section"):
            tiny_spec().override_many([
                ("config.rounds", 5), ("config", FLConfig(rounds=9))])
        with pytest.raises(ValueError, match="one style per section"):
            tiny_spec().override_many([
                ("config", FLConfig(rounds=9)), ("config.rounds", 5)])

    def test_bad_key_raises(self):
        with pytest.raises(ValueError, match="unknown field"):
            tiny_spec().apply_overrides(["nope.x=1"])
        with pytest.raises(ValueError, match="unknown field"):
            tiny_spec().apply_overrides(["config.rouns=3"])

    def test_bad_type_raises(self):
        with pytest.raises(ValueError, match="expected int"):
            tiny_spec().apply_overrides(["config.rounds=soon"])
        with pytest.raises(ValueError, match="expected"):
            tiny_spec().apply_overrides(["data.clients=2.5"])

    def test_invalid_value_raises(self):
        with pytest.raises(ValueError):
            tiny_spec().apply_overrides(["config.rounds=0"])
        with pytest.raises(ValueError):
            tiny_spec().apply_overrides(["data.dataset=atlantis"])

    def test_int_promotes_to_float(self):
        spec = tiny_spec().apply_overrides(["data.beta=1"])
        assert spec.data.beta == 1.0
        assert isinstance(spec.data.beta, float)


class TestSweeps:
    def test_expand_product_order(self):
        grid = expand(tiny_spec(), {"method.name": ["fedavg", "fedcm"],
                                    "config.seed": [0, 1]})
        assert [(s.method.name, s.config.seed) for s in grid] == [
            ("fedavg", 0), ("fedavg", 1), ("fedcm", 0), ("fedcm", 1)]

    def test_expand_empty_grid(self):
        assert expand(tiny_spec(), {}) == [tiny_spec()]

    def test_expand_validates_values(self):
        with pytest.raises(ValueError, match="iterable"):
            expand(tiny_spec(), {"config.rounds": 3})
        with pytest.raises(ValueError):
            expand(tiny_spec(), {"method.name": ["fedavg", "fedmagic"]})

    def test_expand_coupled_axes(self):
        grid = expand(tiny_spec(), {
            "runtime.kind": ["fedbuff"], "method.name": ["fedbuff"],
            "runtime.latency": ["pareto"],
        })
        assert grid[0].runtime.kind == "fedbuff"


class TestFacade:
    def test_build_returns_engine_per_kind(self):
        assert isinstance(build(tiny_spec("sync")), FederatedSimulation)
        assert isinstance(build(tiny_spec("semisync")), SemiSyncFederatedSimulation)
        assert isinstance(build(tiny_spec("fedasync")), AsyncFederatedSimulation)
        assert isinstance(build(tiny_spec("fedbuff")), AsyncFederatedSimulation)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_end_to_end_run(self, kind):
        result = run(tiny_spec(kind))
        assert len(result.history.records) == 2
        assert np.isfinite(result.final_accuracy)
        assert result.final_params is not None
        if kind == "sync":
            assert result.total_virtual_time == 0.0
        else:
            assert result.total_virtual_time > 0.0

    def test_same_spec_same_history(self):
        a = run(tiny_spec("fedbuff"))
        b = run(tiny_spec("fedbuff"))
        assert np.allclose(a.history.accuracy, b.history.accuracy, equal_nan=True)
        assert a.total_virtual_time == b.total_virtual_time

    def test_time_aware_sampler_needs_timed_engine(self):
        # rejected already at spec construction, not at build
        with pytest.raises(ValueError, match="time-aware"):
            tiny_spec("sync").override("runtime.sampler", "utility")
        with pytest.raises(ValueError, match="time-aware"):
            RuntimeSpec(kind="sync", sampler="fast")
        RuntimeSpec(kind="sync", sampler="score")  # untimed samplers fine

    def test_linear_arch_runs_on_flat_view(self):
        result = run(tiny_spec().override("model", ModelSpec(arch="linear")))
        assert np.isfinite(result.final_accuracy)

    def test_semisync_utility_from_json_runs(self, tmp_path):
        spec = tiny_spec("semisync", sampler="utility", adaptive_deadline=0.3)
        path = str(tmp_path / "s.json")
        spec.save(path)
        result = run(ExperimentSpec.load(path))
        assert result.total_virtual_time > 0
        # the engine's sampler received loss feedback (true Oort utility)
        assert result.engine.client_sampler._loss_seen.any()

    def test_price_comm_survives_default_latency(self):
        # latency=None means "implicit constant" — price_comm must still
        # reach the engine instead of being silently dropped
        spec = tiny_spec("semisync", latency=None, price_comm=True,
                         ).override("method", MethodSpec(name="scaffold"))
        engine = build(spec)
        assert engine.latency_model.comm_method == "scaffold"
        unpriced = build(tiny_spec("semisync", latency=None))
        assert engine.latency_model.latency(0, 0) > unpriced.latency_model.latency(0, 0)

    def test_conv_arch_needs_image_data(self):
        arch, kw = resolve_model_alias("conv")
        assert arch == "resnet-lite-18" and kw == {"width": 4}
        spec = tiny_spec().override("model", ModelSpec(arch=arch, kwargs=kw))
        with pytest.raises(ValueError, match="image-shaped"):
            build(spec)  # fashion-mnist-lite is flat


class TestCLI:
    def test_spec_dump_is_loadable(self, capsys):
        rc = cli_main(["spec", "dump", "--algorithm", "semisync", "--sampler",
                       "utility", "--latency", "lognormal", "--clients", "6"])
        assert rc == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.runtime.kind == "semisync"
        assert spec.runtime.sampler == "utility"
        assert spec.data.clients == 6

    def test_cli_defaults_derive_from_dataclasses(self, capsys):
        rc = cli_main(["spec", "dump"])
        assert rc == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        # the old CLI's drifted defaults (batch 10, participation 0.25) are
        # gone: absent flags leave the FLConfig/DataSpec defaults untouched
        assert spec.config.batch_size == FLConfig().batch_size
        assert spec.config.participation == FLConfig().participation
        assert spec.data == DataSpec()

    def test_spec_dump_matches_runtime_defaults(self, capsys):
        # the dumped spec must be the spec `runtime` would actually run:
        # timed kinds default to the lognormal latency model
        rc = cli_main(["spec", "dump", "--algorithm", "fedasync"])
        assert rc == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.runtime.latency == "lognormal"

    def test_spec_validate(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        tiny_spec("fedbuff").save(str(good))
        bad = tmp_path / "bad.json"
        bad.write_text('{"runtime": {"kind": "warp"}}')
        assert cli_main(["spec", "validate", str(good)]) == 0
        assert cli_main(["spec", "validate", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err

    def test_run_with_config_and_set(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        tiny_spec("semisync").save(str(path))
        rc = cli_main(["run", "--config", str(path), "--set", "config.rounds=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total virtual time" in out  # engine kind came from the file

    def test_flags_override_config_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        tiny_spec("sync").save(str(path))
        rc = cli_main(["run", "--config", str(path), "--rounds", "1",
                       "--method", "fedcm"])
        assert rc == 0

    def test_explicit_method_wraps_under_async_config(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        tiny_spec("fedbuff").save(str(path))
        rc = cli_main(["spec", "dump", "--config", str(path),
                       "--method", "scaffold"])
        assert rc == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        # scaffold's local rule will run under the fedbuff server rule
        assert (spec.runtime.kind, spec.method.name) == ("fedbuff", "scaffold")
        # a second staleness-aware rule still cannot nest
        rc = cli_main(["run", "--config", str(path), "--method", "fedasync",
                       "--rounds", "1"])
        assert rc == 2
        assert "cannot run under" in capsys.readouterr().err

    def test_explicit_method_overrides_semisync_config(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        tiny_spec("semisync").save(str(path))
        rc = cli_main(["spec", "dump", "--config", str(path),
                       "--method", "scaffold"])
        assert rc == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.method.name == "scaffold"  # flag beats the file

    def test_sync_run_maps_sampler_and_warns_on_timing_flags(
            self, tmp_path, capsys):
        # a sync-kind config through `runtime` warns for every dropped flag
        path = tmp_path / "spec.json"
        tiny_spec("sync").save(str(path))
        rc = cli_main(["spec", "dump", "--config", str(path),
                       "--latency", "pareto", "--sampler", "score"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "--latency has no effect" in err
        spec = ExperimentSpec.from_json(out)
        assert spec.runtime.sampler == "score"  # sync does consume this

    def test_bad_override_exits_2(self, capsys):
        rc = cli_main(["run", "--set", "config.rounds=soon"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentSpec.from_json('{"config": {"seed": -3}}')
        rc = cli_main(["run", "--set", "config.seed=-3"])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        rc = cli_main(["run", "--config", "/nonexistent/spec.json"])
        assert rc == 2

    def test_compare_with_nested_async_rule_errors_cleanly(self, tmp_path, capsys):
        # racing methods over an async config is allowed for wrappable
        # methods, but a second staleness-aware rule still fails cleanly
        path = tmp_path / "spec.json"
        tiny_spec("fedbuff").save(str(path))
        rc = cli_main(["compare", "--config", str(path),
                       "--methods", "fedavg,fedasync"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestNamedLrSchedule:
    """The serializable {"name": ...} form of config.lr_schedule."""

    def test_named_schedule_survives_json_round_trip(self):
        spec = ExperimentSpec(
            config=FLConfig(rounds=10, lr_schedule={"name": "cosine", "floor": 0.1})
        )
        back = ExperimentSpec.from_json(spec.to_json())
        assert back == spec
        assert back.config.lr_schedule == {"name": "cosine", "floor": 0.1}

    def test_callable_schedule_still_refuses_serialization(self):
        spec = ExperimentSpec(config=FLConfig(lr_schedule=lambda r: 1.0))
        with pytest.raises(ValueError, match="bare callable"):
            spec.to_dict()

    def test_unknown_schedule_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match="named lr_schedule"):
            FLConfig(lr_schedule={"name": "sawtooth"})
        with pytest.raises(ValueError, match="named lr_schedule"):
            FLConfig(lr_schedule={"floor": 0.1})  # missing name

    def test_resolution_matches_make_schedule(self):
        from repro.nn.schedules import make_schedule
        from repro.simulation.config import resolve_lr_schedule

        got = resolve_lr_schedule({"name": "cosine", "floor": 0.2}, rounds=40)
        want = make_schedule("cosine", 40, floor=0.2)
        assert [got(r) for r in range(40)] == [want(r) for r in range(40)]
        # explicit total_rounds wins over the run's round count
        got = resolve_lr_schedule(
            {"name": "cosine", "total_rounds": 10}, rounds=40
        )
        assert got(10) == pytest.approx(0.0)

    def test_engine_applies_named_schedule(self):
        spec = tiny_spec("sync").override(
            "config.lr_schedule", {"name": "step", "step_size": 1, "gamma": 0.5}
        )
        engine = build(spec)
        assert engine.ctx.lr_at(0) == pytest.approx(spec.config.lr_local)
        assert engine.ctx.lr_at(1) == pytest.approx(spec.config.lr_local * 0.5)

    def test_override_accepts_schedule_dict(self):
        spec = tiny_spec("sync").apply_overrides(
            ['config.lr_schedule={"name": "cosine"}']
        )
        assert spec.config.lr_schedule == {"name": "cosine"}

    def test_async_engine_remaps_named_schedule_per_window(self):
        spec = tiny_spec("fedasync").override(
            "config.lr_schedule", {"name": "step", "step_size": 1, "gamma": 0.5}
        )
        engine = build(spec)
        w = engine.window
        sched = engine.ctx.config.lr_schedule
        assert sched(0) == 1.0
        assert sched(w) == 0.5
