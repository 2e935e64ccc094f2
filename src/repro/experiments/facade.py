"""One ``build()`` / ``run()`` facade over every engine family.

This is the single place where an :class:`~repro.experiments.ExperimentSpec`
meets the registries: datasets (:data:`repro.data.DATASET_REGISTRY`), models
(:data:`repro.nn.models.MODEL_REGISTRY`), methods
(:func:`repro.algorithms.make_method`), latency models
(:data:`repro.runtime.LATENCY_MODELS`) and cohort samplers
(:data:`repro.runtime.SAMPLERS`).  Every entry point — the CLI, the
benchmark harness, the examples — goes through here, so a new runtime
feature lands in one file instead of being threaded through each caller.

* :func:`build_problem` — dataset + model builder + config (shared plumbing);
* :func:`build` — a ready-to-run engine for the spec's ``runtime.kind``;
* :func:`run` — execute and wrap the outcome in a :class:`RunResult`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.algorithms import AsyncAdapter, make_method, method_is_parallel_safe
from repro.data import load_federated_dataset
from repro.data.registry import FederatedDataset
from repro.experiments.spec import ExperimentSpec
from repro.parallel import (
    ProcessPoolBackend,
    make_backend,
    resolve_backend,
    resolve_streaming,
)
from repro.nn import build_model, make_linear, make_mlp
from repro.runtime import (
    AsyncFederatedSimulation,
    ConcurrencyController,
    DeadlineController,
    SemiSyncFederatedSimulation,
    TimeAwareSampler,
    make_latency_model,
    make_sampler,
)
from repro.simulation import FLConfig, FederatedSimulation, History

__all__ = [
    "RunResult",
    "MODEL_ALIASES",
    "build",
    "build_problem",
    "replica_builders",
    "resolve_model_alias",
    "run",
    "resume_run",
]

# shorthand arches accepted by the CLI and benchmark harness: "conv" is the
# narrow ResNet backbone the paper-scale benches use
MODEL_ALIASES: dict[str, tuple[str, dict]] = {
    "conv": ("resnet-lite-18", {"width": 4}),
}


def resolve_model_alias(name: str) -> tuple[str, dict]:
    """Map an arch shorthand to ``(registry_name, extra_kwargs)``."""
    arch, kwargs = MODEL_ALIASES.get(name, (name, {}))
    return arch, dict(kwargs)


@dataclass
class RunResult:
    """Outcome of one :func:`run`: the history plus engine-level telemetry."""

    spec: ExperimentSpec
    history: History
    final_params: np.ndarray | None = None
    total_virtual_time: float = 0.0
    engine: object = field(default=None, repr=False)
    #: hot-path profile summary (``HotPathProfiler.as_dict()``) for recorded
    #: runs — the same dict journaled as the run's ``profile`` record
    profile: dict | None = None

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    @property
    def best_accuracy(self) -> float:
        return self.history.best_accuracy

    def time_to_accuracy(self, threshold: float) -> float | None:
        return self.history.time_to_accuracy(threshold)


def build_problem(
    spec: ExperimentSpec,
) -> tuple[FederatedDataset, Callable, FLConfig]:
    """Resolve the spec's data + model registries.

    Returns ``(dataset, model_builder, config)``; ``model_builder`` is a
    zero-arg factory (the async engine ships it to worker processes).
    """
    data, model, cfg = spec.data, spec.model, spec.config
    ds = load_federated_dataset(
        data.dataset,
        imbalance_factor=data.imbalance_factor,
        beta=data.beta,
        num_clients=data.clients,
        seed=cfg.seed,
        partition=data.partition,
        scale=data.scale,
    )
    if model.arch in ("mlp", "linear"):
        # vector-input arches train on the dataset's flat view
        ds = ds.flat_view()
        factory = make_mlp if model.arch == "mlp" else make_linear
        dim, classes, seed, kw = ds.x_train.shape[1], ds.num_classes, cfg.seed, dict(model.kwargs)

        def model_builder():
            return factory(dim, classes, seed=seed, **kw)
    else:
        arch = model.arch
        shape, classes, seed, kw = ds.info.shape, ds.num_classes, cfg.seed, dict(model.kwargs)
        if len(shape) < 3:
            raise ValueError(
                f"model arch {arch!r} needs image-shaped data, but dataset "
                f"{data.dataset!r} has shape {shape}; use arch='mlp'"
            )

        def model_builder():
            return build_model(
                arch,
                in_channels=shape[0],
                image_size=shape[1],
                num_classes=classes,
                seed=seed,
                **kw,
            )
    return ds, model_builder, cfg


# async kinds wrap foreign methods in an AsyncAdapter; the rule's own knobs
# may ride in method.kwargs and are routed to the rule, the rest to the method
_ASYNC_RULE_KEYS = {
    "fedasync": ("mixing", "staleness_exponent"),
    "fedbuff": ("buffer_size", "staleness_exponent"),
}


def replica_builders(
    spec: ExperimentSpec,
) -> tuple[Callable, Callable | None, Callable | None]:
    """``(algo_builder, loss_builder, sampler_builder)`` for worker replicas.

    The single source of how an executing algorithm instance is constructed
    for ``spec`` — :func:`build` uses it for the engine's live instance and
    its pool replicas, and :class:`repro.net.worker.WorkerClient` uses it to
    rebuild the *same* replica from a spec shipped over the wire, which is
    what keeps remote execution bit-identical to the serial reference.
    """
    kind = spec.runtime.kind
    mname, mkwargs = spec.method.name, dict(spec.method.kwargs)
    if kind in _ASYNC_RULE_KEYS and mname.lower() != kind:
        rule_kwargs = {
            k: mkwargs.pop(k) for k in _ASYNC_RULE_KEYS[kind] if k in mkwargs
        }
        bundle = make_method(mname, **mkwargs)

        def algo_builder():
            return AsyncAdapter(
                make_method(mname, **mkwargs).algorithm,
                make_method(kind, **rule_kwargs).algorithm,
            )

        return algo_builder, bundle.loss_builder, bundle.sampler_builder

    def algo_builder():
        return make_method(mname, **mkwargs).algorithm

    if kind in _ASYNC_RULE_KEYS:
        # plain fedasync/fedbuff: the engines get no loss/sampler builders
        # (the kinds' own rules declare none), matching build() exactly
        return algo_builder, None, None
    bundle = make_method(mname, **mkwargs)
    return algo_builder, bundle.loss_builder, bundle.sampler_builder


def _build_sampler(spec: ExperimentSpec, timed: bool):
    """Instantiate the cohort sampler, or None for the default uniform draw."""
    rt = spec.runtime
    if rt.sampler.lower() == "uniform":  # kwargs with uniform fail validation
        return None
    sampler = make_sampler(rt.sampler, **rt.sampler_kwargs)
    if isinstance(sampler, TimeAwareSampler) and not timed:
        raise ValueError(
            f"sampler {rt.sampler!r} is time-aware and needs a priced engine; "
            "use runtime.kind='semisync'"
        )
    return sampler


def build(spec: ExperimentSpec):
    """Construct the engine described by ``spec`` (without running it).

    Returns a :class:`~repro.simulation.FederatedSimulation`,
    :class:`~repro.runtime.SemiSyncFederatedSimulation` or
    :class:`~repro.runtime.AsyncFederatedSimulation` depending on
    ``spec.runtime.kind``.
    """
    rt = spec.runtime
    ds, model_builder, cfg = build_problem(spec)
    # spec-driven runs opt into the REPRO_BACKEND environment default
    # ("auto" resolution); direct engine construction does not
    backend_name = resolve_backend(rt.backend, rt.workers, env=True)
    if backend_name != "serial" and not method_is_parallel_safe(spec.method.name):
        # spec validation already rejects an *explicit* non-serial backend
        # for such methods, so reaching here means a blanket REPRO_BACKEND
        # default — quietly keep the only backend that runs them correctly
        backend_name = "serial"
    # the one place a spec becomes a backend instance; the engine closes it
    # at the end of every run()
    if backend_name == "remote":
        # the remote backend needs run-scoped configuration a bare name
        # cannot carry: the listen address and the spec itself (shipped to
        # workers in the WELCOME handshake so they rebuild replicas)
        from repro.net import RemoteBackend

        backend = RemoteBackend(
            workers=rt.workers, address=rt.backend_address, spec=spec,
            job_batch=rt.job_batch,
        )
    elif backend_name == "process":
        backend = ProcessPoolBackend(
            workers=rt.workers, job_batch=rt.job_batch,
            shared_memory=rt.shared_memory,
        )
    else:
        backend = make_backend(backend_name, rt.workers)

    def make_latency():
        # price_comm must reach the engine even under the default latency:
        # materialize the implicit constant model rather than dropping it
        if rt.latency is None and not rt.price_comm:
            return None
        return make_latency_model(
            rt.latency or "constant",
            comm_method="auto" if rt.price_comm else None,
            **rt.latency_kwargs,
        )

    # worker replicas (pool, remote) and the engine's live instance
    # are constructed the same way — replica_builders is the single source
    algo_builder, loss_builder, sampler_builder = replica_builders(spec)
    problem = (algo_builder(), model_builder(), ds, cfg)
    # what every engine kind hands its shell besides the problem
    shell = dict(
        backend=backend, model_builder=model_builder, algo_builder=algo_builder,
        loss_builder=loss_builder, sampler_builder=sampler_builder,
    )

    if rt.kind == "sync":
        return FederatedSimulation(
            *problem, client_sampler=_build_sampler(spec, timed=False), **shell
        )

    if rt.kind == "semisync":
        deadline = rt.deadline
        if rt.adaptive_deadline is not None:
            deadline = DeadlineController(
                target_drop_rate=rt.adaptive_deadline, initial=rt.deadline
            )
        return SemiSyncFederatedSimulation(
            *problem,
            latency_model=make_latency(),
            deadline=deadline,
            late_weight=rt.late_weight,
            late_policy=rt.late_policy,
            client_sampler=_build_sampler(spec, timed=True),
            **shell,
        )

    controller = None
    if rt.staleness_budget is not None:
        controller = ConcurrencyController(staleness_budget=rt.staleness_budget)
    return AsyncFederatedSimulation(
        *problem,
        latency_model=make_latency(),
        concurrency=rt.concurrency,
        concurrency_controller=controller,
        max_updates=rt.max_updates,
        sampler=_build_sampler(spec, timed=True),
        buffer_ema=rt.buffer_ema,
        # spec-driven runs opt into the REPRO_STREAMING environment
        # default, mirroring the backend resolution above
        streaming=resolve_streaming(rt.streaming, env=True),
        **shell,
    )


def run(
    spec: ExperimentSpec,
    verbose: bool = False,
    stop_after_rounds: int | None = None,
) -> RunResult:
    """Build the spec's engine, run it, and package the outcome.

    When ``spec.runtime.record`` is set the run journals itself under
    ``spec.runtime.run_dir`` (the spec is saved there too, so
    :func:`resume_run` can rebuild the engine) and ``stop_after_rounds``
    checkpoints-and-stops at that round boundary.
    """
    engine = build(spec)
    run_dir = spec.runtime.run_dir if spec.runtime.record else None
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        spec.save(os.path.join(run_dir, "spec.json"))
    return _run_engine(spec, engine, run_dir, verbose, stop_after_rounds)


def resume_run(
    run_dir: str,
    verbose: bool = False,
    stop_after_rounds: int | None = None,
    record: bool = True,
) -> RunResult:
    """Continue a recorded run from its latest round-boundary snapshot.

    Rebuilds the engine from the ``spec.json`` saved alongside the journal,
    restores the core from ``snapshots/round_NNNN.pkl`` and resumes the
    event loop; determinism makes the final history bit-identical to the
    uninterrupted run.  With ``record=True`` (default) the resumed leg
    appends to the same journal.

    Raises:
        FileNotFoundError: the run directory holds no snapshot.
        ValueError: the snapshot was written under another
            ``SNAPSHOT_SCHEMA_VERSION``; the run directory is left untouched.
    """
    from repro.observe import latest_snapshot, load_snapshot

    snap_path = latest_snapshot(run_dir)
    if snap_path is None:
        raise FileNotFoundError(
            f"no snapshots under {run_dir!r}; was the run recorded "
            "(runtime.record=True)?"
        )
    # the snapshot's schema check runs first: a run directory from another
    # version is refused before its spec is parsed (older specs may carry
    # retired keys), before a pool is built and before the journal is opened
    snap = load_snapshot(snap_path)
    spec = ExperimentSpec.load(os.path.join(run_dir, "spec.json"))
    return _run_engine(
        spec, build(spec), run_dir if record else None, verbose,
        stop_after_rounds, resume=snap,
    )


def _run_engine(
    spec: ExperimentSpec, engine, run_dir: str | None, verbose: bool,
    stop_after_rounds: int | None, resume: dict | None = None,
) -> RunResult:
    """Run a built engine and package the outcome; with a ``run_dir`` the
    run journals there and profiles itself (the hot-path summary lands in
    the journal's ``profile`` record and on ``RunResult.profile``)."""
    recorder = profiler = None
    if run_dir is not None:
        from repro.observe import HotPathProfiler, RunRecorder

        recorder = RunRecorder(run_dir)
        profiler = HotPathProfiler()
    try:
        history = engine.run(
            verbose=verbose, recorder=recorder, resume=resume,
            stop_after_rounds=stop_after_rounds, profiler=profiler,
        )
    finally:
        if recorder is not None:
            recorder.close()
    return RunResult(
        spec=spec,
        history=history,
        final_params=engine.final_params,
        total_virtual_time=engine.total_virtual_time,
        engine=engine,
        profile=profiler.as_dict() if profiler is not None else None,
    )
