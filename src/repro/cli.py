"""Command-line interface: ``python -m repro <command>``.

Every command is a thin shim over the declarative experiment API
(:mod:`repro.experiments`): flags assemble an
:class:`~repro.experiments.ExperimentSpec`, ``--config`` loads one from
JSON, ``--set key.path=value`` applies dotted-path overrides, and a single
``run(spec)`` facade drives whichever engine the spec names.

Commands:

* ``run``      — one federated experiment (any engine kind via ``--config``);
                 ``--record DIR`` journals it, ``--resume DIR`` continues a
                 stopped recorded run from its last snapshot.
* ``runtime``  — event-driven run under a virtual clock: ``fedasync`` /
                 ``fedbuff`` asynchronous aggregation or ``semisync``
                 deadline-based rounds, with pluggable client latency models.
* ``serve``    — federation aggregator: the same event-driven run as
                 ``runtime``, but client jobs execute on remote worker
                 processes over TCP (``runtime.backend="remote"``).
* ``worker``   — join a ``serve`` aggregator as a compute worker.
* ``watch``    — tail a recorded run's journal: rolling aggregates
                 (``--summary``) or live follow mode (``-f``).
* ``compare``  — race several methods on one problem (a spec sweep over
                 ``method.name``), ASCII plot + table.
* ``sweep``    — run a grid of dotted-path overrides (optionally on a
                 process pool), report mean/std over ``config.seed``;
                 ``--out`` dumps the full result losslessly.
* ``spec``     — ``dump`` a spec as JSON, or ``validate`` spec files.
* ``methods``  — list available algorithms.
* ``datasets`` — list available -lite datasets.

Examples::

    python -m repro run --method fedwcm --dataset cifar10-lite --if 0.1 --rounds 30
    python -m repro run --config examples/specs/semisync_utility.json --set config.rounds=10
    python -m repro run --config spec.json --record runs/exp1 --stop-after-rounds 20
    python -m repro run --resume runs/exp1
    python -m repro watch runs/exp1 --summary
    python -m repro watch runs/exp1 -f
    python -m repro compare --methods fedavg,fedcm,fedwcm --if 0.05
    python -m repro runtime --algorithm semisync --adaptive-deadline 0.3 \\
        --sampler utility --price-comm --base-method scaffold
    python -m repro runtime --algorithm semisync --deadline 2.5 --late-policy trickle
    python -m repro runtime --algorithm fedbuff --base-method scaffold \\
        --backend process --workers 4
    python -m repro serve --address 0.0.0.0:7700 --workers 2 \\
        --algorithm fedbuff --base-method scaffold
    python -m repro worker --connect aggregator-host:7700
    python -m repro sweep --grid method.name=fedavg,fedcm \\
        --grid config.seed=0,1,2 --backend process --workers 4 --out sweep.json
    python -m repro spec dump --algorithm fedbuff --latency pareto > my_spec.json
    python -m repro spec validate examples/specs/*.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields as dataclass_fields

from repro.algorithms import METHOD_NAMES
from repro.data import DATASET_REGISTRY
from repro.experiments import (
    KIND_FORBIDDEN_KNOBS,
    MODEL_ALIASES,
    DataSpec,
    ExperimentSpec,
    expand,
    resolve_model_alias,
    run_sweep,
)
from repro.experiments import run as run_spec
from repro.nn.models import MODEL_REGISTRY
from repro.parallel import BACKENDS, resolve_backend, resolve_streaming, resolve_workers
from repro.runtime import LATENCY_MODELS, SAMPLERS
from repro.simulation import FLConfig, save_checkpoint, save_history
from repro.viz import ascii_barchart, history_plot

__all__ = ["main", "build_parser", "spec_from_args"]

_SUPPRESS = argparse.SUPPRESS

# ``--model conv`` stays as a convenience alias for the conv backbone the
# benchmarks use; full registry names are accepted too
_MODEL_CHOICES = sorted(set(MODEL_REGISTRY) | set(MODEL_ALIASES))

# argparse defaults are *derived from the dataclasses* (shown in help text,
# applied by simply never overriding the spec), so they cannot drift from
# FLConfig / DataSpec again
_SPEC_DEFAULTS = {
    f"{section}.{f.name}": f.default
    for section, cls in (("data", DataSpec), ("config", FLConfig))
    for f in dataclass_fields(cls)
}


def _seconds(text: str) -> float:
    """argparse type of the flags that take seconds (``repro serve``'s
    timing flags, ``repro watch --poll``): argparse names the flag in its
    error and exits 2, before the aggregator listens or the journal is
    read."""
    from repro.net.service import positive_seconds

    try:
        return positive_seconds(float(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, got {text!r}"
        ) from None


def _hd(text: str, path: str) -> str:
    """Help text carrying the dataclass-derived default."""
    return f"{text} (default: {_SPEC_DEFAULTS[path]})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", default=None,
                       help="load a JSON ExperimentSpec; explicit flags override it")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="dotted-path spec override (repeatable), "
                            "e.g. --set runtime.sampler=utility")

    def add_common(p: argparse.ArgumentParser) -> None:
        add_spec_io(p)
        p.add_argument("--dataset", default=_SUPPRESS, choices=sorted(DATASET_REGISTRY),
                       help=_hd("dataset registry name", "data.dataset"))
        p.add_argument("--if", dest="imbalance_factor", type=float, default=_SUPPRESS,
                       help=_hd("imbalance factor IF in (0, 1]", "data.imbalance_factor"))
        p.add_argument("--beta", type=float, default=_SUPPRESS,
                       help=_hd("Dirichlet concentration", "data.beta"))
        p.add_argument("--clients", type=int, default=_SUPPRESS,
                       help=_hd("number of clients", "data.clients"))
        p.add_argument("--partition", choices=("balanced", "fedgrab"), default=_SUPPRESS,
                       help=_hd("client partition scheme", "data.partition"))
        p.add_argument("--scale", type=float, default=_SUPPRESS,
                       help=_hd("dataset volume multiplier", "data.scale"))
        p.add_argument("--model", choices=_MODEL_CHOICES, default=_SUPPRESS,
                       help="model architecture (default: mlp; 'conv' = resnet-lite-18)")
        p.add_argument("--rounds", type=int, default=_SUPPRESS,
                       help=_hd("communication rounds", "config.rounds"))
        p.add_argument("--batch-size", type=int, default=_SUPPRESS,
                       help=_hd("local minibatch size", "config.batch_size"))
        p.add_argument("--participation", type=float, default=_SUPPRESS,
                       help=_hd("fraction of clients per round", "config.participation"))
        p.add_argument("--local-epochs", type=int, default=_SUPPRESS,
                       help=_hd("local passes per round", "config.local_epochs"))
        p.add_argument("--lr-local", type=float, default=_SUPPRESS,
                       help=_hd("client learning rate", "config.lr_local"))
        p.add_argument("--lr-global", type=float, default=_SUPPRESS,
                       help=_hd("server learning rate", "config.lr_global"))
        p.add_argument("--seed", type=int, default=_SUPPRESS,
                       help=_hd("master seed", "config.seed"))
        p.add_argument("--eval-every", type=int, default=_SUPPRESS,
                       help=_hd("evaluation period in rounds", "config.eval_every"))
        p.add_argument("--max-batches", type=int, default=_SUPPRESS,
                       help="cap on local batches per round (speed knob; default: none)")

    def add_runtime_flags(
        p: argparse.ArgumentParser, kinds: tuple[str, ...], default_kind: str
    ) -> None:
        p.add_argument("--algorithm", default=_SUPPRESS, choices=kinds,
                       help=f"engine kind (default: {default_kind})")
        p.add_argument("--latency", default=_SUPPRESS, choices=sorted(LATENCY_MODELS),
                       help="client latency model (default: lognormal)")
        p.add_argument("--latency-scale", type=float, default=_SUPPRESS,
                       help="global multiplier on priced latencies")
        p.add_argument("--concurrency", type=int, default=_SUPPRESS,
                       help="clients in flight (default: sync cohort size)")
        p.add_argument("--max-updates", type=int, default=_SUPPRESS,
                       help="client updates to process (default: rounds * cohort)")
        p.add_argument("--mixing", type=float, default=_SUPPRESS,
                       help="fedasync mixing rate")
        p.add_argument("--buffer-size", type=int, default=_SUPPRESS,
                       help="fedbuff buffer K")
        p.add_argument("--staleness-exponent", type=float, default=_SUPPRESS,
                       help="polynomial staleness discount exponent")
        p.add_argument("--base-method", default=_SUPPRESS, choices=METHOD_NAMES,
                       help="wrapped algorithm: the method semisync rounds drive, or "
                            "the local rule an async engine runs through an "
                            "AsyncAdapter (default: fedavg / the kind's own rule)")
        p.add_argument("--deadline", type=float, default=_SUPPRESS,
                       help="semisync round deadline in virtual seconds "
                            "(default: wait for all)")
        p.add_argument("--adaptive-deadline", type=float, default=_SUPPRESS,
                       metavar="DROP_RATE",
                       help="tune the semisync deadline toward this drop-rate budget "
                            "(--deadline, if given, seeds the controller)")
        p.add_argument("--late-weight", type=float, default=_SUPPRESS,
                       help="semisync weight for deadline-missing clients (0 = drop)")
        p.add_argument("--late-policy", default=_SUPPRESS,
                       choices=("downweight", "trickle"),
                       help="semisync late-client handling: downweight merges late "
                            "updates same-round (scaled by --late-weight), trickle "
                            "merges each into the round open at its actual arrival")
        p.add_argument("--staleness-budget", type=float, default=_SUPPRESS,
                       help="AIMD-tune async concurrency toward this mean staleness "
                            "(--concurrency seeds the initial limit)")
        p.add_argument("--sampler", default=_SUPPRESS, choices=sorted(SAMPLERS),
                       help="cohort sampler: per-round for semisync, per-dispatch "
                            "for the async engines (time-aware: fast, long-idle, "
                            "utility)")
        p.add_argument("--price-comm", action="store_true", default=_SUPPRESS,
                       help="price the algorithm's CommunicationModel payload into "
                            "latency (FedCM/SCAFFOLD multipliers reach virtual time)")
        p.add_argument("--backend", default=_SUPPRESS, choices=sorted(BACKENDS),
                       help="execution backend for client compute (default: auto "
                            "— REPRO_BACKEND, or process when --workers > 1)")
        p.add_argument("--workers", type=int, default=_SUPPRESS,
                       help="worker count for the process backend")
        p.add_argument("--job-batch", type=int, default=_SUPPRESS,
                       help="jobs per pool task / wire frame for the "
                            "process and remote backends (default: per-job "
                            "dispatch); histories are bit-identical at any "
                            "value")
        p.add_argument("--shared-memory", action=argparse.BooleanOptionalAction,
                       default=_SUPPRESS,
                       help="process backend: ship the broadcast vector via "
                            "POSIX shared memory once per version instead of "
                            "pickling it into every job (default: off)")
        p.add_argument("--buffer-ema", default=_SUPPRESS,
                       choices=("fixed", "staleness"),
                       help="async BatchNorm-buffer EMA: fixed 1/window blend, or "
                            "staleness-discounted 1/(window*(1+tau))")
        p.add_argument("--streaming", action=argparse.BooleanOptionalAction,
                       default=_SUPPRESS,
                       help="async dispatch scheduling: submit each job to the "
                            "backend eagerly (default; overlaps compute with "
                            "event processing) or --no-streaming for lazy "
                            "batches — histories are bit-identical either way")

    def add_outputs(p: argparse.ArgumentParser, timed: bool) -> None:
        if timed:
            p.add_argument("--target-accuracy", type=float, default=None,
                           help="report virtual time to reach this test accuracy")
        p.add_argument("--save-history", metavar="PATH", default=None)
        p.add_argument("--save-checkpoint", metavar="PATH", default=None)

    def add_observe(p: argparse.ArgumentParser) -> None:
        p.add_argument("--record", metavar="RUN_DIR", default=None,
                       help="journal the run under this directory "
                            "(journal.jsonl + resumable snapshots + spec.json)")
        p.add_argument("--stop-after-rounds", type=int, default=None, metavar="N",
                       help="checkpoint and stop once N rounds closed "
                            "(resume with `repro run --resume RUN_DIR`)")

    run_p = sub.add_parser("run", help="run one federated experiment")
    run_p.add_argument("--method", default=_SUPPRESS, choices=METHOD_NAMES,
                       help="algorithm registry name (default: fedwcm)")
    run_p.add_argument("--resume", metavar="RUN_DIR", default=None,
                       help="continue a recorded run from its latest snapshot "
                            "(the spec is read from RUN_DIR/spec.json; other "
                            "spec flags are rejected)")
    add_common(run_p)
    add_outputs(run_p, timed=False)
    add_observe(run_p)

    cmp_p = sub.add_parser("compare", help="race several methods (a spec sweep)")
    cmp_p.add_argument("--methods", default="fedavg,fedcm,fedwcm",
                       help="comma-separated method names")
    add_common(cmp_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a grid of spec overrides, aggregate over seeds"
    )
    sweep_p.add_argument("--method", default=_SUPPRESS, choices=METHOD_NAMES,
                         help="algorithm registry name for the base spec")
    add_common(sweep_p)
    sweep_p.add_argument("--grid", action="append", required=True,
                         metavar="KEY.PATH=V1,V2,...",
                         help="grid axis (repeatable): dotted spec path = "
                              "comma-separated or JSON-list values, e.g. "
                              "--grid config.seed=0,1,2")
    # distinct dests: these drive sweep *dispatch*, not the per-run
    # runtime.backend knob (set that via --set runtime.backend=...)
    sweep_p.add_argument("--backend", dest="sweep_backend", default=None,
                         choices=sorted(BACKENDS),
                         help="where grid points execute (default: serial, or "
                              "REPRO_BACKEND / process when --workers > 1)")
    sweep_p.add_argument("--workers", dest="sweep_workers", type=int, default=None,
                         help="worker count for parallel sweep execution")
    sweep_p.add_argument("--out", metavar="PATH", default=None,
                         help="dump the full sweep result (specs + histories) "
                              "as lossless JSON")

    rt_p = sub.add_parser("runtime", help="event-driven run under a virtual clock")
    add_common(rt_p)
    add_runtime_flags(rt_p, kinds=("fedasync", "fedbuff", "semisync"),
                      default_kind="fedasync")
    add_outputs(rt_p, timed=True)
    add_observe(rt_p)

    serve_p = sub.add_parser(
        "serve", help="federation aggregator: event-driven run on remote workers"
    )
    serve_p.add_argument("--address", required=True, metavar="HOST:PORT",
                         help="address to listen on (port 0 = ephemeral); "
                              "workers join with `repro worker --connect`")
    serve_p.add_argument("--heartbeat-interval", type=_seconds, default=None,
                         metavar="SECONDS",
                         help="worker heartbeat period (default: 1.0)")
    serve_p.add_argument("--heartbeat-timeout", type=_seconds, default=None,
                         metavar="SECONDS",
                         help="silence after which a worker is declared dead and "
                              "its in-flight jobs requeued (default: 5.0)")
    serve_p.add_argument("--worker-timeout", type=_seconds, default=None,
                         metavar="SECONDS",
                         help="how long to wait for the first --workers "
                              "registrations before failing (default: 60)")
    add_common(serve_p)
    add_runtime_flags(serve_p, kinds=("fedasync", "fedbuff", "semisync"),
                      default_kind="fedbuff")
    add_outputs(serve_p, timed=True)
    add_observe(serve_p)

    worker_p = sub.add_parser(
        "worker", help="join a `repro serve` aggregator as a compute worker"
    )
    worker_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="the aggregator's address")
    worker_p.add_argument("--retry", type=float, default=30.0, metavar="SECONDS",
                          help="keep retrying the initial connect this long "
                               "while the aggregator is not up yet (default: 30)")

    watch_p = sub.add_parser(
        "watch", help="tail a recorded run's journal (metrics + progress)"
    )
    watch_p.add_argument("run_dir", metavar="RUN_DIR",
                         help="directory a recorded run journals into")
    watch_p.add_argument("--summary", action="store_true",
                         help="print rolling aggregates once and exit (default)")
    watch_p.add_argument("-f", "--follow", action="store_true",
                         help="follow the live journal, printing rounds and "
                              "warnings as they land; summary on end/Ctrl-C")
    watch_p.add_argument("--poll", type=_seconds, default=0.5, metavar="SECONDS",
                         help="follow-mode poll interval (default: 0.5)")

    spec_p = sub.add_parser("spec", help="dump or validate experiment specs")
    spec_sub = spec_p.add_subparsers(dest="spec_command", required=True)
    dump_p = spec_sub.add_parser(
        "dump", help="print the spec the given flags assemble, as JSON"
    )
    dump_p.add_argument("--method", default=_SUPPRESS, choices=METHOD_NAMES,
                        help="algorithm registry name (default: fedwcm)")
    add_common(dump_p)
    add_runtime_flags(dump_p, kinds=("sync", "fedasync", "fedbuff", "semisync"),
                      default_kind="sync")
    val_p = spec_sub.add_parser("validate", help="validate JSON spec files")
    val_p.add_argument("paths", nargs="+", metavar="SPEC.json")

    sub.add_parser("methods", help="list available algorithms")
    sub.add_parser("datasets", help="list available datasets")
    return parser


# straight flag -> spec-path maps (flags are SUPPRESSed when absent, so only
# explicitly set ones reach the spec; everything else keeps dataclass defaults)
_COMMON_MAP = (
    ("dataset", "data.dataset"),
    ("imbalance_factor", "data.imbalance_factor"),
    ("beta", "data.beta"),
    ("clients", "data.clients"),
    ("partition", "data.partition"),
    ("scale", "data.scale"),
    ("rounds", "config.rounds"),
    ("batch_size", "config.batch_size"),
    ("participation", "config.participation"),
    ("local_epochs", "config.local_epochs"),
    ("lr_local", "config.lr_local"),
    ("lr_global", "config.lr_global"),
    ("seed", "config.seed"),
    ("eval_every", "config.eval_every"),
    ("max_batches", "config.max_batches_per_round"),
)
_SEMISYNC_MAP = (
    ("deadline", "runtime.deadline"),
    ("adaptive_deadline", "runtime.adaptive_deadline"),
    ("late_weight", "runtime.late_weight"),
    ("late_policy", "runtime.late_policy"),
    ("sampler", "runtime.sampler"),
    ("backend", "runtime.backend"),
    ("workers", "runtime.workers"),
    ("job_batch", "runtime.job_batch"),
    ("shared_memory", "runtime.shared_memory"),
)
_ASYNC_MAP = (
    ("concurrency", "runtime.concurrency"),
    ("max_updates", "runtime.max_updates"),
    ("staleness_budget", "runtime.staleness_budget"),
    ("backend", "runtime.backend"),
    ("workers", "runtime.workers"),
    ("job_batch", "runtime.job_batch"),
    ("shared_memory", "runtime.shared_memory"),
    ("buffer_ema", "runtime.buffer_ema"),
    ("streaming", "runtime.streaming"),
    ("sampler", "runtime.sampler"),
)


def _resolve_kind(args, base: ExperimentSpec) -> str:
    """Effective engine kind: explicit flag > config file > command default."""
    kind = getattr(args, "algorithm", None)
    if kind is None:
        if args.config is not None:
            return base.runtime.kind
        kind = {"runtime": "fedasync", "serve": "fedbuff"}.get(args.command, "sync")
    return kind


def spec_from_args(args) -> ExperimentSpec:
    """Assemble the :class:`ExperimentSpec` a parsed namespace describes.

    Precedence: dataclass defaults < ``--config`` file < explicit flags <
    ``--set`` overrides.
    """
    base = ExperimentSpec.load(args.config) if args.config else ExperimentSpec()
    kind = _resolve_kind(args, base)
    items: list[tuple[str, object]] = []
    if kind != base.runtime.kind:
        items.append(("runtime.kind", kind))

    for attr, path in _COMMON_MAP:
        if hasattr(args, attr):
            items.append((path, getattr(args, attr)))

    model = getattr(args, "model", None)
    if model is not None:
        arch, kwargs = resolve_model_alias(model)
        items.append(("model.arch", arch))
        items.append(("model.kwargs", kwargs))

    # which algorithm trains: --method (run), --base-method (semisync and the
    # async engines' wrapped local rule), or the engine kind itself
    if kind in ("fedasync", "fedbuff"):
        bm = getattr(args, "base_method", None)
        m = getattr(args, "method", None)
        if bm is not None and m is not None and bm != m:
            raise ValueError(
                f"--base-method {bm} and --method {m} disagree; "
                "set just one for an async run"
            )
        explicit = bm if bm is not None else m
        if explicit is not None:
            # the kind's own name runs it plain; anything else wraps that
            # method's local rule in an AsyncAdapter under the kind's rule
            items.append(("method.name", explicit))
        elif args.config is None:
            items.append(("method.name", kind))
        for attr, key in (("mixing", "mixing"), ("buffer_size", "buffer_size"),
                          ("staleness_exponent", "staleness_exponent")):
            if hasattr(args, attr) and _kwarg_applies(kind, attr):
                items.append((f"method.kwargs.{key}", getattr(args, attr)))
    elif kind == "semisync":
        # --base-method (runtime) or --method (run with a semisync config)
        bm = getattr(args, "base_method", None)
        m = getattr(args, "method", None)
        if bm is not None and m is not None and bm != m:
            raise ValueError(
                f"--base-method {bm} and --method {m} disagree; "
                "set just one for a semisync run"
            )
        explicit = bm if bm is not None else m
        if explicit is not None:
            items.append(("method.name", explicit))
        elif args.config is None:
            items.append(("method.name", "fedavg"))
    else:  # sync
        if hasattr(args, "method"):
            items.append(("method.name", args.method))
        elif args.config is None:
            items.append(("method.name", "fedwcm"))

    if kind == "sync":
        # the one runtime flag the synchronous engine does consume
        if hasattr(args, "sampler"):
            items.append(("runtime.sampler", args.sampler))
    else:
        if hasattr(args, "latency"):
            items.append(("runtime.latency", args.latency))
        elif args.config is None and args.command in ("runtime", "serve", "spec"):
            # `spec dump` must assemble the same spec `runtime` would run
            items.append(("runtime.latency", "lognormal"))
        if hasattr(args, "latency_scale"):
            items.append(("runtime.latency_kwargs.scale", args.latency_scale))
        if hasattr(args, "price_comm"):
            items.append(("runtime.price_comm", True))
        per_kind = _SEMISYNC_MAP if kind == "semisync" else _ASYNC_MAP
        for attr, path in per_kind:
            if hasattr(args, attr):
                items.append((path, getattr(args, attr)))

    if getattr(args, "record", None):
        items.append(("runtime.record", True))
        items.append(("runtime.run_dir", args.record))

    spec = base.override_many(items)
    return spec.apply_overrides(args.overrides)


def _kwarg_applies(kind: str, attr: str) -> bool:
    return {
        "mixing": kind == "fedasync",
        "buffer_size": kind == "fedbuff",
        "staleness_exponent": True,
    }[attr]


# spec-level knob -> the CLI flags that feed it (knobs with no flag map to
# nothing; "latency" also covers the scale shorthand)
_KNOB_FLAGS = {
    "latency": ("latency", "latency_scale"),
    "latency_kwargs": (),
    "sampler_kwargs": (),
}
# method-level flags (not runtime knobs) each kind cannot consume
_METHOD_FLAGS_UNUSED = {
    "sync": ("mixing", "buffer_size", "staleness_exponent", "base_method"),
    "semisync": ("mixing", "buffer_size", "staleness_exponent"),
    "fedasync": ("buffer_size",),
    "fedbuff": ("mixing",),
}


def _warn_unused_runtime_flags(args, kind: str) -> None:
    """Flag explicitly set options the chosen engine kind silently ignores.

    The runtime-knob list derives from the spec's own
    :data:`~repro.experiments.KIND_FORBIDDEN_KNOBS` table, so the warning
    and the spec validation cannot drift apart.
    """
    unused = [
        flag
        for knob in KIND_FORBIDDEN_KNOBS[kind]
        for flag in _KNOB_FLAGS.get(knob, (knob,))
    ]
    unused.extend(_METHOD_FLAGS_UNUSED[kind])
    for name in unused:
        if hasattr(args, name):
            print(
                f"note: --{name.replace('_', '-')} has no effect with "
                f"--algorithm {kind}",
                file=sys.stderr,
            )


def _assemble(args) -> ExperimentSpec | None:
    """Build the spec, reporting assembly problems as a clean CLI error.

    Only spec construction is guarded — errors raised later, while the
    experiment runs, keep their tracebacks (they indicate bugs, not bad
    flags).
    """
    try:
        return spec_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _env_ok(spec: ExperimentSpec) -> bool:
    """Read ``REPRO_BACKEND``, ``REPRO_MAX_WORKERS`` and, for the async
    kinds, ``REPRO_STREAMING`` as the facade's ``build`` will, so a bad value
    is a clean CLI error before any dataset loads."""
    rt = spec.runtime
    try:
        if resolve_backend(rt.backend, rt.workers, env=True) == "process":
            resolve_workers(rt.workers)
        if rt.kind in ("fedasync", "fedbuff"):
            resolve_streaming(rt.streaming, env=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _execute(args, spec: ExperimentSpec, verbose: bool = True) -> int:
    """Shared body of ``run``, ``runtime`` and ``serve``: spec -> facade ->
    reports."""
    if not _env_ok(spec):
        return 2
    result = run_spec(
        spec, verbose=verbose,
        stop_after_rounds=getattr(args, "stop_after_rounds", None),
    )
    return _report(args, result)


def _report(args, result) -> int:
    """Post-run reporting shared by fresh, recorded and resumed runs."""
    spec, history = result.spec, result.history
    timed = spec.runtime.kind != "sync"
    if spec.runtime.record and spec.runtime.run_dir:
        stop_n = getattr(args, "stop_after_rounds", None)
        hint = (
            f"  (stopped; resume with `repro run --resume {spec.runtime.run_dir}`)"
            if stop_n is not None and len(history.records) == stop_n
            else ""
        )
        print(f"\nrecorded -> {spec.runtime.run_dir}{hint}")
    if timed:
        print(f"\nfinal accuracy:     {history.final_accuracy:.4f}")
        print(f"best accuracy:      {history.best_accuracy:.4f}")
        print(f"total virtual time: {result.total_virtual_time:.2f}s")
    else:
        print(f"\nfinal accuracy: {history.final_accuracy:.4f}")
        print(f"best accuracy:  {history.best_accuracy:.4f}")
    if getattr(args, "target_accuracy", None) is not None:
        tta = history.time_to_accuracy(args.target_accuracy)
        reached = f"{tta:.2f}s" if tta is not None else "never reached"
        print(f"time to {args.target_accuracy:.2f} accuracy: {reached}")
    if args.save_history:
        save_history(args.save_history, history)
        print(f"history -> {args.save_history}")
    if args.save_checkpoint:
        extras = {"virtual_time": result.total_virtual_time} if timed else None
        save_checkpoint(args.save_checkpoint, result.final_params,
                        result.engine.ctx.spec,
                        round_idx=len(history.records) - 1, extras=extras)
        print(f"checkpoint -> {args.save_checkpoint}")
    return 0


def cmd_run(args) -> int:
    if args.resume:
        if args.config or args.overrides or args.record:
            print(
                "error: --resume reads the spec from RUN_DIR/spec.json; "
                "it cannot combine with --config/--set/--record",
                file=sys.stderr,
            )
            return 2
        from repro.experiments import resume_run

        try:
            result = resume_run(
                args.resume, verbose=True,
                stop_after_rounds=args.stop_after_rounds,
            )
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _report(args, result)
    spec = _assemble(args)
    if spec is None:
        return 2
    return _execute(args, spec, verbose=True)


def cmd_runtime(args) -> int:
    spec = _assemble(args)
    if spec is None:
        return 2
    _warn_unused_runtime_flags(args, spec.runtime.kind)
    return _execute(args, spec, verbose=True)


def cmd_serve(args) -> int:
    backend = getattr(args, "backend", None)
    if backend not in (None, "auto", "remote"):
        print(
            f"error: repro serve always runs on the remote backend; "
            f"drop --backend {backend}",
            file=sys.stderr,
        )
        return 2
    spec = _assemble(args)
    if spec is None:
        return 2
    try:
        spec = spec.override_many([
            ("runtime.backend", "remote"),
            ("runtime.backend_address", args.address),
        ])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # deployment knobs travel to the service via its env defaults; each is
    # checked here, so a bad value exits 2 before the aggregator listens
    from repro.net.service import TIMING_ENV, env_inflight, env_seconds

    for flag, env in (
        ("heartbeat_interval", "REPRO_NET_HEARTBEAT"),
        ("heartbeat_timeout", "REPRO_NET_HEARTBEAT_TIMEOUT"),
        ("worker_timeout", "REPRO_NET_WORKER_TIMEOUT"),
    ):
        value = getattr(args, flag)
        if value is not None:
            os.environ[env] = str(value)
    try:
        for env in TIMING_ENV:
            env_seconds(env)
        env_inflight()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _warn_unused_runtime_flags(args, spec.runtime.kind)
    return _execute(args, spec, verbose=True)


def cmd_worker(args) -> int:
    from repro.net import run_worker
    from repro.net.framing import parse_address

    try:
        parse_address(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_worker(args.connect, connect_timeout=args.retry)


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        print(f"unknown methods: {unknown}; see `python -m repro methods`", file=sys.stderr)
        return 2
    base = _assemble(args)
    if base is None or not _env_ok(base):
        return 2
    try:
        specs = expand(base, {"method.name": methods})
    except ValueError as exc:  # e.g. an async-kind --config can't race methods
        print(f"error: {exc}", file=sys.stderr)
        return 2
    histories = {}
    for s in specs:
        m = s.method.name
        histories[m] = run_spec(s, verbose=False).history
        print(f"{m:24s} final={histories[m].final_accuracy:.4f}")
    print()
    spec_data = base.data
    print(history_plot(histories, title=(
        f"{spec_data.dataset}  IF={spec_data.imbalance_factor}  beta={spec_data.beta}"
    )))
    print()
    print(ascii_barchart(
        {m: h.final_accuracy for m, h in histories.items()}, title="final accuracy"
    ))
    return 0


def parse_grid_axis(text: str) -> tuple[str, list]:
    """Split one ``--grid dotted.path=v1,v2,...`` axis.

    The value side parses as a JSON list, a single JSON scalar (wrapped into
    a one-value axis), or a comma-separated sequence whose elements each
    parse as JSON with a bare-string fallback — so both
    ``--grid config.seed=0,1,2`` and ``--grid method.name=fedavg,fedcm``
    read naturally.
    """
    if "=" not in text:
        raise ValueError(f"grid axis {text!r} must look like key.path=v1,v2,...")
    path, raw = text.split("=", 1)
    path = path.strip()
    if not path:
        raise ValueError(f"grid axis {text!r} has an empty key path")
    raw = raw.strip()
    try:
        value = json.loads(raw)
        return path, value if isinstance(value, list) else [value]
    except json.JSONDecodeError:
        pass
    values = []
    for part in raw.split(","):
        part = part.strip()
        try:
            values.append(json.loads(part))
        except json.JSONDecodeError:
            values.append(part)  # bare string
    return path, values


def cmd_sweep(args) -> int:
    base = _assemble(args)
    if base is None:
        return 2
    try:
        grid: dict[str, list] = {}
        for text in args.grid:
            path, values = parse_grid_axis(text)
            if path in grid:
                raise ValueError(
                    f"grid axis {path!r} given twice; merge the values into "
                    "one --grid flag"
                )
            grid[path] = values
        result = run_sweep(
            base, grid, backend=args.sweep_backend, workers=args.sweep_workers
        )
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        result.save(args.out)
        print(f"sweep result -> {args.out}")
    for assignment, point in zip(result.assignments, result.results):
        label = "  ".join(f"{k}={v}" for k, v in assignment.items()) or "(base)"
        print(f"{label:60s} final={point.final_accuracy:.4f} "
              f"best={point.best_accuracy:.4f}")
    rows = result.aggregate()
    print()
    header = [*result.group_axes, "n", "final", "best"]
    lines = [
        [
            *(str(row[a]) for a in result.group_axes),
            str(row["n"]),
            f"{row['final_mean']:.4f}±{row['final_std']:.4f}",
            f"{row['best_mean']:.4f}±{row['best_std']:.4f}",
        ]
        for row in rows
    ]
    widths = [
        max(len(header[j]), max((len(r[j]) for r in lines), default=0))
        for j in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in lines:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return 0


def cmd_spec(args) -> int:
    if args.spec_command == "dump":
        spec = _assemble(args)
        if spec is None:
            return 2
        _warn_unused_runtime_flags(args, spec.runtime.kind)
        print(spec.to_json())
        return 0
    # validate
    failed = 0
    for path in args.paths:
        try:
            ExperimentSpec.load(path)
        except (ValueError, OSError, KeyError) as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            failed += 1
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


def _watch_line(rec: dict) -> str | None:
    """One follow-mode console line per journal record (None = silent)."""
    t = rec.get("type")
    if t == "meta":
        return (f"run: {rec.get('algorithm')} / {rec.get('policy')} / "
                f"backend={rec.get('backend')}  "
                f"clients={rec.get('num_clients')}  seed={rec.get('seed')}")
    if t == "resume":
        return f"resumed at round {rec.get('round')}  t={rec.get('t', 0.0):.2f}s"
    if t == "round":
        acc = rec.get("test_accuracy")
        acc_s = f"acc={acc:.4f}" if acc is not None else "acc=n/a"
        return (f"round {rec.get('round'):4d}  t={rec.get('t', 0.0):9.2f}s  "
                f"{acc_s}  clients={len(rec.get('selected') or [])}")
    if t == "warning":
        return f"WARNING [{rec.get('logger')}] {rec.get('message')}"
    if t == "stop":
        return f"stopped at round {rec.get('round')} (checkpointed)"
    if t == "end":
        acc = rec.get("final_accuracy")
        return "run finished" + (f"  final acc={acc:.4f}" if acc is not None else "")
    return None


def cmd_watch(args) -> int:
    from repro.observe import JournalTailer, MetricsStore, journal_path

    path = journal_path(args.run_dir)
    if not args.follow:
        if not os.path.exists(path):
            print(f"error: no journal at {path}", file=sys.stderr)
            return 2
        print(MetricsStore.from_journal(path).summary())
        return 0
    import time as _time

    tailer = JournalTailer(path)
    store = MetricsStore()
    try:
        while True:
            batch = tailer.poll()
            for rec in batch:
                store.ingest(rec)
                line = _watch_line(rec)
                if line:
                    print(line, flush=True)
            if store.ended or store.stopped:
                break
            _time.sleep(args.poll)
    except KeyboardInterrupt:
        pass
    print()
    print(store.summary())
    return 0


def cmd_methods(_args) -> int:
    for name in METHOD_NAMES:
        print(name)
    return 0


def cmd_datasets(_args) -> int:
    for name, info in sorted(DATASET_REGISTRY.items()):
        print(f"{name:20s} classes={info.num_classes:<4d} shape={info.shape} "
              f"({info.paper_counterpart})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {
            "run": cmd_run,
            "compare": cmd_compare,
            "sweep": cmd_sweep,
            "runtime": cmd_runtime,
            "serve": cmd_serve,
            "worker": cmd_worker,
            "watch": cmd_watch,
            "spec": cmd_spec,
            "methods": cmd_methods,
            "datasets": cmd_datasets,
        }[args.command](args)
    except BrokenPipeError:  # e.g. `repro methods | head`
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
