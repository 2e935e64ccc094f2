"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single, serializable description of one
federated run: *what data* (:class:`DataSpec`), *what model*
(:class:`ModelSpec`), *what method* (:class:`MethodSpec`), *which engine and
scheduling* (:class:`RuntimeSpec`) and *which hyper-parameters*
(:class:`repro.simulation.FLConfig`).  A scenario is data, not code:

* lossless ``to_dict()`` / ``from_dict()`` and JSON file round-trips
  (``save`` / ``load``), with unknown keys rejected so typos can't silently
  become defaults;
* dotted-path overrides — ``apply_overrides(spec,
  ["runtime.sampler=utility", "config.rounds=50"])`` — with values parsed as
  JSON and type-checked against the target field;
* validation at construction: every registry name (dataset, model, method,
  latency model, sampler) is checked against its registry the moment the
  spec exists, not when the run starts.

The companion facade (:mod:`repro.experiments.facade`) turns a spec into a
running engine; :mod:`repro.experiments.sweeps` expands one spec plus a grid
into many.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from dataclasses import dataclass, field

from repro.algorithms import (
    METHOD_NAMES,
    method_is_parallel_safe,
    method_requires_aggregate,
)
from repro.data import DATASET_REGISTRY
from repro.nn.models import MODEL_REGISTRY
from repro.parallel import BACKENDS
from repro.runtime import (
    BUFFER_EMA_MODES,
    LATE_POLICIES,
    LATENCY_MODELS,
    SAMPLERS,
    TimeAwareSampler,
)
from repro.simulation import FLConfig
from repro.utils.validation import check_fraction, check_positive, positive_count

__all__ = [
    "DataSpec",
    "ModelSpec",
    "MethodSpec",
    "RuntimeSpec",
    "ExperimentSpec",
    "ENGINE_KINDS",
    "KIND_FORBIDDEN_KNOBS",
    "apply_overrides",
    "parse_override",
]

ENGINE_KINDS = ("sync", "semisync", "fedasync", "fedbuff")

# engine kinds whose MethodSpec must name a staleness-aware algorithm
_ASYNC_KINDS = ("fedasync", "fedbuff")

# runtime knobs each engine kind cannot consume — the single source of truth
# shared by RuntimeSpec validation and the CLI's unused-flag warnings.
# backend / workers appear nowhere: every kind dispatches client compute
# through the execution-backend layer (repro.parallel.backend)
KIND_FORBIDDEN_KNOBS: dict[str, tuple[str, ...]] = {
    "sync": (
        "latency", "price_comm", "deadline", "adaptive_deadline",
        "late_weight", "late_policy", "concurrency", "staleness_budget",
        "max_updates", "buffer_ema", "streaming",
    ),
    "semisync": (
        "concurrency", "staleness_budget", "max_updates", "buffer_ema",
        "streaming",
    ),
    "fedasync": ("deadline", "adaptive_deadline", "late_weight", "late_policy"),
    "fedbuff": ("deadline", "adaptive_deadline", "late_weight", "late_policy"),
}


def _check_jsonable(value, where: str) -> None:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{where} must be JSON-serializable (str/int/float/bool/None and "
            f"nested lists/dicts thereof), got {value!r}"
        ) from None


@dataclass(frozen=True)
class DataSpec:
    """The federated data distribution: which dataset, how skewed, how split.

    Attributes:
        dataset: registry key (see :data:`repro.data.DATASET_REGISTRY`).
        imbalance_factor: long-tail IF in (0, 1]; 1 = balanced.
        beta: Dirichlet concentration of the client partition.
        clients: number of clients K.
        partition: ``"balanced"`` (equal quantities) or ``"fedgrab"``
            (quantity-skewed per-class Dirichlet).
        scale: multiplier on per-class sample volumes (speed knob).
    """

    dataset: str = "fashion-mnist-lite"
    imbalance_factor: float = 0.1
    beta: float = 0.1
    clients: int = 20
    partition: str = "balanced"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_REGISTRY:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; available: {sorted(DATASET_REGISTRY)}"
            )
        check_fraction(self.imbalance_factor, "imbalance_factor")
        check_positive(self.beta, "beta")
        object.__setattr__(self, "clients", positive_count(self.clients, "clients"))
        if self.partition not in ("balanced", "fedgrab"):
            raise ValueError(
                f"partition must be 'balanced' or 'fedgrab', got {self.partition!r}"
            )
        check_positive(self.scale, "scale")


@dataclass(frozen=True)
class ModelSpec:
    """The global model architecture.

    ``arch="mlp"`` trains on the dataset's *flat view* (images flattened to
    vectors); any other registry name (``resnet-lite-18`` / ``-34`` /
    ``linear``) keeps the image geometry and receives ``in_channels`` /
    ``image_size`` / ``num_classes`` derived from the dataset.  ``kwargs``
    forwards extra constructor arguments (e.g. ``{"width": 4}``).
    """

    arch: str = "mlp"
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.arch not in MODEL_REGISTRY:
            raise ValueError(
                f"unknown model arch {self.arch!r}; available: {sorted(MODEL_REGISTRY)}"
            )
        _check_jsonable(self.kwargs, "model.kwargs")


@dataclass(frozen=True)
class MethodSpec:
    """The federated algorithm: registry name plus hyper-parameters.

    Under ``runtime.kind`` in ``("fedasync", "fedbuff")`` the name selects
    the *local* training rule: naming the kind itself runs plain
    FedAsync/FedBuff, while any other method (SCAFFOLD, FedDyn, the SAM
    family, ...) is wrapped in an :class:`~repro.algorithms.AsyncAdapter` —
    its ``client_update`` under the kind's staleness-aware server rule.  In
    the wrapped case the rule's knobs (``mixing`` / ``buffer_size`` /
    ``staleness_exponent``) may still ride in ``kwargs``; they are routed to
    the rule, everything else to the base method.
    """

    name: str = "fedavg"
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name.lower() not in METHOD_NAMES:
            raise ValueError(
                f"unknown method {self.name!r}; available: {METHOD_NAMES}"
            )
        _check_jsonable(self.kwargs, "method.kwargs")


@dataclass(frozen=True)
class RuntimeSpec:
    """Which engine runs the method, and every scheduling knob around it.

    Attributes:
        kind: ``"sync"`` (lock-step rounds), ``"semisync"`` (deadline-based
            rounds wrapping the method), ``"fedasync"`` / ``"fedbuff"``
            (event-driven staleness-aware aggregation).
        latency: latency-model registry name pricing client responses
            (``None`` = untimed for sync, constant for the timed engines).
        latency_kwargs: forwarded to the latency model constructor
            (``scale``, ``sigma``, ``alpha``, ...).
        price_comm: resolve the method's :class:`CommunicationModel` payload
            into the priced latency (``comm_method="auto"``).
        sampler: cohort sampler registry name (``uniform`` keeps the
            context's default stream).  For semisync the sampler draws whole
            cohorts; for fedasync/fedbuff it must be time-aware and picks
            each replacement dispatch (``pick_next``).
        sampler_kwargs: forwarded to the sampler constructor.
        deadline: semi-sync round deadline in virtual seconds (None = wait
            for the slowest client).
        adaptive_deadline: drop-rate budget for a
            :class:`~repro.runtime.scheduling.DeadlineController` (None =
            fixed deadline); ``deadline`` then seeds the controller.
        late_weight: semi-sync weight for deadline-missing clients
            (``late_policy="downweight"`` only).
        late_policy: semi-sync late-client handling — ``"downweight"``
            merges late updates into their own round scaled by
            ``late_weight`` (the same-round approximation), ``"trickle"``
            merges each into the round open at its actual arrival.
        concurrency: async clients in flight (None = sync cohort size).
        staleness_budget: AIMD concurrency control target (None = fixed).
        max_updates: async total client updates (None = rounds x cohort).
        backend: execution backend for client compute, any engine kind —
            ``"serial"``, ``"process"`` (fork pool), ``"remote"`` (the
            :mod:`repro.net` federation service: this process listens on
            ``backend_address`` and jobs execute on ``repro worker``
            processes over TCP), or ``"auto"`` (default):
            the ``REPRO_BACKEND`` environment variable if set, else
            ``"process"`` when ``workers`` asks for more than one, else
            ``"serial"``.  Stateful methods and BatchNorm buffers run
            bit-identically on every backend (packed state rides the job
            contract).
        backend_address: ``"host:port"`` the remote backend's aggregator
            listens on (port 0 = OS-assigned); only meaningful with
            ``backend="remote"`` (or ``"auto"`` resolving there via
            ``REPRO_BACKEND=remote``).  ``None`` with ``backend="remote"``
            falls back to ``REPRO_BACKEND_ADDRESS`` at run time.
        workers: worker count for pool backends (None = the backend default:
            ``REPRO_MAX_WORKERS`` or the capped CPU count); for
            ``backend="remote"`` it is the number of worker registrations
            the run waits for before starting.
        job_batch: jobs shipped per transport unit — one pool task
            (``backend="process"``) or one wire frame
            (``backend="remote"``) carries up to this many jobs, amortizing
            pickling and per-message overhead across the batch.  None
            (default) ships one job per unit.  Histories are bit-identical
            at any value (jobs are stamped at dispatch and results applied
            in virtual-time order).
            Transport-only, so the serial backend rejects it.
        shared_memory: ``backend="process"`` only — publish the broadcast
            vector (and round-stable broadcast arrays) into POSIX shared
            memory once per version; jobs carry small descriptors and pool
            workers attach read-only, so the model is no longer pickled
            into every job.  None (default) leaves it off.  Bit-identical
            either way.
        buffer_ema: async server-side buffer EMA mode — ``"fixed"``
            (1/window blend, default) or ``"staleness"`` (stale arrivals
            discounted at ``1/(window * (1 + tau))``, mirroring the
            parameter rule).
        streaming: async dispatch scheduling — True submits each dispatch's
            job to the backend the moment it is issued (overlapping worker
            compute with event processing), False accumulates lazy batches,
            None (default) resolves via the ``REPRO_STREAMING`` environment
            variable, else on.  Histories are bit-identical either way (the
            knob only trades wall-clock overlap), and the serial backend
            always uses the lazy-batch path; round engines (sync/semisync)
            submit whole cohorts regardless, so the knob is async-only.
        record: attach a :class:`~repro.observe.RunRecorder`: every typed
            event becomes a ``journal.jsonl`` record under ``run_dir`` and
            round boundaries snapshot resumable state (valid for every
            kind; requires ``run_dir``).
        run_dir: artifact directory for the recorded run (journal,
            snapshots, the spec itself); requires ``record=True``.
    """

    kind: str = "sync"
    latency: str | None = None
    latency_kwargs: dict = field(default_factory=dict)
    price_comm: bool = False
    sampler: str = "uniform"
    sampler_kwargs: dict = field(default_factory=dict)
    deadline: float | None = None
    adaptive_deadline: float | None = None
    late_weight: float = 0.0
    late_policy: str = "downweight"
    concurrency: int | None = None
    staleness_budget: float | None = None
    max_updates: int | None = None
    backend: str = "auto"
    backend_address: str | None = None
    workers: int | None = None
    job_batch: int | None = None
    shared_memory: bool | None = None
    buffer_ema: str = "fixed"
    streaming: bool | None = None
    record: bool = False
    run_dir: str | None = None

    def __post_init__(self) -> None:
        # normalize once so every later comparison (and resolve_backend)
        # sees the same casing
        object.__setattr__(self, "backend", self.backend.lower())
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown engine kind {self.kind!r}; available: {ENGINE_KINDS}")
        if self.latency is not None and self.latency.lower() not in LATENCY_MODELS:
            raise ValueError(
                f"unknown latency model {self.latency!r}; available: {sorted(LATENCY_MODELS)}"
            )
        if self.sampler.lower() not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; available: {sorted(SAMPLERS)}"
            )
        _check_jsonable(self.latency_kwargs, "runtime.latency_kwargs")
        _check_jsonable(self.sampler_kwargs, "runtime.sampler_kwargs")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0 or None, got {self.deadline}")
        if self.adaptive_deadline is not None and not 0.0 <= self.adaptive_deadline < 1.0:
            raise ValueError(
                f"adaptive_deadline (drop-rate budget) must be in [0, 1), "
                f"got {self.adaptive_deadline}"
            )
        if not 0.0 <= self.late_weight <= 1.0:
            raise ValueError(f"late_weight must be in [0, 1], got {self.late_weight}")
        if self.late_policy not in LATE_POLICIES:
            raise ValueError(
                f"late_policy must be one of {LATE_POLICIES}, got {self.late_policy!r}"
            )
        if self.late_policy == "trickle" and self.late_weight != 0.0:
            raise ValueError(
                "late_weight only applies to late_policy='downweight' "
                "(trickled updates merge at full weight when they arrive)"
            )
        for name in ("concurrency", "max_updates", "workers", "job_batch"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, positive_count(getattr(self, name), name))
        if self.staleness_budget is not None and self.staleness_budget < 0:
            raise ValueError(
                f"staleness_budget must be >= 0, got {self.staleness_budget}"
            )
        if self.backend != "auto" and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; available: "
                f"{['auto', *sorted(BACKENDS)]}"
            )
        if self.backend_address is not None:
            if self.backend not in ("auto", "remote"):
                raise ValueError(
                    f"backend_address={self.backend_address!r} only applies "
                    f"to backend='remote', got backend={self.backend!r}"
                )
            # reuse the net layer's parser so "what validates" and "what
            # binds" cannot disagree (imported lazily: repro.net imports
            # the job contract from repro.parallel, which this module uses)
            from repro.net.framing import parse_address

            parse_address(self.backend_address)
        if self.backend == "serial" and (self.workers or 1) > 1:
            raise ValueError(
                f"backend='serial' contradicts workers={self.workers}; "
                "use backend='process' for parallel client compute"
            )
        if self.job_batch is not None and self.backend == "serial":
            raise ValueError(
                f"job_batch={self.job_batch} only applies to transport "
                f"backends ('process', 'remote'), got backend={self.backend!r}"
            )
        if self.shared_memory and self.backend not in ("auto", "process"):
            raise ValueError(
                "shared_memory=True only applies to backend='process' "
                f"(pool workers attach the segments), got "
                f"backend={self.backend!r}"
            )
        if self.buffer_ema not in BUFFER_EMA_MODES:
            raise ValueError(
                f"buffer_ema must be one of {BUFFER_EMA_MODES}, got {self.buffer_ema!r}"
            )
        if self.record and not self.run_dir:
            raise ValueError(
                "record=True needs runtime.run_dir to name the artifact "
                "directory (journal + snapshots)"
            )
        if self.run_dir and not self.record:
            raise ValueError(
                f"run_dir={self.run_dir!r} has no effect without record=True"
            )
        # knobs the chosen engine kind cannot consume are hard errors here —
        # a spec that silently ignored them would lie about the run it names
        if (
            self.kind == "sync"
            and isinstance(SAMPLERS.get(self.sampler.lower()), type)
            and issubclass(SAMPLERS[self.sampler.lower()], TimeAwareSampler)
        ):
            raise ValueError(
                f"sampler {self.sampler!r} is time-aware and needs a priced "
                "engine; use kind='semisync'"
            )
        if (
            self.kind in _ASYNC_KINDS
            and self.sampler.lower() != "uniform"
            and not issubclass(SAMPLERS[self.sampler.lower()], TimeAwareSampler)
        ):
            raise ValueError(
                f"sampler {self.sampler!r} has no per-dispatch interface; the "
                "async engines need a time-aware sampler "
                "(fast, long-idle, utility) or 'uniform'"
            )
        if self.sampler.lower() == "uniform" and self.sampler_kwargs:
            raise ValueError(
                "sampler_kwargs requires a non-uniform sampler "
                f"(the default draw takes no arguments), got {self.sampler_kwargs}"
            )
        if self.latency is None and self.latency_kwargs:
            raise ValueError(
                "latency_kwargs requires runtime.latency to name a model "
                f"(got kwargs {self.latency_kwargs} with latency=None); "
                "use latency='constant' for the default model"
            )
        set_knobs = {
            "latency": self.latency is not None,
            "price_comm": self.price_comm,
            "sampler": self.sampler.lower() != "uniform",
            "sampler_kwargs": bool(self.sampler_kwargs),
            "deadline": self.deadline is not None,
            "adaptive_deadline": self.adaptive_deadline is not None,
            "late_weight": self.late_weight != 0.0,
            "late_policy": self.late_policy != "downweight",
            "concurrency": self.concurrency is not None,
            "staleness_budget": self.staleness_budget is not None,
            "max_updates": self.max_updates is not None,
            "buffer_ema": self.buffer_ema != "fixed",
            "streaming": self.streaming is not None,
        }
        bad = [k for k in KIND_FORBIDDEN_KNOBS[self.kind] if set_knobs[k]]
        if bad:
            hint = (
                "use kind='semisync' with deadline=None for a timed synchronous run"
                if self.kind == "sync"
                else f"kind={self.kind!r} cannot consume them"
            )
            raise ValueError(
                f"runtime knob(s) {bad} have no effect with kind={self.kind!r}; {hint}"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, serializable federated experiment."""

    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    method: MethodSpec = field(default_factory=MethodSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    config: FLConfig = field(default_factory=FLConfig)
    name: str = ""

    def __post_init__(self) -> None:
        kind = self.runtime.kind
        mname = self.method.name.lower()
        # the event-driven kinds ARE their aggregation rule; any *other*
        # method runs its local rule under that rule via an AsyncAdapter —
        # except a second staleness-aware rule, which cannot nest
        if kind in _ASYNC_KINDS and mname in _ASYNC_KINDS and mname != kind:
            raise ValueError(
                f"method.name={self.method.name!r} is itself a staleness-aware "
                f"rule and cannot run under runtime.kind={kind!r}; name the "
                "kind's own method, or a synchronous method to wrap"
            )
        if kind in _ASYNC_KINDS and method_requires_aggregate(mname):
            raise ValueError(
                f"method {self.method.name!r} broadcasts server state that "
                "only aggregate() refreshes (frozen under async rules); use "
                "runtime.kind='semisync' for deadline-based straggler handling"
            )
        # stateful x workers needs no check anymore: packed client state
        # rides the execution backends' job contract on every engine kind.
        # Methods whose state stays OUTSIDE those contracts are the one
        # remaining exception — worker replicas would silently diverge
        if not method_is_parallel_safe(mname) and (
            self.runtime.backend not in ("auto", "serial")
            or (self.runtime.workers or 1) > 1
        ):
            raise ValueError(
                f"method {self.method.name!r} keeps client-visible state "
                "outside the pack/unpack and broadcast_attrs contracts and "
                "must run on the serial backend; drop runtime.backend/workers"
            )

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless nested-dict form (JSON-safe).

        Named lr schedules (``{"name": "cosine", ...}``) serialize as-is;
        bare callables don't.

        Raises:
            ValueError: when ``config.lr_schedule`` is a callable — use the
                named form, or attach the callable after loading.
        """
        schedule = self.config.lr_schedule
        if schedule is not None and not isinstance(schedule, dict):
            raise ValueError(
                "config.lr_schedule is a bare callable and cannot be "
                "serialized; use the named form {'name': 'cosine', ...} "
                "(see repro.nn.schedules), or re-attach it after loading"
            )
        out = dataclasses.asdict(self)
        if schedule is None:
            del out["config"]["lr_schedule"]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output; unknown keys raise."""
        if not isinstance(d, dict):
            raise ValueError(f"spec must be a mapping, got {type(d).__name__}")
        sections = {
            "data": DataSpec,
            "model": ModelSpec,
            "method": MethodSpec,
            "runtime": RuntimeSpec,
            "config": FLConfig,
        }
        kwargs: dict = {}
        for key, value in d.items():
            if key == "name":
                if not isinstance(value, str):
                    raise ValueError(f"name must be a string, got {value!r}")
                kwargs["name"] = value
            elif key in sections:
                kwargs[key] = _section_from_dict(sections[key], key, value)
            else:
                raise ValueError(
                    f"unknown spec section {key!r}; expected one of "
                    f"{sorted([*sections, 'name'])}"
                )
        return cls(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        with open(path) as f:
            return cls.from_json(f.read())

    # -- overrides -----------------------------------------------------------
    def override(self, path: str, value) -> "ExperimentSpec":
        """Return a copy with the dotted-path field replaced by ``value``.

        ``path`` addresses nested dataclass fields (``config.rounds``,
        ``runtime.sampler``) or entries of kwargs dicts
        (``method.kwargs.mixing``).  Dataclass validation re-runs on the
        rebuilt objects, so an invalid value raises immediately.
        """
        return self.override_many([(path, value)])

    def override_many(self, items: "list[tuple[str, object]]") -> "ExperimentSpec":
        """Apply several ``(path, value)`` overrides as one transaction.

        All assignments are staged first; each touched section is rebuilt
        (and validated) once at the end, and cross-section consistency
        (e.g. ``runtime.kind`` vs ``method.name``) likewise — so override
        order never matters, even for fields that must change together.
        """
        sections = {
            "data": DataSpec,
            "model": ModelSpec,
            "method": MethodSpec,
            "runtime": RuntimeSpec,
            "config": FLConfig,
        }
        replaced: dict = {}  # whole-section / top-level scalar assignments
        staged: dict[str, dict] = {}  # section -> pending field values

        def section_values(head: str, cls) -> dict:
            base = getattr(self, head)
            return {
                f.name: getattr(base, f.name)
                for f in dataclasses.fields(cls)
                if f.init
            }

        for path, value in items:
            parts = path.split(".")
            head = parts[0]
            if head == "name" and len(parts) == 1:
                replaced["name"] = _coerce(type(self), "name", value, f"override {path!r}")
                continue
            if head not in sections:
                raise ValueError(
                    f"unknown field {head!r} in override {path!r}; "
                    f"expected one of {sorted([*sections, 'name'])}"
                )
            cls = sections[head]
            if len(parts) == 1:
                if not isinstance(value, cls):
                    raise ValueError(
                        f"override {path!r} must assign a {cls.__name__} "
                        f"instance, got {value!r}; use dotted paths for fields"
                    )
                if head in staged:
                    raise ValueError(
                        f"override {path!r} replaces the whole section but other "
                        f"overrides target its fields; use one style per section"
                    )
                replaced[head] = value
                continue
            if head in replaced:
                raise ValueError(
                    f"override {path!r} targets a field of a section another "
                    f"override replaces wholesale; use one style per section"
                )
            fname = parts[1]
            names = {f.name for f in dataclasses.fields(cls) if f.init}
            if fname not in names:
                raise ValueError(
                    f"unknown field {fname!r} in override {path!r}; "
                    f"expected one of {sorted(names)}"
                )
            cur = staged.setdefault(head, section_values(head, cls))
            if len(parts) == 2:
                cur[fname] = _coerce(cls, fname, value, f"override {path!r}")
            else:
                cur[fname] = _set_in_dict(cur[fname], parts[2:], path, value)

        updates = dict(replaced)
        for head, values in staged.items():
            updates[head] = sections[head](**values)
        return dataclasses.replace(self, **updates)

    def apply_overrides(self, assignments: "list[str] | tuple[str, ...]") -> "ExperimentSpec":
        """Apply ``key.path=json_value`` assignment strings (CLI ``--set``)."""
        return self.override_many([parse_override(text) for text in assignments])


def _section_from_dict(cls, section: str, value):
    if not isinstance(value, dict):
        raise ValueError(f"section {section!r} must be a mapping, got {value!r}")
    names = {f.name for f in dataclasses.fields(cls) if f.init}
    if section == "config" and callable(value.get("lr_schedule")):
        raise ValueError(
            "config.lr_schedule in a serialized spec must be the named "
            "{'name': ...} form, not a callable"
        )
    unknown = sorted(set(value) - names)
    if unknown:
        raise ValueError(
            f"unknown key(s) {unknown} in section {section!r}; "
            f"expected a subset of {sorted(names)}"
        )
    values = {k: _coerce(cls, k, v, f"{section}.{k}") for k, v in value.items()}
    try:
        return cls(**values)
    except TypeError as exc:  # e.g. a list passed where a scalar belongs
        raise ValueError(f"invalid value in section {section!r}: {exc}") from exc


def parse_override(text: str) -> tuple[str, object]:
    """Split one ``dotted.path=value`` assignment; values parse as JSON.

    Unquoted bare words fall back to strings, so both
    ``runtime.sampler=utility`` and ``runtime.sampler="utility"`` work.
    """
    if "=" not in text:
        raise ValueError(f"override {text!r} must look like key.path=value")
    path, raw = text.split("=", 1)
    path = path.strip()
    if not path:
        raise ValueError(f"override {text!r} has an empty key path")
    raw = raw.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare string
    return path, value


def _set_in_dict(node, parts: list[str], full_path: str, value):
    """Set a nested key inside a kwargs dict, copying along the way."""
    if not isinstance(node, dict):
        raise ValueError(
            f"cannot descend into {type(node).__name__} at {parts[0]!r} "
            f"(override {full_path!r})"
        )
    new = dict(node)
    head, rest = parts[0], parts[1:]
    if rest:
        if head not in node:
            raise ValueError(f"unknown key {head!r} in override {full_path!r}")
        new[head] = _set_in_dict(node[head], rest, full_path, value)
    else:
        new[head] = value
    return new


def _coerce(owner_cls, field_name: str, value, where: str):
    """Type-check ``value`` against the dataclass field's annotation.

    Ints promote to float fields; everything else must match exactly, so
    ``config.rounds=many`` or a spec file's ``"rounds": 2.5`` fails loudly
    instead of exploding (or rounding) later inside the engine.  ``where``
    names the value's source in the error.
    """
    hint = _field_hints(owner_cls).get(field_name)
    if hint is None:
        return value
    allowed = _flatten_union(hint)
    if any(a is dict for a in allowed) and isinstance(value, dict):
        return value
    if type(value) in allowed:
        return value
    if float in allowed and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if type(None) in allowed and value is None:
        return value
    names = sorted(
        ("None" if a is type(None) else getattr(a, "__name__", str(a))) for a in allowed
    )
    raise ValueError(
        f"{where}: expected {' | '.join(names)}, got {value!r} ({type(value).__name__})"
    )


@functools.cache
def _field_hints(owner_cls) -> dict:
    """``owner_cls``'s resolved field annotations, evaluated once per class
    (resolving them costs tens of microseconds a call)."""
    return typing.get_type_hints(owner_cls)


def _flatten_union(hint) -> tuple:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        out: list = []
        for arm in typing.get_args(hint):
            out.extend(_flatten_union(arm))
        return tuple(out)
    if origin is not None:  # parametrized generics: match on the origin
        return (origin,)
    if hint is typing.Any:
        return (object,)
    return (hint,)


def apply_overrides(spec: ExperimentSpec, assignments) -> ExperimentSpec:
    """Module-level alias of :meth:`ExperimentSpec.apply_overrides`."""
    return spec.apply_overrides(assignments)
