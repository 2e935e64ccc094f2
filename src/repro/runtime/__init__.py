"""Event-driven FL runtime: one event core, every engine kind.

* :mod:`repro.runtime.events` — the single :class:`EventCore` loop (typed
  :class:`Dispatch` / :class:`Completion` / :class:`DeadlineTick` events, a
  per-client :class:`ClientStateStore`) and the dispatch policies that turn
  it into each engine kind: :class:`BarrierPolicy` (synchronous rounds),
  :class:`DeadlinePolicy` (semi-sync deadlines with ``downweight`` or true
  ``trickle`` late handling), :class:`AsyncPolicy` (continuous
  staleness-aware dispatch).
* :mod:`repro.runtime.clock` — deterministic virtual clock and pluggable
  client latency models (constant / lognormal / Pareto / dropout-retry).
* :mod:`repro.runtime.async_engine` — :class:`AsyncFederatedSimulation`,
  the staleness-aware engine facade driving FedAsync / FedBuff (and, via
  :class:`~repro.algorithms.AsyncAdapter`, any method's local rule —
  including stateful SCAFFOLD/FedDyn).
* :mod:`repro.runtime.semisync` — :class:`SemiSyncFederatedSimulation`,
  deadline-based rounds wrapping any synchronous algorithm (and, with
  ``deadline=None``, the straggler-blocked synchronous timing baseline).
* :mod:`repro.runtime.scheduling` — adaptive :class:`DeadlineController` /
  :class:`ConcurrencyController` and time-aware cohort samplers
  (:class:`FastFirstSampler`, :class:`LongIdleSampler`,
  :class:`UtilitySampler`) usable per-round (semi-sync) and per-dispatch
  (async ``pick_next``), plus comm-profile resolution for latency pricing.

Histories are built from :class:`repro.simulation.TimedRoundRecord`, so
all existing :class:`~repro.simulation.History` / :mod:`repro.viz` tooling
works unchanged — plus time-to-accuracy via ``History.time_to_accuracy``.
"""

from repro.runtime.events import (
    BUFFER_EMA_MODES,
    AsyncPolicy,
    BarrierPolicy,
    ClientStateStore,
    Completion,
    DeadlinePolicy,
    DeadlineTick,
    Dispatch,
    EventCore,
    LATE_POLICIES,
)
from repro.runtime.clock import (
    ConstantLatency,
    DropoutRetryLatency,
    Event,
    LATENCY_MODELS,
    LatencyModel,
    LognormalLatency,
    ParetoLatency,
    VirtualClock,
    make_latency_model,
)
from repro.runtime.async_engine import AsyncFederatedSimulation
from repro.runtime.fastpath import IdleTracker
from repro.runtime.scheduling import (
    ConcurrencyController,
    DeadlineController,
    FastFirstSampler,
    LongIdleSampler,
    SAMPLERS,
    TimeAwareSampler,
    UtilitySampler,
    make_sampler,
    resolve_auto_comm,
)
from repro.runtime.semisync import SemiSyncFederatedSimulation
from repro.simulation.engine import TimedRoundRecord

__all__ = [
    "EventCore",
    "Dispatch",
    "Completion",
    "DeadlineTick",
    "ClientStateStore",
    "BarrierPolicy",
    "DeadlinePolicy",
    "AsyncPolicy",
    "LATE_POLICIES",
    "BUFFER_EMA_MODES",
    "DeadlineController",
    "ConcurrencyController",
    "TimeAwareSampler",
    "FastFirstSampler",
    "LongIdleSampler",
    "UtilitySampler",
    "SAMPLERS",
    "make_sampler",
    "resolve_auto_comm",
    "VirtualClock",
    "Event",
    "LatencyModel",
    "ConstantLatency",
    "LognormalLatency",
    "ParetoLatency",
    "DropoutRetryLatency",
    "LATENCY_MODELS",
    "make_latency_model",
    "IdleTracker",
    "AsyncFederatedSimulation",
    "SemiSyncFederatedSimulation",
    "TimedRoundRecord",
]
