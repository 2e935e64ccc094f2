"""Event-driven asynchronous federated simulation.

Where :class:`repro.simulation.FederatedSimulation` runs lock-step rounds,
this engine dispatches client updates as *events* on a
:class:`~repro.runtime.clock.VirtualClock`: a fixed number of clients is
kept in flight; whenever one completes (at its latency-model-priced virtual
time) the server applies a staleness-aware update through the algorithm's
``server_apply`` hook (:mod:`repro.algorithms.async_fl`) and immediately
dispatches a replacement from the *current* global model.

Bookkeeping groups completed updates into evaluation windows of ``m``
arrivals (m = the synchronous cohort size), so a window consumes exactly
one synchronous round's client work and the resulting
:class:`~repro.simulation.engine.TimedRoundRecord` history plots directly
against synchronous baselines — per round *and* per simulated second.

Determinism and parallelism: every client RNG stream is keyed by the
dispatch sequence number, and event ties break on schedule order, so the
run is a pure function of the seed.  Client compute goes through a
pluggable :class:`~repro.parallel.backend.ExecutionBackend`.  Every
dispatch's job joins one queue, which reaches the backend through one
``submit_many`` at one of two moments.  With ``streaming`` on (the
default) each dispatch burst is handed over the moment it is issued and
each job collected when its virtual completion pops, overlapping worker
compute with event processing on the pool backends; with streaming off
(or on the serial backend) the queue runs as one batch when a completion
first needs one of its jobs.  Both moments see jobs built from
dispatch-time state and apply results in virtual-time order, so their
histories are bit-identical.  Because jobs carry packed client state
and buffer dicts, stateful methods (SCAFFOLD, FedDyn via
:class:`~repro.algorithms.AsyncAdapter`) and BatchNorm buffer tracking
work on *every* backend.

The loop itself lives in :class:`repro.runtime.events.AsyncPolicy`, whose
single dispatch planner picks idle clients in O(log N) at any population
size; this class is the construction-and-validation facade.  Beyond plain FedAsync /
FedBuff it supports

* *stateful per-client methods* — algorithms declaring
  ``stateful_per_client`` have each client's state snapshotted at dispatch
  and committed at completion through the event core's
  :class:`~repro.runtime.events.ClientStateStore`;
* *per-dispatch time-aware sampling* — pass ``sampler`` (a
  :class:`~repro.runtime.scheduling.TimeAwareSampler`) and each replacement
  dispatch is chosen by ``sampler.pick_next(idle, now)`` instead of the
  uniform idle draw, with priced latencies and training losses fed back as
  completions land;
* *buffer EMA modes* — models with BatchNorm buffers keep a server-side
  moving average over arriving clients' statistics; ``buffer_ema``
  selects the fixed ``1/window`` blend or the staleness-discounted
  ``1/(window * (1 + tau))`` rule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from repro.data.registry import FederatedDataset
from repro.nn.module import Module
from repro.parallel.backend import ExecutionBackend, resolve_streaming
from repro.runtime.clock import ConstantLatency, LatencyModel
from repro.runtime.events import BUFFER_EMA_MODES, AsyncPolicy
from repro.runtime.scheduling import ConcurrencyController, resolve_auto_comm
from repro.simulation.config import FLConfig, resolve_lr_schedule
from repro.simulation.engine import EngineShell
from repro.utils.validation import positive_count

__all__ = ["AsyncFederatedSimulation"]


class AsyncFederatedSimulation(EngineShell):
    """Run a staleness-aware algorithm under an event-driven virtual clock.

    Args:
        algorithm: an algorithm implementing ``server_apply(ctx, x, update,
            staleness, x_dispatch)`` (e.g. :class:`repro.algorithms.FedAsync`,
            :class:`~repro.algorithms.FedBuff`, or an
            :class:`~repro.algorithms.AsyncAdapter` wrapping any method's
            local rule — stateful methods included, on any backend).
        model / dataset / config: the problem definition (as the sync engine).
        latency_model: prices each dispatch in virtual seconds (default
            :class:`~repro.runtime.clock.ConstantLatency`); bound to the
            context automatically.  ``comm_method="auto"`` resolves to the
            algorithm's communication profile.
        concurrency: clients kept in flight (default: the synchronous cohort
            size ``max(1, round(participation * num_clients))``).
        concurrency_controller: optional
            :class:`~repro.runtime.scheduling.ConcurrencyController`; when
            given, ``concurrency`` only seeds the controller's initial limit
            and the max in-flight count then tracks the controller's AIMD
            limit (staleness-budget control).
        max_updates: total client updates to process (default
            ``config.rounds * cohort``, i.e. the same client work as the
            synchronous run — this makes time-to-accuracy comparisons fair).
        workers / backend / model_builder / algo_builder: as
            :class:`repro.simulation.FederatedSimulation`.
        sampler: optional :class:`~repro.runtime.scheduling.TimeAwareSampler`
            picking each replacement dispatch (``pick_next``); None keeps the
            uniform idle draw.
        buffer_ema: ``"fixed"`` (1/window blend, default) or ``"staleness"``
            (stale arrivals discounted like the parameter rule).
        streaming: hand each dispatch burst to the backend as it is issued
            (True, the default) or queue jobs until a completion needs one
            (False); None resolves to the default.  Histories are bit-identical either way — the
            knob only trades wall-clock overlap — and the serial backend
            always uses the lazy-batch path.
        loss_builder / sampler_builder / metric_hooks: as the sync engine.

    Notes:
        ``FLConfig.lr_schedule`` is evaluated per evaluation *window* (one
        window = one synchronous round's client work), so scheduled-lr runs
        stay comparable to synchronous baselines.
    """

    def __init__(
        self,
        algorithm,
        model: Module,
        dataset: FederatedDataset,
        config: FLConfig,
        latency_model: LatencyModel | None = None,
        concurrency: int | None = None,
        concurrency_controller: ConcurrencyController | None = None,
        max_updates: int | None = None,
        workers: int | None = None,
        backend: ExecutionBackend | str | None = None,
        model_builder: Callable | None = None,
        algo_builder: Callable | None = None,
        sampler=None,
        buffer_ema: str = "fixed",
        streaming: bool | None = None,
        loss_builder=None,
        sampler_builder=None,
        metric_hooks: Sequence = (),
    ) -> None:
        if not hasattr(algorithm, "server_apply"):
            raise TypeError(
                f"{type(algorithm).__name__} has no server_apply(); use a "
                "staleness-aware method (fedasync, fedbuff), wrap one in an "
                "AsyncAdapter, or run it under SemiSyncFederatedSimulation"
            )
        if buffer_ema not in BUFFER_EMA_MODES:
            raise ValueError(
                f"buffer_ema must be one of {BUFFER_EMA_MODES}, got {buffer_ema!r}"
            )
        self.window = max(1, int(round(config.participation * dataset.num_clients)))
        schedule = resolve_lr_schedule(config.lr_schedule, config.rounds)
        if schedule is not None:
            # client_update receives the dispatch sequence number as its
            # round index (for unique RNG streams), so remap the schedule to
            # evaluation windows — one window = one synchronous round's work —
            # keeping scheduled-lr runs comparable to the sync baseline
            window = self.window
            config = replace(config, lr_schedule=lambda seq: schedule(seq // window))
        self.concurrency = (
            positive_count(concurrency, "concurrency") if concurrency is not None
            else self.window
        )
        self.concurrency_controller = concurrency_controller
        if concurrency_controller is not None:
            concurrency_controller.seed(
                self.concurrency, self.window, dataset.num_clients
            )
            self.concurrency = concurrency_controller.limit
        self.max_updates = (
            positive_count(max_updates, "max_updates") if max_updates is not None
            else config.rounds * self.window
        )
        super().__init__(
            algorithm, model, dataset, config, loss_builder=loss_builder,
            sampler_builder=sampler_builder, backend=backend, workers=workers,
            model_builder=model_builder, algo_builder=algo_builder,
            metric_hooks=metric_hooks,
        )
        latency_model = latency_model or ConstantLatency()
        resolve_auto_comm(latency_model, algorithm)
        self.latency_model = latency_model.bind(self.ctx)
        self.buffer_ema = buffer_ema
        self.streaming = resolve_streaming(streaming)
        self.sampler = sampler
        if sampler is not None:
            if not hasattr(sampler, "pick_next"):
                raise TypeError(
                    f"{type(sampler).__name__} has no pick_next(idle, now); "
                    "async dispatch needs a TimeAwareSampler"
                )
            sampler.bind(self.ctx, self.latency_model)

    def _run_policy(self) -> AsyncPolicy:
        return AsyncPolicy(
            self.latency_model,
            window=self.window,
            concurrency=self.concurrency,
            max_updates=self.max_updates,
            concurrency_controller=self.concurrency_controller,
            sampler=self.sampler,
            buffer_ema=self.buffer_ema,
            streaming=self.streaming,
        )
