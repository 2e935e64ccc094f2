"""Run histories and the shell every engine kind is built on.

Each engine is a policy over one :class:`repro.runtime.events.EventCore`.
``EngineShell`` builds an engine's context and backend and owns the only
``run()``; :class:`FederatedSimulation` is the synchronous engine (the
round policy without a latency model), and :mod:`repro.runtime` holds the
timed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.data.registry import FederatedDataset
from repro.nn.functional import per_class_accuracy
from repro.nn.module import Module
from repro.nn.train import evaluate
from repro.simulation.config import FLConfig
from repro.simulation.context import SimulationContext

__all__ = [
    "RoundRecord",
    "TimedRoundRecord",
    "History",
    "FederatedSimulation",
    "evaluate_into_record",
]


MetricHook = Callable[[SimulationContext, int, np.ndarray, dict], None]


@dataclass
class RoundRecord:
    """Metrics of one communication round."""

    round: int
    test_accuracy: float = float("nan")
    test_loss: float = float("nan")
    per_class_accuracy: np.ndarray | None = None
    selected: np.ndarray | None = None
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)


@dataclass
class TimedRoundRecord(RoundRecord):
    """A :class:`RoundRecord` stamped with simulated wall-clock metadata.

    Produced by the event-driven runtimes (:mod:`repro.runtime`); ``round``
    counts evaluation windows rather than synchronous rounds.

    Attributes:
        virtual_time: simulated seconds elapsed when the record closed.
        staleness: mean staleness (server versions) of the window's updates;
            for semi-sync runs, the number of deadline-missing clients.
        concurrency: mean number of clients in flight during the window.
        updates_applied: cumulative server updates at record time.
    """

    virtual_time: float = 0.0
    staleness: float = 0.0
    concurrency: float = 0.0
    updates_applied: int = 0


@dataclass
class History:
    """Full trajectory of a federated run."""

    algorithm: str
    records: list[RoundRecord] = field(default_factory=list)

    @property
    def accuracy(self) -> np.ndarray:
        """Test accuracy series (NaN for non-evaluated rounds)."""
        return np.array([r.test_accuracy for r in self.records])

    @property
    def final_accuracy(self) -> float:
        vals = self.accuracy
        vals = vals[~np.isnan(vals)]
        return float(vals[-1]) if vals.size else float("nan")

    @property
    def best_accuracy(self) -> float:
        vals = self.accuracy
        vals = vals[~np.isnan(vals)]
        return float(vals.max()) if vals.size else float("nan")

    def rounds_to_accuracy(self, threshold: float) -> int | None:
        """First round index whose test accuracy reaches ``threshold``."""
        for r in self.records:
            if not np.isnan(r.test_accuracy) and r.test_accuracy >= threshold:
                return r.round
        return None

    def time_to_accuracy(self, threshold: float) -> float | None:
        """Virtual seconds until test accuracy first reaches ``threshold``.

        Only meaningful for histories of :class:`TimedRoundRecord`s (the
        event-driven runtimes); returns None when never reached or untimed.
        """
        for r in self.records:
            vt = getattr(r, "virtual_time", None)
            if vt is None:
                continue
            if not np.isnan(r.test_accuracy) and r.test_accuracy >= threshold:
                return float(vt)
        return None

    def tail_accuracy(self, k: int = 5) -> float:
        """Mean of the last ``k`` evaluated accuracies (stability-robust)."""
        vals = self.accuracy
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            return float("nan")
        return float(vals[-k:].mean())


class EngineShell:
    """Construction and ``run()`` of every engine kind.

    Builds the :class:`SimulationContext` and one backend — from a registry
    name (or None) through :func:`~repro.parallel.backend.resolve_backend`,
    or the instance given — and checks it before any compute is spent.  An
    engine adds its own validation and its policy (:meth:`_run_policy`);
    the constructor arguments are :class:`FederatedSimulation`'s.

    ``run()`` closes the backend it ran on, whether the run raises or not;
    a closed backend binds again, so an engine can run more than once.
    """

    def __init__(
        self,
        algorithm,
        model: Module,
        dataset: FederatedDataset,
        config: FLConfig,
        loss_builder=None,
        sampler_builder=None,
        backend=None,
        workers: int | None = None,
        model_builder=None,
        algo_builder=None,
        metric_hooks: Sequence[MetricHook] = (),
        client_sampler=None,
    ) -> None:
        # imported lazily: repro.parallel builds on this package
        from repro.parallel.backend import (
            ExecutionBackend,
            make_backend,
            resolve_backend,
            warn_on_replica_config_mismatch,
        )

        self.algorithm = algorithm
        self.ctx = SimulationContext(
            model, dataset, config, loss_builder=loss_builder, sampler_builder=sampler_builder
        )
        self.metric_hooks = list(metric_hooks)
        self.client_sampler = client_sampler  # see repro.simulation.sampling
        if not isinstance(backend, ExecutionBackend):
            backend = make_backend(resolve_backend(backend, workers), workers)
        if backend.name != "serial":
            if not getattr(algorithm, "parallel_safe", True):
                raise ValueError(
                    f"{getattr(algorithm, 'name', type(algorithm).__name__)} keeps "
                    "client-visible state outside the pack/unpack and "
                    "broadcast_attrs contracts; worker replicas would silently "
                    "diverge — run it on the serial backend"
                )
            if model_builder is None:
                raise ValueError(
                    f"backend {backend.name!r} requires a model_builder for worker replicas"
                )
            if algo_builder is None:
                warn_on_replica_config_mismatch(algorithm)
        self.backend = backend
        self._builders = dict(
            model_builder=model_builder,
            algo_builder=algo_builder or type(algorithm),
            loss_builder=loss_builder,
            sampler_builder=sampler_builder,
        )
        self.final_params: np.ndarray | None = None
        self.total_virtual_time = 0.0

    def _run_policy(self):
        """The event-core policy one ``run()`` executes."""
        raise NotImplementedError

    def run(
        self,
        verbose: bool = False,
        recorder=None,
        resume: dict | None = None,
        stop_after_rounds: int | None = None,
        profiler=None,
    ) -> History:
        """Run the policy (arguments as :meth:`repro.runtime.events.EventCore.run`),
        then set ``final_params`` and ``total_virtual_time`` (0.0 in sync rounds)."""
        # imported lazily: repro.runtime builds on this module's records
        from repro.runtime.events import EventCore

        core = EventCore(
            self.ctx, self.algorithm, self._run_policy(), self.backend,
            metric_hooks=self.metric_hooks, client_sampler=self.client_sampler,
        )
        # bind inside the guard: a failed bind (or run) still reaps the
        # backend's workers instead of leaking them
        try:
            self.backend.bind(self.ctx, self.algorithm, **self._builders)
            history = core.run(
                verbose=verbose, recorder=recorder, resume=resume,
                stop_after_rounds=stop_after_rounds, profiler=profiler,
            )
        finally:
            self.backend.close()
        self.final_params = core.x
        self.total_virtual_time = core.clock.now
        return history


class FederatedSimulation(EngineShell):
    """Run a federated algorithm over a dataset in synchronous rounds.

    Args:
        algorithm: object implementing the FederatedAlgorithm protocol.
        model: the global model instance (its initial parameters seed x^0).
        dataset: a :class:`repro.data.FederatedDataset`.
        config: run hyper-parameters.
        loss_builder / sampler_builder: optional per-client factories (see
            :class:`SimulationContext`).
        backend / workers / model_builder / algo_builder: execution backend
            for client updates (:mod:`repro.parallel.backend`) — a backend
            instance, a registry name (``"serial"`` / ``"process"``), or
            None to derive one from ``workers`` (> 1 selects the process
            pool).  ``workers`` sizes a pool backend built here (None:
            ``REPRO_MAX_WORKERS`` or the capped CPU count).  Non-serial
            backends need a ``model_builder`` for worker replicas;
            ``algo_builder`` defaults to the algorithm's class called with
            no arguments.  The job contract ships packed client
            state, buffers and broadcast state, so results stay
            bit-identical to serial execution.
        metric_hooks: callables invoked after each evaluation with
            ``(ctx, round_idx, x_flat, extras_dict)`` — used by the analysis
            benches to record e.g. neuron concentration.
        client_sampler: optional cohort sampler (see
            :mod:`repro.simulation.sampling`); None draws uniformly.
    """

    def _run_policy(self):
        # synchronous rounds are untimed deadline rounds: zero-latency
        # dispatches, a close tick ending each round
        from repro.runtime.events import DeadlinePolicy

        return DeadlinePolicy()


def evaluate_into_record(
    ctx: SimulationContext,
    rec: RoundRecord,
    round_idx: int,
    x: np.ndarray,
    metric_hooks: Sequence[MetricHook] = (),
) -> None:
    """Evaluate the global model ``x`` and fill ``rec`` in place.

    Shared by the synchronous, semi-synchronous and asynchronous engines so
    evaluation bookkeeping (per-class accuracy, metric hooks) stays in one
    place.
    """
    ctx.load_params(x)
    res = evaluate(ctx.model, ctx.dataset.x_test, ctx.dataset.y_test)
    rec.test_accuracy = res["accuracy"]
    if ctx.config.eval_per_class:
        logits = _batched_logits(ctx.model, ctx.dataset.x_test)
        rec.per_class_accuracy = per_class_accuracy(logits, ctx.dataset.y_test, ctx.num_classes)
    for hook in metric_hooks:
        hook(ctx, round_idx, x, rec.extras)


def _batched_logits(model: Module, x: np.ndarray, batch: int = 256) -> np.ndarray:
    outs = [model.forward(x[lo : lo + batch], train=False) for lo in range(0, len(x), batch)]
    return np.concatenate(outs, axis=0)
