"""The federated round loop.

``FederatedSimulation`` owns the outer loop: sample a cohort, run each
client's local update through the algorithm, aggregate, evaluate, log.
Algorithms implement the :class:`FederatedAlgorithm` protocol
(:mod:`repro.algorithms.base`).
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
    "BufferAverager",
]


class BufferAverager:
    """Per-round FedAvg-with-BN treatment of model buffers.

    BatchNorm-style running statistics: each client starts from the server's
    buffers; the server averages the post-training buffers afterwards.  A
    no-op for buffer-free models.  Shared by the synchronous and semi-sync
    engines so the treatment can't drift between them.
    """

    def __init__(self, model: Module) -> None:
        self.model = model
        self.active = bool(model.buffers)
        self.n = 0
        if self.active:
            self.buf0 = model.get_buffers(copy=True)
            self.acc = {k: np.zeros_like(v) for k, v in self.buf0.items()}

    def before_client(self) -> None:
        if self.active:
            self.model.set_buffers(self.buf0)

    def after_client(self) -> None:
        self.n += 1
        if self.active:
            for name, v in self.model.buffers.items():
                self.acc[name] += v

    def commit(self) -> None:
        if self.active:
            inv = 1.0 / max(self.n, 1)
            self.model.set_buffers({k: v * inv for k, v in self.acc.items()})

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


class FederatedSimulation:
    """Run a federated algorithm over a dataset.

    Args:
        algorithm: object implementing the FederatedAlgorithm protocol.
        model: the global model instance (its initial parameters seed x^0).
        dataset: a :class:`repro.data.FederatedDataset`.
        config: run hyper-parameters.
        loss_builder / sampler_builder: optional per-client factories (see
            :class:`SimulationContext`).
        backend / workers / model_builder / algo_builder: execution backend
            for the round's client updates (:mod:`repro.parallel.backend`)
            — a backend instance, a registry name (``"serial"`` /
            ``"process"`` / ``"thread"``), or None to derive from
            ``workers``.  Non-serial backends need a ``model_builder`` for
            worker replicas; the job contract ships packed client state,
            buffers and broadcast state, so results stay bit-identical to
            serial execution.
        metric_hooks: callables invoked after each evaluation with
            ``(ctx, round_idx, x_flat, extras_dict)`` — used by the analysis
            benches to record e.g. neuron concentration.
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
        # imported lazily — repro.parallel builds on this module's helpers,
        # not the other way around
        from repro.parallel.backend import prepare_engine_backend

        self.algorithm = algorithm
        self.ctx = SimulationContext(
            model, dataset, config, loss_builder=loss_builder, sampler_builder=sampler_builder
        )
        self.metric_hooks = list(metric_hooks)
        self.client_sampler = client_sampler  # see repro.simulation.sampling
        self._workers = workers
        self.backend_name, self._backend, self._algo_builder = prepare_engine_backend(
            backend, workers, algorithm, model_builder, algo_builder
        )
        self._model_builder = model_builder
        self._loss_builder = loss_builder
        self._sampler_builder = sampler_builder

    def run(
        self,
        verbose: bool = False,
        recorder=None,
        resume: dict | None = None,
        stop_after_rounds: int | None = None,
        profiler=None,
    ) -> History:
        # the round loop lives in the shared event core: synchronous rounds
        # are the barrier policy (zero-latency dispatches, a barrier tick
        # closing each round).  Imported lazily — repro.runtime builds on
        # this module's records, not the other way around.
        from repro.parallel.backend import make_backend
        from repro.runtime.events import BarrierPolicy, EventCore

        owned = self._backend is None
        backend = (
            make_backend(self.backend_name, workers=self._workers)
            if owned
            else self._backend
        )
        core = EventCore(
            self.ctx,
            self.algorithm,
            BarrierPolicy(),
            metric_hooks=self.metric_hooks,
            client_sampler=self.client_sampler,
            backend=backend,
        )
        # bind inside the guard: a failed bind (or run) must still reap an
        # owned backend's workers instead of leaking the fork pool
        try:
            backend.bind(
                self.ctx,
                self.algorithm,
                model_builder=self._model_builder,
                algo_builder=self._algo_builder,
                loss_builder=self._loss_builder,
                sampler_builder=self._sampler_builder,
            )
            history = core.run(
                verbose=verbose, recorder=recorder, resume=resume,
                stop_after_rounds=stop_after_rounds, profiler=profiler,
            )
        finally:
            # engine_owned instances (the facade's RemoteBackend) carry
            # run-scoped resources — a listener and its worker fleet — and
            # are reaped here too, unlike plain caller-owned instances
            if owned or getattr(backend, "engine_owned", False):
                backend.close()
        self.final_params = core.x
        return history


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
