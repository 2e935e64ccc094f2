"""Deadline-based semi-synchronous rounds around any registry algorithm.

The server broadcasts, prices every sampled client's response time with a
:class:`~repro.runtime.clock.LatencyModel`, and closes the round at a fixed
``deadline``.  Late clients follow one of two policies:

* ``late_policy="downweight"`` (historical default) — late clients are
  either *dropped* (``late_weight = 0``, their updates are never computed —
  this is where the compute savings come from) or merged into their own
  round with displacement scaled by ``late_weight`` (a same-round
  approximation of trickle-in: the update merges before it physically
  arrives);
* ``late_policy="trickle"`` — true trickle-in through the event queue: a
  late client's completion stays scheduled at its actual arrival time and
  merges, at full weight, into whichever round is open when it lands (the
  stale displacement is the cost; still-flying updates when the run ends
  are abandoned and counted).

The fastest client is always kept, so a round can never be empty.

With ``deadline=None`` the server waits for the slowest sampled client —
exactly the synchronous engine's semantics, but with each round priced on
the virtual clock.  That makes this class double as the *straggler-blocked
synchronous baseline* for time-to-accuracy comparisons: the aggregate
trajectory is bit-identical to :class:`repro.simulation.FederatedSimulation`
(same cohorts, same client RNG streams, same aggregation), only annotated
with simulated time.

The wrapped algorithm is any :class:`repro.algorithms.FederatedAlgorithm`
(FedAvg, FedCM, FedWCM, ...) — its three protocol methods are called
unchanged.  The round loop itself lives in
:class:`repro.runtime.events.DeadlinePolicy`; this class is the
construction-and-validation facade around it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.registry import FederatedDataset
from repro.nn.module import Module
from repro.parallel.backend import ExecutionBackend
from repro.runtime.clock import ConstantLatency, LatencyModel
from repro.runtime.events import DeadlinePolicy
from repro.runtime.scheduling import DeadlineController, resolve_auto_comm
from repro.simulation.config import FLConfig
from repro.simulation.engine import EngineShell

__all__ = ["SemiSyncFederatedSimulation"]


class SemiSyncFederatedSimulation(EngineShell):
    """Synchronous round loop with a per-round deadline on the virtual clock.

    Args:
        algorithm: any synchronous federated algorithm (runs unchanged).
        model / dataset / config: the problem definition.
        latency_model: prices each client's response (default constant);
            ``comm_method="auto"`` resolves to the algorithm's communication
            profile so payload multipliers price into virtual time.
        deadline: round deadline in virtual seconds, or a
            :class:`~repro.runtime.scheduling.DeadlineController` that tunes
            it per round toward a drop-rate budget; None waits for the
            slowest client (pure synchronous timing).
        late_weight: weight in [0, 1] applied to deadline-missing clients'
            displacements under ``late_policy="downweight"``; 0 drops them
            without computing their update.
        late_policy: ``"downweight"`` (same-round approximation) or
            ``"trickle"`` (late updates merge into the round open at their
            actual arrival).
        backend / workers / model_builder / algo_builder / loss_builder /
            sampler_builder / metric_hooks / client_sampler: as
            :class:`repro.simulation.FederatedSimulation`; time-aware
            samplers (:mod:`repro.runtime.scheduling`) are bound to the
            latency model and fed each round's priced completions.
    """

    def __init__(
        self,
        algorithm,
        model: Module,
        dataset: FederatedDataset,
        config: FLConfig,
        latency_model: LatencyModel | None = None,
        deadline: "float | DeadlineController | None" = None,
        late_weight: float = 0.0,
        late_policy: str = "downweight",
        backend: ExecutionBackend | str | None = None,
        workers: int | None = None,
        model_builder=None,
        algo_builder=None,
        loss_builder=None,
        sampler_builder=None,
        metric_hooks: Sequence = (),
        client_sampler=None,
    ) -> None:
        self.deadline_controller: DeadlineController | None = None
        if isinstance(deadline, DeadlineController):
            self.deadline_controller = deadline
            deadline = deadline.deadline  # may be None until start()
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0 or None, got {deadline}")
        if not 0.0 <= late_weight <= 1.0:
            raise ValueError(f"late_weight must be in [0, 1], got {late_weight}")
        super().__init__(
            algorithm, model, dataset, config, loss_builder=loss_builder,
            sampler_builder=sampler_builder, backend=backend, workers=workers,
            model_builder=model_builder, algo_builder=algo_builder,
            metric_hooks=metric_hooks, client_sampler=client_sampler,
        )
        latency_model = latency_model or ConstantLatency()
        resolve_auto_comm(latency_model, algorithm)
        self.latency_model = latency_model.bind(self.ctx)
        self.deadline = deadline
        self.late_weight = late_weight
        self.late_policy = late_policy
        if client_sampler is not None and hasattr(client_sampler, "bind"):
            client_sampler.bind(self.ctx, self.latency_model)
        # constructing the policy validates late_policy / late_weight combos
        self._policy = DeadlinePolicy(
            self.latency_model,
            deadline=self.deadline,
            deadline_controller=self.deadline_controller,
            late_weight=self.late_weight,
            late_policy=self.late_policy,
        )

    def round_latencies(self, round_idx: int, selected: np.ndarray) -> np.ndarray:
        """Virtual response times of a cohort (unique stream per (round, k))."""
        return self._policy.round_latencies(self.ctx.num_clients, round_idx, selected)

    def _run_policy(self) -> DeadlinePolicy:
        # built once (round_latencies reads it); begin() resets it every run
        return self._policy
