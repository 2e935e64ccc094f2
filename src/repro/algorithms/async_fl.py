"""Staleness-aware server updates for the asynchronous runtime.

Both methods run plain local SGD on the client (same displacement contract
as FedAvg) and differ only in the server step, which the event-driven
engine (:class:`repro.runtime.AsyncFederatedSimulation`) drives through an
extra protocol method::

    server_apply(ctx, x, update, staleness, x_dispatch) -> x_new | None

``staleness`` is the number of server versions that elapsed between the
update's dispatch and its arrival; ``x_dispatch`` is the parameter vector
the client trained from.  Returning None means the update was only
buffered (FedBuff below K) and the global model is unchanged.

* :class:`FedAsync` (Xie et al. 2019, "Asynchronous Federated
  Optimization"): every arrival is merged immediately by convex mixing
  ``x <- (1 - a) x + a x_local`` with ``a = mixing * (1 + tau)^(-kappa)``
  — the polynomial staleness discount of the paper.
* :class:`FedBuff` (Nguyen et al. 2022, "Federated Learning with Buffered
  Asynchronous Aggregation"): arrivals accumulate staleness-discounted
  displacements in a size-K buffer; every K-th arrival applies their mean
  as one server step.

Both also implement the standard synchronous ``aggregate`` protocol (all
updates treated as staleness 0), so they can run unchanged inside
:class:`repro.simulation.FederatedSimulation` or the semi-sync wrapper.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin
from repro.simulation.context import SimulationContext

__all__ = ["FedAsync", "FedBuff", "AsyncAdapter"]


class _AsyncLocalSGD(LocalSGDMixin, FederatedAlgorithm):
    """Shared FedAvg-style local update; subclasses supply the server step."""

    # none of these enter client_updates (plain local SGD), so worker
    # replicas built with default values still produce bit-identical client
    # updates — the async engine's replica-config check skips them
    replica_safe_hyperparams = frozenset(
        {"staleness_exponent", "mixing", "buffer_size"}
    )

    def __init__(self, staleness_exponent: float = 0.5) -> None:
        if staleness_exponent < 0:
            raise ValueError(f"staleness_exponent must be >= 0, got {staleness_exponent}")
        self.staleness_exponent = staleness_exponent

    def staleness_weight(self, staleness: float) -> float:
        """Polynomial discount s(tau) = (1 + tau)^(-kappa)."""
        return float((1.0 + max(staleness, 0.0)) ** (-self.staleness_exponent))

    def server_apply(
        self,
        ctx: SimulationContext,
        x: np.ndarray,
        update: ClientUpdate,
        staleness: float,
        x_dispatch: np.ndarray,
    ) -> np.ndarray | None:
        raise NotImplementedError

    def finalize(self, ctx: SimulationContext, x: np.ndarray) -> np.ndarray | None:
        """Drain any buffered state at end of run (default: nothing)."""
        return None


class FedAsync(_AsyncLocalSGD):
    """Immediate staleness-discounted mixing.

    Args:
        mixing: base mixing rate alpha in (0, 1]; the fresh-update step size.
        staleness_exponent: kappa of the polynomial discount.
    """

    name = "fedasync"

    def __init__(
        self,
        mixing: float = 0.6,
        staleness_exponent: float = 0.5,
    ) -> None:
        super().__init__(staleness_exponent=staleness_exponent)
        if not 0.0 < mixing <= 1.0:
            raise ValueError(f"mixing must be in (0, 1], got {mixing}")
        self.mixing = mixing
        self._last_alpha = float("nan")

    def server_apply(self, ctx, x, update, staleness, x_dispatch) -> np.ndarray:
        a = min(1.0, ctx.config.lr_global * self.mixing * self.staleness_weight(staleness))
        self._last_alpha = a
        x_local = x_dispatch - update.displacement
        return (1.0 - a) * x + a * x_local

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        # synchronous fallback: zero staleness, so mixing collapses to a
        # damped FedAvg step (x_dispatch == x_global for every update)
        w = self.aggregation_weights(ctx, selected, updates)
        a = min(1.0, ctx.config.lr_global * self.mixing)
        self._last_alpha = a
        disp = np.stack([u.displacement for u in updates])
        return x_global - a * (w @ disp)

    def round_extras(self) -> dict:
        return {"alpha_async": self._last_alpha}


class FedBuff(_AsyncLocalSGD):
    """Buffered-K aggregation of staleness-discounted displacements.

    Args:
        buffer_size: K — arrivals per server step.
        staleness_exponent: kappa of the polynomial discount.
    """

    name = "fedbuff"

    def __init__(self, buffer_size: int = 5, staleness_exponent: float = 0.5) -> None:
        super().__init__(staleness_exponent=staleness_exponent)
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        self.buffer_size = buffer_size
        self._buffer: list[np.ndarray] = []

    def setup(self, ctx: SimulationContext) -> None:
        self._buffer = []

    def server_apply(self, ctx, x, update, staleness, x_dispatch=None) -> np.ndarray | None:
        self._buffer.append(self.staleness_weight(staleness) * update.displacement)
        if len(self._buffer) >= self.buffer_size:
            return self._drain(ctx, x)
        return None

    def finalize(self, ctx, x) -> np.ndarray | None:
        return self._drain(ctx, x) if self._buffer else None

    def _drain(self, ctx, x) -> np.ndarray:
        avg = np.mean(np.stack(self._buffer), axis=0)
        self._buffer = []
        return x - ctx.config.lr_global * avg

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        # synchronous fallback: one uniform buffer drain over the cohort
        disp = np.stack([u.displacement for u in updates])
        return x_global - ctx.config.lr_global * disp.mean(axis=0)

    def round_extras(self) -> dict:
        return {"buffer_fill": len(self._buffer)}


class AsyncAdapter(FederatedAlgorithm):
    """Run any registry method's *local* rule under an async *server* rule.

    The asynchronous engines are their aggregation rule (FedAsync mixing /
    FedBuff buffering), which until now restricted them to plain local SGD.
    This adapter splits the two roles: ``base`` supplies ``client_update``
    (any :class:`FederatedAlgorithm` — SCAFFOLD's control-variate correction,
    FedDyn's dynamic regularizer, the SAM family's perturbed gradients) and
    ``rule`` (a :class:`FedAsync` or :class:`FedBuff` instance) supplies the
    staleness-aware server step applied to the returned displacement.

    Per-client state declared through the base method's pack/unpack contract
    travels through the event loop's state store (snapshot at dispatch,
    commit at completion); server-side method state absorbs each arrival via
    ``base.server_absorb`` with weight ``1/K`` — the per-arrival analogue of
    the synchronous participation-weighted mean.
    """

    def __init__(self, base: FederatedAlgorithm, rule: _AsyncLocalSGD) -> None:
        if not hasattr(rule, "server_apply"):
            raise TypeError(
                f"{type(rule).__name__} has no server_apply(); the adapter rule "
                "must be a staleness-aware method (fedasync, fedbuff)"
            )
        if hasattr(base, "server_apply"):
            raise ValueError(
                f"{type(base).__name__} is already staleness-aware; "
                "run it directly instead of wrapping it"
            )
        if getattr(base, "requires_aggregate_broadcast", False):
            raise ValueError(
                f"{getattr(base, 'name', type(base).__name__)} broadcasts "
                "server state that only aggregate() refreshes; under an async "
                "rule that state would stay frozen and the method would "
                "silently degenerate — run it under the semisync engine instead"
            )
        self.base = base
        self.rule = rule
        self.name = f"{rule.name}+{base.name}"

    @property
    def stateful_per_client(self) -> bool:
        return self.base.stateful_per_client

    @property
    def parallel_safe(self) -> bool:
        return getattr(self.base, "parallel_safe", True)

    def setup(self, ctx: SimulationContext) -> None:
        self.base.setup(ctx)
        self.rule.setup(ctx)

    def client_update(self, ctx, round_idx, client_id, x_global) -> ClientUpdate:
        return self.base.client_update(ctx, round_idx, client_id, x_global)

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        return self.base.client_updates(ctx, jobs)

    def pack_client_state(self, client_id: int) -> dict:
        return self.base.pack_client_state(client_id)

    def unpack_client_state(self, client_id: int, state: dict) -> None:
        self.base.unpack_client_state(client_id, state)

    def pack_broadcast_state(self) -> dict:
        return self.base.pack_broadcast_state()

    def unpack_broadcast_state(self, state: dict) -> None:
        self.base.unpack_broadcast_state(state)

    def server_apply(self, ctx, x, update, staleness, x_dispatch) -> np.ndarray | None:
        x_new = self.rule.server_apply(ctx, x, update, staleness, x_dispatch)
        self.base.server_absorb(ctx, update, 1.0 / ctx.num_clients)
        return x_new

    def finalize(self, ctx, x) -> np.ndarray | None:
        return self.rule.finalize(ctx, x)

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        # synchronous fallback mirrors the rule's (zero staleness for all)
        return self.rule.aggregate(ctx, round_idx, selected, updates, x_global)

    def round_extras(self) -> dict:
        return {**self.base.round_extras(), **self.rule.round_extras()}
