"""FedCM (Xu et al. 2021): federated learning with client-level momentum.

The server broadcasts a global momentum direction ``Delta`` (gradient scale);
every local step mixes it with the fresh gradient:

    v = alpha * g + (1 - alpha) * Delta        (paper Eq. 2 / 6)
    x <- x - lr_local * v

After the round, ``Delta`` is refreshed from the clients' average applied
direction (their displacement divided by ``lr_local * n_batches``) and the
server applies the averaged displacement as in FedAvg.

FedCM uses a *fixed* ``alpha = 0.1`` — the design decision FedWCM revisits.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin, size_weights
from repro.simulation.context import SimulationContext

__all__ = ["FedCM", "momentum_direction"]


def momentum_direction(a: float, delta: np.ndarray):
    """The client-momentum step ``v = a * g + (1 - a) * delta`` (Eq. 2 / 6).

    ``(1 - a) * delta`` is built from server state alone, so it is computed
    once per cohort: the same op on the same operands gives every step the
    bits it would compute itself.
    """
    md = (1.0 - a) * delta

    def direction(g: np.ndarray, x: np.ndarray, rows) -> np.ndarray:
        v = a * g
        v += md
        return v

    return direction


class FedCM(LocalSGDMixin, FederatedAlgorithm):
    """Client-level momentum with fixed mixing coefficient.

    Args:
        alpha: weight on the instantaneous gradient (paper default 0.1 —
            i.e. 90% of every local step follows the global momentum).
        weighted: sample-size aggregation weights (True) or uniform (False).
    """

    name = "fedcm"
    requires_aggregate_broadcast = True
    broadcast_attrs = ("_delta",)

    def __init__(self, alpha: float = 0.1, weighted: bool = True) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.weighted = weighted
        self._delta: np.ndarray | None = None

    def setup(self, ctx: SimulationContext) -> None:
        self._delta = np.zeros(ctx.dim, dtype=np.float64)

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        x_local, nbs, losses = self._local_sgd(
            ctx, jobs, direction_fn=momentum_direction(self.alpha, self._delta)
        )
        return self._client_results(ctx, jobs, x_local, nbs, losses)

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        w = size_weights(updates) if self.weighted else np.full(
            len(updates), 1.0 / len(updates)
        )
        disp = np.stack([u.displacement for u in updates])
        lr = ctx.lr_at(round_idx)
        # gradient-scale pseudo-gradients: displacement / (lr * batches)
        scale = np.array([1.0 / (lr * max(u.n_batches, 1)) for u in updates])
        self._delta = w @ (disp * scale[:, None])
        return x_global - ctx.config.lr_global * (w @ disp)

    def round_extras(self) -> dict:
        return {"alpha": self.alpha}
