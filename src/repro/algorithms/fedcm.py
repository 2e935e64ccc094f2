"""FedCM (Xu et al. 2021): federated learning with client-level momentum.

The server broadcasts a global momentum direction ``Delta`` (gradient scale);
every local step mixes it with the fresh gradient:

    v = alpha * g + (1 - alpha) * Delta        (paper Eq. 2 / 6)
    x <- x - lr_local * v

After the round, ``Delta`` is refreshed from the clients' average applied
direction (their displacement divided by ``lr_local * n_batches``) and the
server applies the averaged displacement as in FedAvg.

FedCM uses a *fixed* ``alpha = 0.1`` — the design decision FedWCM revisits.
Its server step is the momentum rule of the whole family (FedWCM, FedWCM-X,
MoFedSAM), which override its hooks.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin
from repro.core.momentum import GlobalMomentum
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

    ``self.momentum`` is a :class:`~repro.core.momentum.GlobalMomentum`.  A
    round's server step: the weights ``w = aggregation_weights(...)``, then
    ``momentum.update(pseudo_gradients(...), w)``, then ``next_alpha(...)``
    (None keeps alpha), then FedAvg's step with ``w``.

    Args:
        alpha: weight on the instantaneous gradient (paper default 0.1 —
            i.e. 90% of every local step follows the global momentum).
    """

    name = "fedcm"
    requires_aggregate_broadcast = True

    def __init__(self, alpha: float = 0.1) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.momentum: GlobalMomentum | None = None

    def setup(self, ctx: SimulationContext) -> None:
        self.momentum = GlobalMomentum(dim=ctx.dim, alpha=self.alpha)

    def pack_broadcast_state(self) -> dict:
        """What clients read: ``delta`` (the live array, which ``update``
        replaces and never writes into) for the shared-memory pool to publish
        once per version, and ``alpha`` as a NumPy scalar, which pickle
        memoizes, so one pool task's jobs still share one state."""
        mom = self.momentum
        return {"delta": mom.delta, "alpha": np.float64(mom.alpha)}

    def unpack_broadcast_state(self, state: dict) -> None:
        self.momentum.delta = state["delta"]
        self.momentum.alpha = float(state["alpha"])

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        mom = self.momentum
        x_local, nbs, losses = self._local_sgd(
            ctx, jobs, direction_fn=momentum_direction(mom.alpha, mom.delta)
        )
        return self._client_results(ctx, jobs, x_local, nbs, losses)

    def pseudo_gradients(self, ctx, round_idx, updates, disp) -> np.ndarray:
        """Each client's gradient-scale direction: its displacement over
        ``lr * n_batches``."""
        lr = ctx.lr_at(round_idx)
        scale = np.array([1.0 / (lr * max(u.n_batches, 1)) for u in updates])
        return disp * scale[:, None]

    def next_alpha(self, ctx, selected) -> float | None:
        """The next round's alpha; None keeps the current one (FedCM's is
        fixed)."""
        return None

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        w = self.aggregation_weights(ctx, selected, updates)
        disp = np.stack([u.displacement for u in updates])
        self.momentum.update(self.pseudo_gradients(ctx, round_idx, updates, disp), w)
        alpha = self.next_alpha(ctx, selected)
        if alpha is not None:
            self.momentum.set_alpha(alpha)
        return x_global - ctx.config.lr_global * (w @ disp)

    def round_extras(self) -> dict:
        return {"alpha": self.momentum.alpha if self.momentum else self.alpha}
