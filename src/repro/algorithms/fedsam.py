"""Sharpness-aware baselines: FedSAM and MoFedSAM (Qu et al. 2022).

FedSAM replaces each local gradient with the SAM gradient: evaluate the
gradient at the adversarially perturbed point ``x + rho * g / ||g||``.
MoFedSAM combines the SAM gradient with FedCM-style client momentum.

These are the appendix-D heterogeneous baselines (Figures 18/19).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin, size_weights
from repro.algorithms.fedcm import momentum_direction
from repro.simulation.context import SimulationContext

__all__ = ["FedSAM", "MoFedSAM", "perturbed_gradient"]


def perturbed_gradient(algo, ctx, xb, yb, loss, x, g, d, rho: float) -> np.ndarray:
    """SAM's second evaluation for a stepping group's rows.

    Each row whose ascent direction ``d`` has norm above 1e-12 gets the
    gradient at ``x + rho * d / ||d||`` in place of its row of ``g``; the
    others keep ``g``.  Every norm is its row's own 1-D norm: an ``axis=1``
    norm of the block differs in the last bit.
    """
    norms = np.array([np.linalg.norm(row) for row in d])
    hot = norms > 1e-12
    if hot.all():
        return algo._plain_gradient(ctx, x + rho * d / norms[:, None], xb, yb, loss)
    if hot.any():
        rows = np.flatnonzero(hot)
        batch = xb.reshape(len(norms), -1, *xb.shape[1:])[rows].reshape(-1, *xb.shape[1:])
        g[rows] = algo._plain_gradient(
            ctx, x[rows] + rho * d[rows] / norms[rows, None], batch, yb[rows],
            loss if callable(loss) else [loss[i] for i in rows],
        )
    return g


class FedSAM(LocalSGDMixin, FederatedAlgorithm):
    """FedAvg with local SAM steps."""

    name = "fedsam"

    def __init__(self, rho: float = 0.05, weighted: bool = True) -> None:
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.rho = rho
        self.weighted = weighted

    def _sam_grad_eval(self, ctx: SimulationContext):
        rho = self.rho

        def grad_eval(xb, yb, loss, x, rows):
            g = self._plain_gradient(ctx, x, xb, yb, loss)
            return perturbed_gradient(self, ctx, xb, yb, loss, x, g, g, rho)

        return grad_eval

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        x_local, nbs, losses = self._local_sgd(
            ctx, jobs, grad_eval=self._sam_grad_eval(ctx)
        )
        return self._client_results(ctx, jobs, x_local, nbs, losses)

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        w = size_weights(updates) if self.weighted else np.full(
            len(updates), 1.0 / len(updates)
        )
        disp = np.stack([u.displacement for u in updates])
        return x_global - ctx.config.lr_global * (w @ disp)


class MoFedSAM(FedSAM):
    """FedCM-style momentum applied on top of local SAM gradients."""

    name = "mofedsam"
    requires_aggregate_broadcast = True
    broadcast_attrs = ("_delta",)

    def __init__(self, rho: float = 0.05, alpha: float = 0.1, weighted: bool = True) -> None:
        super().__init__(rho=rho, weighted=weighted)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._delta: np.ndarray | None = None

    def setup(self, ctx: SimulationContext) -> None:
        self._delta = np.zeros(ctx.dim, dtype=np.float64)

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        x_local, nbs, losses = self._local_sgd(
            ctx,
            jobs,
            direction_fn=momentum_direction(self.alpha, self._delta),
            grad_eval=self._sam_grad_eval(ctx),
        )
        return self._client_results(ctx, jobs, x_local, nbs, losses)

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        w = size_weights(updates) if self.weighted else np.full(
            len(updates), 1.0 / len(updates)
        )
        disp = np.stack([u.displacement for u in updates])
        lr = ctx.lr_at(round_idx)
        scale = np.array([1.0 / (lr * max(u.n_batches, 1)) for u in updates])
        self._delta = w @ (disp * scale[:, None])
        return x_global - ctx.config.lr_global * (w @ disp)
