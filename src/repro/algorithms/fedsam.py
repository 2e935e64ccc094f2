"""Sharpness-aware baselines: FedSAM and MoFedSAM (Qu et al. 2022).

FedSAM replaces each local gradient with the SAM gradient: evaluate the
gradient at the adversarially perturbed point ``x + rho * g / ||g||``.
MoFedSAM combines the SAM gradient with FedCM-style client momentum: it is
:class:`~repro.algorithms.fedcm.FedCM` whose local steps evaluate
:func:`sam_grad_eval`.

These are the appendix-D heterogeneous baselines (Figures 18/19).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin
from repro.algorithms.fedcm import FedCM, momentum_direction

__all__ = ["FedSAM", "MoFedSAM", "perturbed_gradient", "sam_grad_eval"]


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


def sam_grad_eval(algo, ctx, rho: float):
    """``_local_sgd``'s ``grad_eval`` for SAM steps of radius ``rho``: the
    plain gradient, then the gradient at the point it ascends to."""

    def grad_eval(xb, yb, loss, x, rows):
        g = algo._plain_gradient(ctx, x, xb, yb, loss)
        return perturbed_gradient(algo, ctx, xb, yb, loss, x, g, g, rho)

    return grad_eval


class FedSAM(LocalSGDMixin, FederatedAlgorithm):
    """FedAvg with local SAM steps."""

    name = "fedsam"

    def __init__(self, rho: float = 0.05) -> None:
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.rho = rho

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        x_local, nbs, losses = self._local_sgd(
            ctx, jobs, grad_eval=sam_grad_eval(self, ctx, self.rho)
        )
        return self._client_results(ctx, jobs, x_local, nbs, losses)


class MoFedSAM(FedCM):
    """FedCM-style momentum applied on top of local SAM gradients."""

    name = "mofedsam"

    def __init__(self, rho: float = 0.05, alpha: float = 0.1) -> None:
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        super().__init__(alpha=alpha)
        self.rho = rho

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        mom = self.momentum
        x_local, nbs, losses = self._local_sgd(
            ctx, jobs, direction_fn=momentum_direction(mom.alpha, mom.delta),
            grad_eval=sam_grad_eval(self, ctx, self.rho),
        )
        return self._client_results(ctx, jobs, x_local, nbs, losses)
