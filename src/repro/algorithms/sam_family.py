"""Remaining sharpness-aware / speed baselines of Figures 18/19.

Laptop-scale ("-lite") reimplementations of the three remaining appendix-D
comparators — each keeps the method's defining mechanism and drops only
engineering detail orthogonal to this library's experiments:

* :class:`FedSpeed` (Sun et al. 2023): prox-correction + extra-gradient
  ascent step.  Each local step evaluates the gradient at an ascent-perturbed
  point and adds a proximal pull toward the broadcast parameters; the dual
  correction of the full method is represented by the prox term.
* :class:`FedSMOO` (Sun et al. 2023): dynamic regularization (FedDyn-style
  dual variables) combined with SAM local steps whose perturbations are
  coupled through a shared server estimate.
* :class:`FedLESAM` (Fan et al. 2024): *locally-estimated global
  perturbation* — instead of each client perturbing along its own noisy
  gradient, clients perturb along the direction of the global update
  ``x_prev - x_current``, estimating the global ascent direction for free.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin
from repro.algorithms.fedsam import perturbed_gradient, sam_grad_eval
from repro.simulation.context import SimulationContext

__all__ = ["FedSpeed", "FedSMOO", "FedLESAM"]


class FedSpeed(LocalSGDMixin, FederatedAlgorithm):
    """Prox-correction + extra-gradient perturbation (lite).

    Args:
        rho: ascent-step radius of the extra-gradient evaluation.
        lam: proximal weight pulling local iterates toward the broadcast
            parameters (the prox-correction half of the method).
    """

    name = "fedspeed"

    def __init__(self, rho: float = 0.05, lam: float = 0.1) -> None:
        if rho <= 0 or lam < 0:
            raise ValueError("require rho > 0 and lam >= 0")
        self.rho = rho
        self.lam = lam

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        lam, sam = self.lam, sam_grad_eval(self, ctx, self.rho)
        x_global = np.stack([x for _, _, x in jobs])

        def grad_eval(xb, yb, loss, x, rows):
            return sam(xb, yb, loss, x, rows) + lam * (x - x_global[rows])

        x_local, nbs, losses = self._local_sgd(ctx, jobs, grad_eval=grad_eval)
        return self._client_results(ctx, jobs, x_local, nbs, losses)


class FedSMOO(LocalSGDMixin, FederatedAlgorithm):
    """Dynamic regularization + globally-coupled SAM (lite).

    Keeps FedDyn's per-client dual variables ``h_i`` and adds SAM gradient
    evaluations whose perturbation direction mixes the local gradient with
    the server's shared ascent estimate ``mu`` (the method's "global
    consistency" coupling).
    """

    name = "fedsmoo"
    stateful_per_client = True
    broadcast_attrs = ("_mu",)
    # mu is refreshed only in aggregate, so async wrapping is refused even
    # though the per-client h_i state implements the pack/unpack contract
    requires_aggregate_broadcast = True

    def __init__(self, rho: float = 0.05, alpha: float = 0.1) -> None:
        if rho <= 0 or alpha <= 0:
            raise ValueError("require rho > 0 and alpha > 0")
        self.rho = rho
        self.alpha = alpha

    def setup(self, ctx: SimulationContext) -> None:
        self._hi = np.zeros((ctx.num_clients, ctx.dim), dtype=np.float64)
        self._mu = np.zeros(ctx.dim, dtype=np.float64)  # shared ascent estimate

    # client-state contract: the dual variable h_i per client
    def pack_client_state(self, client_id: int) -> dict:
        return {"hi": self._hi[client_id].copy()}

    def unpack_client_state(self, client_id: int, state: dict) -> None:
        self._hi[client_id] = state["hi"]

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        rho, a = self.rho, self.alpha
        hi = self._hi[[k for _, k, _ in jobs]]
        x_global = np.stack([x for _, _, x in jobs])
        mu = self._mu
        mu_norm = np.linalg.norm(mu)

        def grad_eval(xb, yb, loss, x, rows):
            g = self._plain_gradient(ctx, x, xb, yb, loss)
            # couple the ascent direction with the shared estimate
            d = g if mu_norm <= 1e-12 else 0.5 * g + 0.5 * mu
            g = perturbed_gradient(self, ctx, xb, yb, loss, x, g, d, rho)
            return g - hi[rows] + a * (x - x_global[rows])

        x_local, nbs, losses = self._local_sgd(ctx, jobs, grad_eval=grad_eval)
        for i, (_, k, xg) in enumerate(jobs):
            self._hi[k] = hi[i] - a * (x_local[i] - xg)
        return self._client_results(ctx, jobs, x_local, nbs, losses)

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        w = self.aggregation_weights(ctx, selected, updates)
        disp = np.stack([u.displacement for u in updates])
        avg = w @ disp
        lr = ctx.lr_at(round_idx)
        nb = max(int(np.mean([u.n_batches for u in updates])), 1)
        self._mu = avg / (lr * nb)  # refresh the shared ascent estimate
        return x_global - ctx.config.lr_global * avg


class FedLESAM(LocalSGDMixin, FederatedAlgorithm):
    """Locally-estimated global perturbation SAM (lite).

    Clients perturb along the *global* update direction estimated from the
    two most recent broadcast models — one extra vector of state, zero extra
    gradient evaluations compared to FedSAM (the method's selling point).
    """

    name = "fedlesam"
    requires_aggregate_broadcast = True
    broadcast_attrs = ("_x_prev",)

    def __init__(self, rho: float = 0.05) -> None:
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.rho = rho
        self._x_prev: np.ndarray | None = None

    def setup(self, ctx: SimulationContext) -> None:
        self._x_prev = ctx.x0.copy()

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        rho = self.rho
        perturb = []
        for _, _, x_global in jobs:
            est = self._x_prev - x_global  # estimated global ascent direction
            est_norm = np.linalg.norm(est)
            perturb.append(
                np.zeros_like(x_global) if est_norm <= 1e-12 else rho * est / est_norm
            )
        perturb = np.stack(perturb)

        def grad_eval(xb, yb, loss, x, rows):
            return self._plain_gradient(ctx, x + perturb[rows], xb, yb, loss)

        x_local, nbs, losses = self._local_sgd(ctx, jobs, grad_eval=grad_eval)
        return self._client_results(ctx, jobs, x_local, nbs, losses)

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        self._x_prev = x_global.copy()
        return super().aggregate(ctx, round_idx, selected, updates, x_global)
