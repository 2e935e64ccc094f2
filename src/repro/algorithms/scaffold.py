"""SCAFFOLD (Karimireddy et al. 2020): stochastic controlled averaging.

Clients correct their local gradients with control variates:

    direction = g - c_i + c

After local training, each client refreshes its control variate with
option II of the paper: ``c_i^+ = c_i - c + (x_global - x_local) / (K * lr)``,
and the server updates ``c`` with the participation-weighted average of the
(c_i^+ - c_i) deltas.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin
from repro.simulation.context import SimulationContext

__all__ = ["Scaffold"]


class Scaffold(LocalSGDMixin, FederatedAlgorithm):
    name = "scaffold"
    stateful_per_client = True
    # the server variate c is read by every client_update: ship it to replicas
    broadcast_attrs = ("_c",)

    def setup(self, ctx: SimulationContext) -> None:
        self._c = np.zeros(ctx.dim, dtype=np.float64)
        self._ci = np.zeros((ctx.num_clients, ctx.dim), dtype=np.float64)

    # client-state contract: the control variate c_i travels through the
    # event-driven runtimes' state store (snapshot at dispatch, commit at
    # completion) instead of being read in completion order
    def pack_client_state(self, client_id: int) -> dict:
        return {"ci": self._ci[client_id].copy()}

    def unpack_client_state(self, client_id: int, state: dict) -> None:
        self._ci[client_id] = state["ci"]

    def server_absorb(self, ctx, update, weight: float) -> None:
        # per-arrival analogue of aggregate's (m/K) * mean(delta_ci)
        self._c += weight * update.extras["delta_ci"]

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        c, ci = self._c, self._ci[[k for _, k, _ in jobs]]
        correction = c - ci  # row i is added to every local gradient of client i

        def direction(g: np.ndarray, x: np.ndarray, rows) -> np.ndarray:
            return g + correction[rows]

        x_local, nbs, losses = self._local_sgd(ctx, jobs, direction_fn=direction)
        updates = self._client_results(ctx, jobs, x_local, nbs, losses)
        for (r, k, _), ci_k, u in zip(jobs, ci, updates):
            lr = ctx.lr_at(r)
            ci_new = ci_k - c + u.displacement / (max(u.n_batches, 1) * lr)
            u.extras = {"delta_ci": ci_new - ci_k, **u.extras}
            self._ci[k] = ci_new
        return updates

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        m = len(updates)
        disp = np.stack([u.displacement for u in updates])
        x_new = x_global - ctx.config.lr_global * disp.mean(axis=0)
        dci = np.stack([u.extras["delta_ci"] for u in updates])
        self._c += (m / ctx.num_clients) * dci.mean(axis=0)
        return x_new
