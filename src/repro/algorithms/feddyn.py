"""FedDyn (Acar et al. 2021): dynamic regularization.

Each client minimises its risk plus a linear correction and a quadratic
anchor to the broadcast parameters:

    direction = g - h_i + alpha * (x - x_global)

where ``h_i`` accumulates the client's dual state
``h_i <- h_i - alpha * (x_local - x_global)``.  The server maintains the
running dual mean ``h`` over *all* clients and sets

    x_new = mean(x_local of participants) - h / alpha
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin
from repro.simulation.context import SimulationContext

__all__ = ["FedDyn"]


class FedDyn(LocalSGDMixin, FederatedAlgorithm):
    name = "feddyn"
    stateful_per_client = True

    def __init__(self, alpha: float = 0.1) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha

    def setup(self, ctx: SimulationContext) -> None:
        self._hi = np.zeros((ctx.num_clients, ctx.dim), dtype=np.float64)
        self._h = np.zeros(ctx.dim, dtype=np.float64)

    # client-state contract (see FederatedAlgorithm): h_i rides the event
    # loop's state store under the asynchronous runtimes
    def pack_client_state(self, client_id: int) -> dict:
        return {"hi": self._hi[client_id].copy()}

    def unpack_client_state(self, client_id: int, state: dict) -> None:
        self._hi[client_id] = state["hi"]

    def server_absorb(self, ctx, update, weight: float) -> None:
        # per-arrival analogue of aggregate's h += alpha * (m/K) * mean(disp)
        self._h += self.alpha * weight * update.displacement

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        a = self.alpha
        hi = self._hi[[k for _, k, _ in jobs]]
        x_global = np.stack([x for _, _, x in jobs])

        def direction(g: np.ndarray, x: np.ndarray, rows) -> np.ndarray:
            return g - hi[rows] + a * (x - x_global[rows])

        x_local, nbs, losses = self._local_sgd(ctx, jobs, direction_fn=direction)
        for i, (_, k, xg) in enumerate(jobs):
            self._hi[k] = hi[i] - a * (x_local[i] - xg)
        return self._client_results(ctx, jobs, x_local, nbs, losses)

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        disp = np.stack([u.displacement for u in updates])
        avg_delta = disp.mean(axis=0)  # x_global - mean(x_local)
        # running dual mean over ALL clients: h <- h - alpha/N * sum(x_local - x)
        self._h += self.alpha * (len(updates) / ctx.num_clients) * avg_delta
        return (x_global - avg_delta) - self._h / self.alpha
