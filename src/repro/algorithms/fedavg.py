"""FedAvg, FedProx and server-momentum (FedAvgM / SlowMo) baselines."""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin
from repro.simulation.context import SimulationContext

__all__ = ["FedAvg", "FedProx", "FedAvgM"]


class FedAvg(LocalSGDMixin, FederatedAlgorithm):
    """McMahan et al. 2017: local SGD + sample-size-weighted averaging (the
    base class's server step)."""

    name = "fedavg"


class FedProx(FedAvg):
    """Li et al. 2020: FedAvg with a proximal term mu/2 ||x - x_global||^2."""

    name = "fedprox"

    def __init__(self, mu: float = 0.01) -> None:
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.mu = mu

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        mu = self.mu
        x_global = np.stack([x for _, _, x in jobs])

        def direction(g: np.ndarray, x: np.ndarray, rows) -> np.ndarray:
            return g + mu * (x - x_global[rows])

        x_local, nbs, losses = self._local_sgd(ctx, jobs, direction_fn=direction)
        return self._client_results(ctx, jobs, x_local, nbs, losses)


class FedAvgM(FedAvg):
    """Server-side momentum (Hsu et al. 2019; SlowMo, Wang et al. 2019).

    The server keeps a momentum buffer over aggregated displacements:
    ``m <- beta * m + avg_displacement``; ``x <- x - lr_global * m``.
    """

    name = "fedavgm"

    def __init__(self, server_momentum: float = 0.9) -> None:
        if not 0.0 <= server_momentum < 1.0:
            raise ValueError(f"server_momentum must be in [0, 1), got {server_momentum}")
        self.beta = server_momentum
        self._m: np.ndarray | None = None

    def setup(self, ctx: SimulationContext) -> None:
        self._m = np.zeros(ctx.dim, dtype=np.float64)

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        w = self.aggregation_weights(ctx, selected, updates)
        disp = np.stack([u.displacement for u in updates])
        avg = w @ disp
        self._m *= self.beta
        self._m += avg
        return x_global - ctx.config.lr_global * self._m
