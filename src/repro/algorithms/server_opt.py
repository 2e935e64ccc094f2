"""Server-side adaptive optimizers (Reddi et al. 2020, the paper's ref [39])
and FedNova (Wang et al. 2020).

The paper's related work groups these with server momentum as
"momentum-based methods applied at the server"; they complete the baseline
family:

* :class:`FedAdam` / :class:`FedYogi` — the aggregated pseudo-gradient is
  fed to an Adam/Yogi server optimizer instead of being applied directly.
* :class:`FedNova` — normalises each client's contribution by its local
  step count, removing objective inconsistency under heterogeneous local
  work (relevant to the FedWCM-X quantity-skew setting).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import FederatedAlgorithm, LocalSGDMixin, size_weights
from repro.simulation.context import SimulationContext

__all__ = ["FedAdam", "FedYogi", "FedNova"]


class _ServerAdaptive(LocalSGDMixin, FederatedAlgorithm):
    """Shared scaffolding: plain local SGD + adaptive server step."""

    def __init__(
        self,
        server_lr: float = 0.1,
        beta1: float = 0.9,
        beta2: float = 0.99,
        tau: float = 1e-3,
    ) -> None:
        if server_lr <= 0:
            raise ValueError(f"server_lr must be positive, got {server_lr}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.server_lr = server_lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.tau = tau

    def setup(self, ctx: SimulationContext) -> None:
        self._m = np.zeros(ctx.dim, dtype=np.float64)
        self._v = np.full(ctx.dim, self.tau**2, dtype=np.float64)

    def _second_moment(self, g: np.ndarray) -> None:
        raise NotImplementedError

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        w = self.aggregation_weights(ctx, selected, updates)
        disp = np.stack([u.displacement for u in updates])
        g = w @ disp  # server pseudo-gradient
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * g
        self._second_moment(g)
        step = self.server_lr * self._m / (np.sqrt(self._v) + self.tau)
        return x_global - step


class FedAdam(_ServerAdaptive):
    """Adaptive federated optimization with an Adam server step."""

    name = "fedadam"

    def _second_moment(self, g: np.ndarray) -> None:
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * g * g


class FedYogi(_ServerAdaptive):
    """Yogi variant: sign-controlled second-moment update (more stable
    under heavy-tailed pseudo-gradients)."""

    name = "fedyogi"

    def _second_moment(self, g: np.ndarray) -> None:
        g2 = g * g
        self._v -= (1.0 - self.beta2) * np.sign(self._v - g2) * g2


class FedNova(LocalSGDMixin, FederatedAlgorithm):
    """Normalized averaging: weight displacements by 1/(local steps).

    Each client's displacement is divided by its step count before the
    sample-weighted average, and the average is rescaled by the weighted
    mean step count — heterogeneous local work then contributes equal
    effective progress per step (Wang et al. 2020).
    """

    name = "fednova"

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        w = size_weights(updates)
        taus = np.array([max(u.n_batches, 1) for u in updates], dtype=np.float64)
        disp = np.stack([u.displacement for u in updates])
        normalized = disp / taus[:, None]
        tau_eff = float(w @ taus)
        return x_global - ctx.config.lr_global * tau_eff * (w @ normalized)
