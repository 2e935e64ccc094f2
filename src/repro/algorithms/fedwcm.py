"""FedWCM (the paper's Algorithm 1) and FedWCM-X (Algorithm 3).

FedWCM = FedCM + two adaptive mechanisms driven by global distribution
information gathered once at startup (section 5.1; optionally under
homomorphic encryption, see :mod:`repro.he`):

1. **Weighted momentum aggregation** (Eq. 4): the global momentum ``Delta``
   is aggregated with temperature-softmax weights over client scarcity
   scores, boosting clients that hold globally scarce (tail) data.
2. **Adaptive momentum coefficient** (Eq. 5): ``alpha_{r+1}`` grows with the
   global imbalance and with the current cohort's scarcity ratio, so momentum
   is strong when it is safe (balanced data) and damped when it would amplify
   head-class bias.

In code FedWCM is :class:`~repro.algorithms.fedcm.FedCM` overriding two hooks,
``aggregation_weights`` (1.) and ``next_alpha`` (2.), plus the gathering.

FedWCM-X additionally handles quantity skew: aggregation weights are
multiplied by relative client sizes and the local learning rate is rescaled
by ``B_hat / B_k`` so clients with more batches do not apply the shared
momentum more often at full strength (its ``aggregation_weights`` and
``pseudo_gradients`` overrides, and its own ``client_updates``).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate
from repro.algorithms.fedcm import FedCM, momentum_direction
from repro.core.momentum import adaptive_alpha, score_ratio
from repro.core.scoring import client_scores, global_distribution
from repro.core.weighting import compute_temperature, l1_discrepancy, softmax_weights
from repro.simulation.context import SimulationContext

__all__ = ["FedWCM", "FedWCMX"]


class FedWCM(FedCM):
    """Weighted-and-calibrated momentum federated learning.

    Args:
        alpha0: initial momentum coefficient (paper: 0.1).
        target_dist: target global distribution p_hat; uniform when None.
        score_mode: ``"signed"`` (paper semantics, default) or ``"abs"``
            (literal Eq. 3) — see :mod:`repro.core.scoring`.
        t_scale: temperature scale for Eq. 4.
        alpha_min / alpha_max: clipping range of the adaptive alpha.
        adaptive: False keeps alpha at ``alpha0`` (Eq. 4 weights only).
    """

    name = "fedwcm"

    def __init__(
        self,
        alpha0: float = 0.1,
        target_dist: np.ndarray | None = None,
        score_mode: str = "signed",
        t_scale: float = 1.0,
        alpha_min: float = 0.1,
        alpha_max: float = 0.999,
        adaptive: bool = True,
    ) -> None:
        if not 0.0 < alpha0 < 1.0:
            raise ValueError(f"alpha0 must be in (0, 1), got {alpha0}")
        super().__init__(alpha=alpha0)
        self.target_dist = target_dist
        self.score_mode = score_mode
        self.t_scale = t_scale
        self.alpha_min = alpha_min
        self.alpha_max = alpha_max
        self.adaptive = adaptive

    # -- setup: global information gathering (section 5.1) -------------------
    def gather_global_distribution(self, ctx: SimulationContext) -> np.ndarray:
        """The global class distribution the scores and temperature are
        computed from: here read from the clients' counts in the clear."""
        return global_distribution(ctx.dataset.client_counts)

    def setup(self, ctx: SimulationContext) -> None:
        super().setup(ctx)
        self.global_dist = self.gather_global_distribution(ctx)
        self.scores = client_scores(
            ctx.dataset.client_counts, self.target_dist, mode=self.score_mode,
            global_dist=self.global_dist,
        )
        self.discrepancy = l1_discrepancy(self.global_dist, self.target_dist)
        self.temperature = compute_temperature(
            self.global_dist, self.target_dist, t_scale=self.t_scale
        )

    # -- server hooks (Algorithm 1) -------------------------------------------
    def aggregation_weights(self, ctx, selected, updates) -> np.ndarray:
        """Eq. 4: temperature softmax over the cohort's scarcity scores."""
        sel_scores = self.scores[np.asarray(selected, dtype=np.int64)]
        return softmax_weights(sel_scores, self.temperature)

    def next_alpha(self, ctx, selected) -> float | None:
        """Eq. 5: alpha grows with the global imbalance and the cohort's
        score ratio; None (alpha kept) when ``adaptive`` is off."""
        if not self.adaptive:
            return None
        q_r = score_ratio(self.scores, np.asarray(selected))
        return adaptive_alpha(self.discrepancy, ctx.num_classes, q_r,
                              alpha_min=self.alpha_min, alpha_max=self.alpha_max)

    def round_extras(self) -> dict:
        return {
            **super().round_extras(),
            "temperature": getattr(self, "temperature", float("nan")),
        }


class FedWCMX(FedWCM):
    """FedWCM-X (Algorithm 3): FedWCM under quantity-skewed partitions.

    Two changes relative to FedWCM:

    * aggregation weights are multiplied by relative sample counts
      ``n_k / sum_j n_j`` (then renormalised);
    * each client's local learning rate becomes
      ``lr_local * B_hat / B_k`` where ``B_hat`` is the batch count of an
      even split and ``B_k`` the client's own batch count, and its
      pseudo-gradient is normalised by that rate.
    """

    name = "fedwcm-x"

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        mom = self.momentum
        b_hat = ctx.nominal_batches()
        lr_k = []
        for r, k, _ in jobs:
            n_k = len(ctx.dataset.client_rows(k))
            per_epoch = max(1, int(np.ceil(n_k / ctx.config.batch_size)))
            b_k = per_epoch * ctx.config.local_epochs
            lr_k.append(ctx.lr_at(r) * (b_hat / max(b_k, 1)))

        x_local, nbs, losses = self._local_sgd(
            ctx, jobs, direction_fn=momentum_direction(mom.alpha, mom.delta), lr=lr_k
        )
        return self._client_results(
            ctx, jobs, x_local, nbs, losses, extras=[{"lr_k": lr} for lr in lr_k]
        )

    def aggregation_weights(self, ctx, selected, updates) -> np.ndarray:
        w = super().aggregation_weights(ctx, selected, updates)
        sizes = np.array([u.n_samples for u in updates], dtype=np.float64)
        total = sizes.sum()
        if total > 0:
            w = w * (sizes / total)
            s = w.sum()
            if s > 0:
                w = w / s
        return w

    def pseudo_gradients(self, ctx, round_idx, updates, disp) -> np.ndarray:
        """Normalised by each client's actual applied step budget
        ``lr_k * B_k``."""
        scale = np.array(
            [1.0 / (u.extras["lr_k"] * max(u.n_batches, 1)) for u in updates]
        )
        return disp * scale[:, None]
