"""FedCM + imbalance-handling variants (the paper's Table 1 middle columns).

The paper tests whether classical long-tail fixes rescue FedCM:

* FedCM + Focal Loss
* FedCM + Balance Loss (PriorCE / logit adjustment)
* FedCM + Balance Sampler (class-balanced resampling)

Each variant is FedCM with a swapped per-client loss or sampler; the factory
functions here return ``(algorithm, loss_builder, sampler_builder)`` triples
ready for :class:`repro.simulation.FederatedSimulation`.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.fedcm import FedCM
from repro.data.sampler import BalancedBatchSampler
from repro.nn.losses import FocalLoss, PriorCELoss

__all__ = [
    "fedcm_with_focal",
    "fedcm_with_balance_loss",
    "fedcm_with_balanced_sampler",
]


def fedcm_with_focal(alpha: float = 0.1, gamma: float = 2.0):
    """FedCM whose clients train with focal loss."""

    def loss_builder(ctx, client_id):
        return FocalLoss(gamma=gamma)

    algo = FedCM(alpha=alpha)
    algo.name = "fedcm+focal"
    return algo, loss_builder, None


def fedcm_with_balance_loss(alpha: float = 0.1):
    """FedCM whose clients train with the logit-adjusted (PriorCE) loss.

    The prior is each client's *local* label distribution (the loss corrects
    the local skew, mirroring the centralized recipe applied per client).
    """

    def loss_builder(ctx, client_id):
        y = ctx.dataset.y_train[ctx.dataset.client_rows(client_id)]
        counts = np.bincount(y, minlength=ctx.num_classes).astype(np.float64)
        prior = (counts + 1.0) / (counts.sum() + ctx.num_classes)  # Laplace smoothing
        return PriorCELoss(prior)

    algo = FedCM(alpha=alpha)
    algo.name = "fedcm+balance_loss"
    return algo, loss_builder, None


def fedcm_with_balanced_sampler(alpha: float = 0.1):
    """FedCM whose clients draw class-balanced local batches."""

    def sampler_builder(labels, batch_size):
        return BalancedBatchSampler(labels, batch_size)

    algo = FedCM(alpha=alpha)
    algo.name = "fedcm+balance_sampler"
    return algo, None, sampler_builder
