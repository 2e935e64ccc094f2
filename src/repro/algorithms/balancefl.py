"""BalanceFL (Shuai et al., IPSN 2022), reimplemented from the paper.

BalanceFL corrects *local* training so each client behaves as if it had a
uniform class distribution.  Two mechanisms are reproduced:

1. **Class-balanced local sampling** — local batches are drawn with the
   :class:`repro.data.BalancedBatchSampler`, so present classes appear
   uniformly regardless of local skew.
2. **Knowledge inheritance** — classes *absent* from a client cannot be
   resampled; for those, the client preserves the received global model's
   probability mass: each sample's CE target becomes the blend

       t = (1 - lam) * onehot(y) + teacher_probs restricted to absent classes

   where ``lam = distill_weight * (teacher mass on absent classes)`` (capped
   at 0.5 so the true label always dominates the target).  A *single* cross-entropy
   toward a valid target distribution has
   a finite equilibrium (p = t), so training is unconditionally stable —
   unlike an additive distillation penalty, which conflicts with the CE term
   at every point (the CE pushes absent logits down, the penalty pushes them
   up) and drives exponential parameter growth.

Aggregation is sample-size-weighted averaging as in FedAvg (the base
class's server step).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm
from repro.data.sampler import BalancedBatchSampler
from repro.nn.functional import softmax
from repro.simulation.context import SimulationContext

__all__ = ["BalanceFL"]


class BalanceFL(FederatedAlgorithm):
    """Local-rebalancing baseline with knowledge inheritance.

    Args:
        distill_weight: weight of the absent-class distillation term.
    """

    name = "balancefl"

    def __init__(self, distill_weight: float = 1.0) -> None:
        if distill_weight < 0:
            raise ValueError(f"distill_weight must be >= 0, got {distill_weight}")
        self.distill_weight = distill_weight

    def setup(self, ctx: SimulationContext) -> None:
        # balanced samplers per client (overrides the default uniform sampler)
        self._samplers = {}
        self._absent = {}
        counts = ctx.dataset.client_counts
        for k in range(ctx.num_clients):
            self._absent[k] = np.flatnonzero(counts[k] == 0)

    def _sampler(self, ctx, k: int) -> BalancedBatchSampler:
        if k not in self._samplers:
            _, y = ctx.client_xy(k)
            self._samplers[k] = BalancedBatchSampler(y, ctx.config.batch_size)
        return self._samplers[k]

    def client_update(self, ctx, round_idx, client_id, x_global) -> ClientUpdate:
        cfg = ctx.config
        xs, ys = ctx.client_xy(client_id)
        sampler = self._sampler(ctx, client_id)
        loss = ctx.loss_for(client_id)
        rng = ctx.client_rng(round_idx, client_id)
        absent = self._absent[client_id]
        mu = self.distill_weight

        # teacher probabilities of the broadcast global model on the local data
        teacher = None
        if mu > 0 and absent.size:
            ctx.load_params(x_global)
            teacher = softmax(
                np.concatenate(
                    [
                        ctx.model.forward(xs[lo : lo + 256], train=False)
                        for lo in range(0, len(xs), 256)
                    ]
                )
            )

        lr = ctx.lr_at(round_idx)
        x = x_global.copy()
        nb = 0
        cap = cfg.max_batches_per_round
        done = False
        for _ in range(cfg.local_epochs):
            if done:
                break
            for bidx in sampler.epoch(rng):
                ctx.load_params(x)
                logits = ctx.model.forward(xs[bidx], train=True)
                if teacher is None:
                    _, dlogits = loss(logits, ys[bidx])
                else:
                    n, c = logits.shape
                    target = np.zeros((n, c))
                    target[np.arange(n), ys[bidx]] = 1.0
                    t_abs = teacher[bidx][:, absent]
                    lam = np.minimum(mu * t_abs.sum(axis=1), 0.5)
                    target *= (1.0 - lam)[:, None]
                    scale = np.divide(
                        lam, t_abs.sum(axis=1), out=np.zeros_like(lam),
                        where=t_abs.sum(axis=1) > 1e-12,
                    )
                    target[:, absent] += t_abs * scale[:, None]
                    dlogits = (softmax(logits) - target) / n
                ctx.model.backward_params(dlogits)
                g = ctx.flat_gradient()
                x -= lr * g
                nb += 1
                if cap is not None and nb >= cap:
                    done = True
                    break
        return ClientUpdate(
            client_id=client_id,
            displacement=x_global - x,
            n_samples=len(ys),
            n_batches=nb,
        )
