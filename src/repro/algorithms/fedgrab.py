"""Fed-GraB (Xiao et al., NeurIPS 2023), reimplemented from the paper.

Fed-GraB couples two components:

* a **Direct Prior Analyzer (DPA)** — the server estimates the global class
  prior; here the estimate is computed from the aggregated client class
  counts (the same information channel FedWCM uses, cf. section 5.5 privacy
  discussion);
* a **Self-adjusting Gradient Balancer (SGB)** — each client re-balances the
  per-class *negative* (suppressive) logit gradients with closed-loop
  per-class gains, so tail-class logits are not constantly pushed down by
  head-class samples.

The SGB here is a faithful-in-spirit closed-loop controller: it tracks each
class's cumulative positive (pull-up) and negative (suppressive) gradient
flow and *shields* classes whose suppression dominates their positive signal
(gain <= 1; see the :class:`GradientBalancer` docstring for why an
amplifying controller diverges).  Aggregation is FedAvg (the base class's
server step).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm
from repro.nn.functional import one_hot, softmax
from repro.simulation.context import SimulationContext

__all__ = ["GradientBalancer", "FedGraB"]


class GradientBalancer:
    """Per-class closed-loop shielding of suppressive logit gradients.

    For each class the balancer accumulates the *positive* gradient flow
    ``P_c`` (pull-up, from the class's own samples) and the *negative* flow
    ``N_c`` (suppression, from every other class's samples).  Tail classes
    receive far more suppression than positive signal; the balancer damps
    their suppression with the gain

        gain_c = clip( ((P_c + eps) / (N_c + eps))^kappa , gain_min, 1 )

    Gains never exceed 1 (the balancer only shields; it never amplifies
    suppression), which keeps the closed loop unconditionally stable —
    an amplifying controller feeds the runaway logit drift it is trying to
    correct and diverges at practical learning rates.
    """

    def __init__(
        self,
        num_classes: int,
        kappa: float = 0.5,
        gain_min: float = 0.2,
    ) -> None:
        if num_classes < 2:
            raise ValueError("need >= 2 classes")
        if kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {kappa}")
        if not 0.0 < gain_min <= 1.0:
            raise ValueError(f"gain_min must lie in (0, 1], got {gain_min}")
        self.c = num_classes
        self.kappa = kappa
        self.gain_min = gain_min
        self.acc_pos = np.zeros(num_classes, dtype=np.float64)
        self.acc_neg = np.zeros(num_classes, dtype=np.float64)

    def gains(self) -> np.ndarray:
        eps = 1e-8
        ratio = (self.acc_pos + eps) / (self.acc_neg + eps)
        g = ratio**self.kappa
        return np.clip(g, self.gain_min, 1.0)

    def rebalance(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Return rebalanced CE logit gradients (mean-reduced) and update state."""
        n, c = logits.shape
        p = softmax(logits)
        y = one_hot(labels, c)
        d = (p - y) / n
        neg = np.where(d > 0, d, 0.0)  # suppressive components push logits down
        pos = d - neg
        gains = self.gains()
        self.acc_pos += -pos.sum(axis=0)  # pos entries are <= 0
        self.acc_neg += neg.sum(axis=0)
        return pos + neg * gains


class FedGraB(FederatedAlgorithm):
    """Federated long-tailed learning with a self-adjusting gradient balancer."""

    name = "fedgrab"

    def __init__(self, kappa: float = 0.5) -> None:
        self.kappa = kappa

    # each client's balancer accumulators persist across its participations:
    # declared through the client-state contract so the execution backends
    # ship them to worker replicas (snapshot at dispatch, commit at
    # completion) and every backend reproduces the serial trajectory
    stateful_per_client = True

    def setup(self, ctx: SimulationContext) -> None:
        # DPA: prior estimate from aggregated counts; one SGB per client
        counts = ctx.dataset.client_counts.astype(np.float64)
        total = counts.sum(axis=0)
        self.prior = total / max(total.sum(), 1.0)
        self._balancers = {
            k: GradientBalancer(ctx.num_classes, kappa=self.kappa)
            for k in range(ctx.num_clients)
        }

    def pack_client_state(self, client_id: int) -> dict:
        b = self._balancers[client_id]
        return {"acc_pos": b.acc_pos.copy(), "acc_neg": b.acc_neg.copy()}

    def unpack_client_state(self, client_id: int, state: dict) -> None:
        b = self._balancers[client_id]
        b.acc_pos = state["acc_pos"].copy()
        b.acc_neg = state["acc_neg"].copy()

    def client_update(self, ctx, round_idx, client_id, x_global) -> ClientUpdate:
        cfg = ctx.config
        xs, ys = ctx.client_xy(client_id)
        sampler = ctx.sampler_for(client_id)
        rng = ctx.client_rng(round_idx, client_id)
        balancer = self._balancers[client_id]

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
                dlogits = balancer.rebalance(logits, ys[bidx])
                ctx.model.backward_params(dlogits)
                x -= lr * ctx.flat_gradient()
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
