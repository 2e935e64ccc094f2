"""CReFF (Shang et al., IJCAI 2022): classifier re-training with federated
features — reimplemented from the paper at laptop scale.

After each round's FedAvg aggregation, participating clients report per-class
statistics of their penultimate-layer features (mean, per-dimension variance,
count).  The server synthesises a *balanced* federated feature set from those
statistics and retrains only the classifier head on it, removing the
head-class bias that accumulates in the final layer.

The feature extractor here is everything but the model's last Dense layer
(all model-zoo models end in a Dense classifier).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.fedavg import FedAvg
from repro.nn.functional import one_hot, softmax
from repro.nn.layers import Dense
from repro.simulation.context import SimulationContext

__all__ = ["CReFF"]


class CReFF(FedAvg):
    """FedAvg + balanced classifier retraining on federated features.

    Args:
        n_feat_per_class: synthetic features per class for retraining.
        retrain_steps: gradient steps on the classifier head per round.
        retrain_lr: learning rate of the retraining phase.
    """

    name = "creff"

    def __init__(
        self,
        n_feat_per_class: int = 32,
        retrain_steps: int = 20,
        retrain_lr: float = 0.05,
    ) -> None:
        if n_feat_per_class < 1 or retrain_steps < 0 or retrain_lr <= 0:
            raise ValueError("invalid CReFF hyper-parameters")
        self.n_feat_per_class = n_feat_per_class
        self.retrain_steps = retrain_steps
        self.retrain_lr = retrain_lr

    def setup(self, ctx: SimulationContext) -> None:
        head = ctx.model.children_[-1]
        if not isinstance(head, Dense):
            raise TypeError("CReFF requires a model ending in a Dense classifier")
        self._head_w_slice = ctx.spec.slices()[f"{len(ctx.model.children_) - 1}.W"]
        self._head_b_slice = ctx.spec.slices().get(f"{len(ctx.model.children_) - 1}.b")
        self._feat_dim = head.in_features

    def _features(self, ctx, x: np.ndarray) -> np.ndarray:
        """Penultimate activations of the current model parameters."""
        h = x
        for m in ctx.model.children_[:-1]:
            h = m.forward(h, train=False)
        return h

    def client_updates(self, ctx, jobs):
        updates = super().client_updates(ctx, jobs)
        for (_, k, x_global), update in zip(jobs, updates):
            # report per-class feature statistics under the *broadcast* model
            ctx.load_params(x_global)
            xs, ys = ctx.client_xy(k)
            feats = np.concatenate(
                [self._features(ctx, xs[lo : lo + 256]) for lo in range(0, len(xs), 256)]
            )
            stats = {}
            for c in np.unique(ys):
                f = feats[ys == c]
                stats[int(c)] = (f.mean(axis=0), f.var(axis=0), f.shape[0])
            update.extras = {"feature_stats": stats, **update.extras}
        return updates

    def aggregate(self, ctx, round_idx, selected, updates, x_global) -> np.ndarray:
        x_new = super().aggregate(ctx, round_idx, selected, updates, x_global)

        # pool client feature statistics per class (count-weighted moments)
        c_dim, f_dim = ctx.num_classes, self._feat_dim
        sums = np.zeros((c_dim, f_dim))
        sqs = np.zeros((c_dim, f_dim))
        ns = np.zeros(c_dim)
        for u in updates:
            for c, (mean, var, n) in u.extras["feature_stats"].items():
                sums[c] += mean * n
                sqs[c] += (var + mean**2) * n
                ns[c] += n
        present = ns > 0
        if not present.any() or self.retrain_steps == 0:
            return x_new
        means = np.zeros((c_dim, f_dim))
        stds = np.zeros((c_dim, f_dim))
        means[present] = sums[present] / ns[present, None]
        stds[present] = np.sqrt(
            np.maximum(sqs[present] / ns[present, None] - means[present] ** 2, 1e-8)
        )

        # synthesise a balanced federated feature set
        rng = ctx.round_rng(round_idx).spawn(1)[0]
        classes = np.flatnonzero(present)
        m = self.n_feat_per_class
        feats = np.concatenate(
            [means[c] + stds[c] * rng.normal(size=(m, f_dim)) for c in classes]
        )
        labels = np.repeat(classes, m)

        # retrain the classifier head only
        w = x_new[self._head_w_slice].reshape(f_dim, -1).copy()
        b = (
            x_new[self._head_b_slice].copy()
            if self._head_b_slice is not None
            else np.zeros(w.shape[1])
        )
        n = feats.shape[0]
        y1h = one_hot(labels, w.shape[1])
        for _ in range(self.retrain_steps):
            logits = feats @ w + b
            d = (softmax(logits) - y1h) / n
            gw = feats.T @ d
            gb = d.sum(axis=0)
            w -= self.retrain_lr * gw
            b -= self.retrain_lr * gb
        x_new[self._head_w_slice] = w.reshape(-1)
        if self._head_b_slice is not None:
            x_new[self._head_b_slice] = b
        return x_new
