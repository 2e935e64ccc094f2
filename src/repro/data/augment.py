"""Feature-space augmentation.

BalanceFL's local re-balancing oversamples minority classes, which repeats
the same few samples; augmentation decorrelates the repeats.  These
augmenters operate on already-vectorised features (flat or NCHW) and are
deterministic given the generator.

* :class:`GaussianJitter` — additive feature noise.
* :class:`Mixup` — convex sample mixing (Zhang et al. 2018) with label
  mixing expressed as soft targets.
* :class:`FeatureDropout` — random feature masking (a crude cutout analogue
  for non-image features).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import one_hot

__all__ = ["GaussianJitter", "Mixup", "FeatureDropout", "AugmentedSampler"]


class GaussianJitter:
    """Add isotropic Gaussian noise with standard deviation ``sigma``."""

    def __init__(self, sigma: float = 0.1) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.sigma = sigma

    def __call__(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.sigma == 0:
            return x, y
        return x + rng.normal(0.0, self.sigma, size=x.shape), y


class FeatureDropout:
    """Zero a random fraction ``p`` of features per sample."""

    def __init__(self, p: float = 0.1) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"p must lie in [0, 1), got {p}")
        self.p = p

    def __call__(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.p == 0:
            return x, y
        mask = rng.random(x.shape) >= self.p
        return x * mask, y


class Mixup:
    """Pairwise convex mixing; returns soft-label targets.

    Output labels are ``(n, num_classes)`` mixing weights; use with a loss
    accepting soft targets (``soft_cross_entropy`` below).
    """

    def __init__(self, num_classes: int, alpha: float = 0.2) -> None:
        if num_classes < 2:
            raise ValueError("need >= 2 classes")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.c = num_classes
        self.alpha = alpha

    def __call__(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        n = x.shape[0]
        lam = rng.beta(self.alpha, self.alpha, size=n)
        perm = rng.permutation(n)
        lam_x = lam.reshape((n,) + (1,) * (x.ndim - 1))
        x_mix = lam_x * x + (1.0 - lam_x) * x[perm]
        y1h = one_hot(y, self.c)
        y_mix = lam[:, None] * y1h + (1.0 - lam)[:, None] * y1h[perm]
        return x_mix, y_mix


def soft_cross_entropy(logits: np.ndarray, soft_targets: np.ndarray) -> tuple[float, np.ndarray]:
    """CE against soft targets; gradient = (softmax - target)/n."""
    from repro.nn.functional import log_softmax, softmax

    if logits.shape != soft_targets.shape:
        raise ValueError(
            f"logits {logits.shape} and soft_targets {soft_targets.shape} must match"
        )
    n = logits.shape[0]
    loss = float(-(soft_targets * log_softmax(logits)).sum() / n)
    return loss, (softmax(logits) - soft_targets) / n


class AugmentedSampler:
    """Wrap a batch sampler so its batches can be materialised with
    augmentation applied.

    The sampler still yields indices; :meth:`materialize` applies the
    augmenter chain to the gathered batch.
    """

    def __init__(self, base_sampler, augmenters: list) -> None:
        self.base = base_sampler
        self.augmenters = list(augmenters)

    @property
    def fixed_order(self) -> bool:
        return self.base.fixed_order

    def epoch(self, rng):
        return self.base.epoch(rng)

    def batches_per_epoch(self) -> int:
        return self.base.batches_per_epoch()

    def materialize(
        self, x: np.ndarray, y: np.ndarray, bidx: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        xb, yb = x[bidx], y[bidx]
        for aug in self.augmenters:
            xb, yb = aug(xb, yb, rng)
        return xb, yb
