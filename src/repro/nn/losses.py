"""Classification losses, each returning ``(mean_loss, dlogits)``.

A loss takes ``(..., n, K)`` logits and ``(..., n)`` labels: one client's
``(n, K)`` batch gives a scalar mean loss, and a cohort's ``(c, n, K)``
batches give the ``(c,)`` per-client mean losses.  Every leading index is
reduced on its own, with the arithmetic of a one-client call.  All gradients
already include the ``1/n`` batch-mean factor, so callers can feed
``dlogits`` straight into ``model.backward``.

Implemented (paper section 2.2 / 7.2):

* :class:`CrossEntropyLoss` — baseline.
* :class:`FocalLoss` — Lin et al. 2017, used for the "FedCM + Focal Loss" rows.
* :class:`PriorCELoss` — logit-adjusted / balanced-softmax loss (Hong et al.
  2021), the paper's "Balance Loss".
* :class:`LDAMLoss` — label-distribution-aware margin (Cao et al. 2019).
* :class:`ClassBalancedLoss` — effective-number reweighted CE (Cui et al. 2019).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import one_hot, softmax

__all__ = [
    "CrossEntropyLoss",
    "FocalLoss",
    "PriorCELoss",
    "LDAMLoss",
    "ClassBalancedLoss",
]


def _rows(p: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, index)``: ``p`` as ``(rows, K)`` and the fancy index of each
    row's label entry (raises on labels >= K like a direct index does)."""
    flat = p.reshape(-1, p.shape[-1])
    return flat, (np.arange(flat.shape[0]), labels.reshape(-1))


class CrossEntropyLoss:
    """Mean softmax cross-entropy (stateless, so clients may share one)."""

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        k = logits.shape[-1]
        eps = 1e-12
        if labels.size == 1:
            # one sample (the one-job lane of one-sample-per-client
            # populations): scalar indexing replaces the fancy-index
            # machinery.  A mean over one value is that value and x / 1 == x,
            # so the bits match the general path exactly.
            lab = labels.reshape(-1)[0]
            if lab < 0:
                raise ValueError(f"labels out of range [0, {k}): min={lab}")
            p = softmax(logits)
            row = p.reshape(-1)
            pt = row[lab]  # raises on lab >= k like the fancy index does
            row[lab] -= 1.0
            loss = -np.log(pt + eps)
            return (loss if labels.ndim == 1 else np.full(labels.shape[:-1], loss)), p
        if labels.size and labels.min() < 0:
            raise ValueError(f"labels out of range [0, {k}): min={labels.min()}")
        p = softmax(logits)
        flat, idx = _rows(p, labels)
        pt = flat[idx]  # fancy-indexed copy; raises on labels >= k
        # np.mean's own arithmetic (sum, then divide by the count), minus
        # its Python-level wrapper
        n = labels.shape[-1]
        loss = -(np.add.reduce(np.log(pt + eps).reshape(labels.shape), axis=-1) / n)
        # in-place (p - one_hot) / n without materialising the one-hot:
        # off-label entries are p - 0.0 == p bit for bit, the label entry
        # subtracts the same 1.0, and the division is the same elementwise
        # op — identical to the allocating form, minus two temporaries
        flat[idx] -= 1.0
        p /= n
        return loss, p


class FocalLoss:
    """Focal loss ``-(1 - p_t)^gamma log p_t`` with exact softmax gradient."""

    def __init__(self, gamma: float = 2.0) -> None:
        if gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        self.gamma = gamma

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        k, n = logits.shape[-1], labels.shape[-1]
        g = self.gamma
        p = softmax(logits)
        flat, idx = _rows(p, labels)
        pt = np.clip(flat[idx], 1e-12, 1.0)
        log_pt = np.log(pt)
        loss = np.mean((-((1.0 - pt) ** g) * log_pt).reshape(labels.shape), axis=-1)
        # dL/dz_j = (1-pt)^(g-1) * (g*pt*log(pt) - (1-pt)) * (1[j==y] - p_j)
        coef = ((1.0 - pt) ** (g - 1.0)) * (g * pt * log_pt - (1.0 - pt))
        y = one_hot(idx[1], k)
        dlogits = coef[:, None] * (y - flat) / n
        return loss, dlogits.reshape(logits.shape)


class PriorCELoss:
    """Logit-adjusted CE: cross-entropy on ``logits + log(prior)``.

    Adding the log class prior to the logits makes the minimized objective the
    balanced error — the "Balance Loss" of the paper's Table 1.
    """

    def __init__(self, class_prior: np.ndarray) -> None:
        prior = np.asarray(class_prior, dtype=np.float64)
        if prior.ndim != 1 or np.any(prior < 0):
            raise ValueError("class_prior must be a nonnegative 1-D vector")
        total = prior.sum()
        if total <= 0:
            raise ValueError("class_prior must have positive mass")
        self.log_prior = np.log(prior / total + 1e-12)
        self._ce = CrossEntropyLoss()

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        return self._ce(logits + self.log_prior, labels)


class LDAMLoss:
    """Label-distribution-aware margin loss.

    Enforces per-class margins ``Delta_c = max_margin / n_c^{1/4}`` (normalised
    so the largest margin equals ``max_margin``), then applies scaled CE.
    """

    def __init__(
        self, class_counts: np.ndarray, max_margin: float = 0.5, scale: float = 10.0
    ) -> None:
        counts = np.asarray(class_counts, dtype=np.float64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("class_counts must be a nonnegative 1-D vector")
        if max_margin <= 0 or scale <= 0:
            raise ValueError("max_margin and scale must be positive")
        margins = 1.0 / np.sqrt(np.sqrt(np.maximum(counts, 1.0)))
        margins = margins * (max_margin / margins.max())
        self.margins = margins
        self.scale = scale
        self._ce = CrossEntropyLoss()

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        adjusted = logits.copy()
        flat, idx = _rows(adjusted, labels)
        flat[idx] -= self.margins[idx[1]]
        loss, dadj = self._ce(self.scale * adjusted, labels)
        return loss, self.scale * dadj


class ClassBalancedLoss:
    """Effective-number class-balanced CE (Cui et al. 2019).

    Weight for class ``c`` is ``(1 - beta) / (1 - beta^{n_c})``, normalised to
    mean 1 across classes present in ``class_counts``.
    """

    def __init__(self, class_counts: np.ndarray, beta: float = 0.999) -> None:
        counts = np.asarray(class_counts, dtype=np.float64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("class_counts must be a nonnegative 1-D vector")
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {beta}")
        eff = 1.0 - np.power(beta, np.maximum(counts, 1.0))
        w = (1.0 - beta) / eff
        self.weights = w * (len(w) / w.sum())

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        k, n = logits.shape[-1], labels.shape[-1]
        p = softmax(logits)
        flat, idx = _rows(p, labels)
        y = one_hot(idx[1], k)
        w = self.weights[idx[1]]
        eps = 1e-12
        loss = np.mean((-w * np.log(flat[idx] + eps)).reshape(labels.shape), axis=-1)
        dlogits = w[:, None] * (flat - y) / n
        return loss, dlogits.reshape(logits.shape)
