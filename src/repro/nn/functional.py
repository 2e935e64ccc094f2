"""Stateless numerical primitives for the NN engine.

Everything here is vectorized over the batch dimension and allocates as little
as possible; these functions sit inside the innermost training loop of every
federated algorithm in the library.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "one_hot",
    "relu",
    "accuracy",
    "per_class_accuracy",
]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    z = logits - logits.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    z = logits - logits.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels into shape ``(n, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): min={labels.min()} max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` (n, C) against integer ``labels`` (n,)."""
    if logits.shape[0] == 0:
        return 0.0
    return float(np.mean(logits.argmax(axis=1) == labels))


def per_class_accuracy(
    logits: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Per-class top-1 accuracy; classes absent from ``labels`` get NaN."""
    pred = logits.argmax(axis=1)
    out = np.full(num_classes, np.nan, dtype=np.float64)
    for c in range(num_classes):
        mask = labels == c
        if mask.any():
            out[c] = float(np.mean(pred[mask] == c))
    return out
