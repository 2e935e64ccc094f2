"""Training helpers bridging the NN engine and the federated algorithms.

The algorithms in :mod:`repro.algorithms` operate on the model's own
``(C, dim)`` ``flat_params`` / ``flat_grads`` blocks; this module provides the
glue: a fused forward/backward pass over every client row at once that
writes exactly the gradient block the step reads, evaluation in minibatches,
shuffled epochs.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.nn.module import Module

__all__ = ["forward_backward", "evaluate", "iterate_minibatches"]

LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


def forward_backward(
    model: Module, x: np.ndarray, y: np.ndarray, loss_fn: LossFn | Sequence[LossFn]
):
    """One fused forward/backward pass over the model's client rows.

    ``x`` folds the rows' batches into one ``(c * n, ...)`` batch and ``y``
    holds their labels as ``(c, n)`` — or ``(n,)`` for a one-client model.
    ``loss_fn`` is one loss for every row, or one per row: rows holding the
    same loss object share one call.  Returns the mean loss per row (a
    scalar for ``(n,)`` labels) and writes every entry of ``model.flat_grads``
    (the block needs no zeroing; ``x`` gets no input gradient).
    """
    logits = model.forward(x, train=True)
    z = logits.reshape(y.shape + logits.shape[-1:])
    if callable(loss_fn):
        loss, dz = loss_fn(z, y)
    else:
        loss, dz = np.empty(len(loss_fn)), np.empty_like(z)
        groups: dict[int, list[int]] = {}
        for i, fn in enumerate(loss_fn):
            groups.setdefault(id(fn), []).append(i)
        for rows in groups.values():
            loss[rows], dz[rows] = loss_fn[rows[0]](z[rows], y[rows])
    model.backward_params(dz.reshape(logits.shape))
    return loss


def evaluate(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn: LossFn | None = None,
    batch_size: int = 256,
) -> dict[str, float]:
    """Batched evaluation returning accuracy (and loss when ``loss_fn`` given)."""
    n = x.shape[0]
    if n == 0:
        return {"accuracy": 0.0, "loss": float("nan"), "n": 0}
    correct = 0
    loss_sum = 0.0
    for lo in range(0, n, batch_size):
        xb = x[lo : lo + batch_size]
        yb = y[lo : lo + batch_size]
        logits = model.forward(xb, train=False)
        correct += int((logits.argmax(axis=1) == yb).sum())
        if loss_fn is not None:
            loss, _ = loss_fn(logits, yb)
            loss_sum += loss * xb.shape[0]
    out = {"accuracy": correct / n, "n": n}
    out["loss"] = loss_sum / n if loss_fn is not None else float("nan")
    return out


def iterate_minibatches(
    rng: np.random.Generator, n: int, batch_size: int, epochs: int = 1
) -> Iterator[np.ndarray]:
    """Yield shuffled index batches for ``epochs`` passes over ``n`` samples.

    The final batch of each epoch may be smaller than ``batch_size``.
    """
    if n <= 0:
        return
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            yield order[lo : lo + batch_size]
