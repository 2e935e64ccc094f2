"""Module base class for the manual-backprop NN engine.

Design: each :class:`Module` owns

* ``params``  — ordered ``dict[str, np.ndarray]`` of trainable arrays,
* ``grads``   — same-keyed dict of gradient accumulators,
* ``buffers`` — non-trainable state (e.g. BatchNorm running stats) that is
  *not* part of the flattened parameter vector and therefore never enters
  the momentum algebra.

``forward(x, train)`` caches whatever ``backward(dout)`` needs; ``backward``
returns the gradient w.r.t. the input and writes parameter gradients into
``grads``.  Composite modules namespace child entries as ``"child.param"``.

Flat-parameter arena: every ``params[k]`` / ``grads[k]`` is a view into the
contiguous float64 vectors ``flat_params`` / ``flat_grads`` (``ParamSpec``
order; a child's vectors are slices of its parent's), so the flat vectors the
FL algorithms in :mod:`repro.algorithms` work on are the model's own storage.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Module"]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.flat_params = self.flat_grads = np.empty(0)

    # -- forward / backward -------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self.forward(x, train=train)

    # -- flat-parameter arena -------------------------------------------------
    def _named_children(self) -> list[tuple[str, Module]]:
        """Children whose entries this module namespaces (none for a leaf)."""
        return []

    def _bind(self) -> None:
        """Gather the current values into fresh vectors this module owns and
        point the subtree into them, gradients zeroed.  Every ``__init__``
        that creates params (a leaf) or children (a composite) ends with it."""
        parts = [c.flat_params for _, c in self._named_children()]
        parts = parts or [v.reshape(-1) for v in self.params.values()]
        flat = np.concatenate(parts) if parts else np.empty(0)
        self._point_at(flat, np.zeros(flat.size))

    def _point_at(self, flat_params: np.ndarray, flat_grads: np.ndarray) -> None:
        """Make ``params`` / ``grads`` here and below views into these vectors."""
        self.flat_params, self.flat_grads = flat_params, flat_grads
        children, off = self._named_children(), 0
        for _, child in children:
            end = off + child.flat_params.size
            child._point_at(flat_params[off:end], flat_grads[off:end])
            off = end
        if children:
            self.params = {f"{n}.{k}": v for n, c in children for k, v in c.params.items()}
            self.grads = {f"{n}.{k}": v for n, c in children for k, v in c.grads.items()}
            self.buffers = {f"{n}.{k}": v for n, c in children for k, v in c.buffers.items()}
            return
        for k, v in self.params.items():
            end = off + v.size
            self.params[k] = flat_params[off:end].reshape(v.shape)
            self.grads[k] = flat_grads[off:end].reshape(v.shape)
            off = end

    # -- gradient bookkeeping ------------------------------------------------
    def zero_grad(self) -> None:
        """Reset all gradient accumulators to zero, in place."""
        self.flat_grads.fill(0.0)

    # -- state management ----------------------------------------------------
    def get_params(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Return the parameter tree (copied by default)."""
        if copy:
            return {k: v.copy() for k, v in self.params.items()}
        return dict(self.params)

    def set_params(self, tree: dict[str, np.ndarray]) -> None:
        """Load a parameter tree, copying values into existing arrays."""
        if tree.keys() != self.params.keys():
            missing = self.params.keys() - tree.keys()
            extra = tree.keys() - self.params.keys()
            raise KeyError(f"param keys mismatch: missing={missing} extra={extra}")
        for k, v in tree.items():
            if v.shape != self.params[k].shape:
                raise ValueError(
                    f"param {k!r}: shape {v.shape} != expected {self.params[k].shape}"
                )
            np.copyto(self.params[k], v)

    def get_buffers(self, copy: bool = True) -> dict[str, np.ndarray]:
        if copy:
            return {k: v.copy() for k, v in self.buffers.items()}
        return dict(self.buffers)

    def set_buffers(self, tree: dict[str, np.ndarray]) -> None:
        for k, v in tree.items():
            np.copyto(self.buffers[k], v)

    # -- introspection ---------------------------------------------------------
    @property
    def num_params(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(params={self.num_params})"
