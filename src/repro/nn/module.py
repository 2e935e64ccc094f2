"""Module base class for the manual-backprop NN engine.

Design: each :class:`Module` owns

* ``params``  — ordered ``dict[str, np.ndarray]`` of trainable arrays,
* ``grads``   — same-keyed dict of parameter gradients,
* ``buffers`` — non-trainable state (e.g. BatchNorm running stats) that is
  *not* part of the flattened parameter vector and therefore never enters
  the momentum algebra.

``forward(x, train)`` caches whatever ``backward(dout)`` needs; ``backward``
returns the gradient w.r.t. the input and writes parameter gradients into
``grads``: every entry is overwritten, nothing accumulates, so no pass needs
the block zeroed first.  ``backward_params(dout)`` writes the same ``grads``
and returns nothing, for a module whose input is the data: no caller reads
its input gradient, and the layers whose input gradient costs a GEMM skip
it.  Composite modules namespace child entries as ``"child.param"``.

Flat-parameter arena with a leading client axis: ``flat_params`` /
``flat_grads`` are ``(C, dim)`` float64 blocks, one row per client (``ParamSpec``
order along the row; a child's blocks are column slices of its parent's), and
every ``params[k]`` / ``grads[k]`` is a ``(C, *shape)`` view into them.  A model
is built with one row; :meth:`Module.point_at` re-points the whole tree at any
caller-owned ``(C, dim)`` pair, so the parameter blocks the FL algorithms in
:mod:`repro.algorithms` update are the model's own storage and ``C`` clients
train through one forward/backward.  Activations stay folded as ``(C * n,
...)``: per-sample layers never see the client axis, and layers with
parameters read ``C`` from their views.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Module"]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.flat_params = self.flat_grads = np.empty((1, 0))

    # -- forward / backward -------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, dout: np.ndarray) -> None:
        """``backward`` without the input gradient: writes ``grads`` only."""
        self.backward(dout)

    def __call__(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self.forward(x, train=train)

    # -- flat-parameter arena -------------------------------------------------
    def _named_children(self) -> list[tuple[str, Module]]:
        """Submodules, named to namespace their entries (none for a leaf)."""
        return []

    def _bind(self) -> None:
        """Gather the current values into a fresh one-row arena this module
        owns and point the subtree into it, gradients zeroed.  Every
        ``__init__`` that creates params (a leaf) or children (a composite)
        ends with it."""
        children = self._named_children()
        if not children:  # a leaf's params are created per client: add the axis
            self.params = {k: v[None] for k, v in self.params.items()}
        parts = [c.flat_params for _, c in children]
        parts = parts or [v.reshape(1, -1) for v in self.params.values()]
        flat = np.concatenate(parts, axis=1) if parts else np.empty((1, 0))
        self.point_at(flat, np.zeros_like(flat))

    def point_at(self, flat_params: np.ndarray, flat_grads: np.ndarray) -> None:
        """Make ``params`` / ``grads`` here and below ``(C, *shape)`` views into
        these ``(C, dim)`` blocks (a no-op when they already are)."""
        if flat_params is self.flat_params and flat_grads is self.flat_grads:
            return
        self.flat_params, self.flat_grads = flat_params, flat_grads
        children, off = self._named_children(), 0
        for _, child in children:
            end = off + child.flat_params.shape[1]
            child.point_at(flat_params[:, off:end], flat_grads[:, off:end])
            off = end
        if children:
            self.params = {f"{n}.{k}": v for n, c in children for k, v in c.params.items()}
            self.grads = {f"{n}.{k}": v for n, c in children for k, v in c.grads.items()}
            self.buffers = {f"{n}.{k}": v for n, c in children for k, v in c.buffers.items()}
            return
        rows = flat_params.shape[0]
        for k, v in self.params.items():
            shape = (rows,) + v.shape[1:]
            end = off + math.prod(v.shape[1:])
            self.params[k] = flat_params[:, off:end].reshape(shape)
            self.grads[k] = flat_grads[:, off:end].reshape(shape)
            off = end

    @property
    def num_clients(self) -> int:
        """Client rows of the arena the module currently points at."""
        return self.flat_params.shape[0]

    def drop_caches(self) -> None:
        """Release every backward cache in the tree (``backward`` then needs
        a fresh train forward, as after an eval forward)."""
        self._cache = None
        for _, child in self._named_children():
            child.drop_caches()

    # -- state management ----------------------------------------------------
    def get_params(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Client row 0's parameter tree, per-client shapes (copied by default)."""
        if copy:
            return {k: v[0].copy() for k, v in self.params.items()}
        return {k: v[0] for k, v in self.params.items()}

    def set_params(self, tree: dict[str, np.ndarray]) -> None:
        """Load a per-client parameter tree into every client row."""
        if tree.keys() != self.params.keys():
            missing = self.params.keys() - tree.keys()
            extra = tree.keys() - self.params.keys()
            raise KeyError(f"param keys mismatch: missing={missing} extra={extra}")
        for k, v in tree.items():
            if v.shape != self.params[k].shape[1:]:
                raise ValueError(
                    f"param {k!r}: shape {v.shape} != expected {self.params[k].shape[1:]}"
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
        """Parameters per client."""
        return self.flat_params.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(params={self.num_params})"
