"""Flat-vector views of model parameters.

FedCM/FedWCM momentum algebra (``v = alpha * g + (1 - alpha) * Delta``) is
architecture-agnostic: it operates on the concatenation of all trainable
arrays.  A model stores that concatenation itself (the flat-parameter arena
of :mod:`repro.nn.module`, in ``ParamSpec`` order), so the training loop never
flattens; these helpers serve code holding a param tree, not a model.

A "param tree" here is an ordered ``dict[str, np.ndarray]``.  ``ParamSpec``
records the name/shape/offset layout so flatten/unflatten round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParamSpec",
    "flatten_params",
    "unflatten_params",
    "tree_add",
    "tree_scale",
    "num_params",
]


@dataclass(frozen=True)
class ParamSpec:
    """Layout of a flattened parameter vector.

    Attributes:
        names: parameter names in flattening order.
        shapes: shape of each parameter.
        offsets: start offset of each parameter in the flat vector.
        size: total number of scalar parameters.
    """

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    size: int

    @classmethod
    def from_tree(cls, tree: dict[str, np.ndarray]) -> "ParamSpec":
        names = tuple(tree.keys())
        shapes = tuple(tuple(tree[n].shape) for n in names)
        sizes = [math.prod(s) for s in shapes]
        offsets, off = [], 0
        for n in sizes:
            offsets.append(off)
            off += n
        return cls(names=names, shapes=shapes, offsets=tuple(offsets), size=off)

    def slices(self) -> dict[str, slice]:
        """Per-parameter slices into the flat vector."""
        return {
            name: slice(off, off + n) for name, _, off, n in _layout(self)
        }


def _layout(spec: ParamSpec):
    """``(name, shape, offset, size)`` rows of a spec, in flattening order."""
    return (
        (name, shape, off, math.prod(shape))
        for name, shape, off in zip(spec.names, spec.shapes, spec.offsets)
    )


def flatten_params(
    tree: dict[str, np.ndarray],
    spec: ParamSpec | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, ParamSpec]:
    """Concatenate a param tree into one contiguous float64 vector.

    Args:
        tree: ordered name -> array mapping.
        spec: reuse a previously computed layout (skips re-deriving it and
            validates consistency).
        out: optional pre-allocated destination vector (avoids an allocation
            in the round loop).

    Returns:
        ``(flat, spec)``.
    """
    if spec is None:
        spec = ParamSpec.from_tree(tree)
    if out is None:
        out = np.empty(spec.size, dtype=np.float64)
    elif out.shape != (spec.size,):
        raise ValueError(f"out has shape {out.shape}, expected ({spec.size},)")
    for name, _, off, n in _layout(spec):
        out[off : off + n] = tree[name].reshape(-1)
    return out, spec


def unflatten_params(flat: np.ndarray, spec: ParamSpec) -> dict[str, np.ndarray]:
    """Rebuild a param tree from a flat vector (views where possible)."""
    if flat.shape != (spec.size,):
        raise ValueError(f"flat has shape {flat.shape}, expected ({spec.size},)")
    return {
        name: flat[off : off + n].reshape(shape)
        for name, shape, off, n in _layout(spec)
    }


def tree_add(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    if a.keys() != b.keys():
        raise KeyError("param trees have mismatched keys")
    return {k: a[k] + b[k] for k in a}


def tree_scale(tree: dict[str, np.ndarray], c: float) -> dict[str, np.ndarray]:
    return {k: v * c for k, v in tree.items()}


def num_params(tree: dict[str, np.ndarray]) -> int:
    """Total scalar parameter count of a tree."""
    return int(sum(v.size for v in tree.values()))
