"""Shared utilities: deterministic RNG, parameter pytrees, validation.

The whole library is seed-deterministic: every stochastic component takes an
explicit :class:`numpy.random.Generator` (or a seed convertible to one) and
never touches global NumPy state.
"""

from repro.utils.rng import as_generator, spawn, split
from repro.utils.pytree import (
    ParamSpec,
    flatten_params,
    unflatten_params,
    tree_add,
    tree_scale,
    num_params,
)
from repro.utils.validation import (
    check_probability_vector,
    check_positive,
    check_in_range,
    check_fraction,
)

__all__ = [
    "as_generator",
    "spawn",
    "split",
    "ParamSpec",
    "flatten_params",
    "unflatten_params",
    "tree_add",
    "tree_scale",
    "num_params",
    "check_probability_vector",
    "check_positive",
    "check_in_range",
    "check_fraction",
]
