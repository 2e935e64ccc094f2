"""Input validation helpers shared across the library.

All public entry points validate their arguments eagerly with these helpers so
misconfiguration fails at construction time with a precise message, not deep
inside a 500-round simulation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_probability_vector",
    "check_positive",
    "check_in_range",
    "check_fraction",
    "positive_count",
]


def check_probability_vector(p: np.ndarray, name: str = "p", atol: float = 1e-8) -> np.ndarray:
    """Validate that ``p`` is a 1-D nonnegative vector summing to 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {p.shape}")
    if p.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(p < -atol):
        raise ValueError(f"{name} has negative entries (min {p.min()})")
    s = float(p.sum())
    if not np.isclose(s, 1.0, atol=1e-6):
        raise ValueError(f"{name} must sum to 1, got {s}")
    return np.clip(p, 0.0, None) / max(s, 1e-300)


def check_positive(x: float, name: str = "value") -> float:
    x = float(x)
    if not np.isfinite(x) or x <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {x}")
    return x


def check_in_range(
    x: float, lo: float, hi: float, name: str = "value", inclusive: bool = True
) -> float:
    x = float(x)
    ok = (lo <= x <= hi) if inclusive else (lo < x < hi)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must lie in {bracket[0]}{lo}, {hi}{bracket[1]}, got {x}"
        )
    return x


def check_fraction(x: float, name: str = "fraction") -> float:
    """Validate a (0, 1] participation fraction."""
    x = float(x)
    if not (0.0 < x <= 1.0):
        raise ValueError(f"{name} must lie in (0, 1], got {x}")
    return x


def positive_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int if it is an integer >= ``minimum`` (a count:
    rounds, clients, jobs per batch; or, with ``minimum=0``, a seed), else
    a ValueError naming its source.  Floats and bools are refused, whole or
    not: a count that arrives as 2.5 or True is a caller's mistake."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)
