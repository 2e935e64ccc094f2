"""Weight initializers.

He (Kaiming) initialization is the default everywhere since all models use
ReLU nonlinearities, matching the paper's ResNet/MLP setups.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "zeros", "ones"]


def he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-normal initialization: N(0, sqrt(2 / fan_in))."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)
