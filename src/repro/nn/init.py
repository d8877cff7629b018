"""Weight initialisation schemes.

All functions take an explicit ``numpy.random.Generator`` so that every model
in the reproduction is fully seeded — experiment functions never touch global
random state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros", "uniform"]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform init: U(-a, a) with a = gain*sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    """Plain uniform init on [-bound, bound]."""
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero init (used for biases)."""
    return np.zeros(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) of a weight shape."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
