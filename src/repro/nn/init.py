"""Weight initializers (all take an explicit numpy Generator)."""

from __future__ import annotations

import numpy as np


def normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Gaussian init, the GPT-style default for embeddings and projections."""
    return (rng.standard_normal(shape) * std).astype(np.float32)


def xavier_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Glorot/Xavier uniform for fan-balanced linear layers."""
    fan_in, fan_out = _fans(shape)
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, shape).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)


def _fans(shape) -> tuple:
    if len(shape) < 1:
        raise ValueError("initializer needs at least a 1-d shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    return shape[0], shape[1]
