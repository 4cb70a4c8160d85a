"""Numerically safe activations shared by the model components."""

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


def sigmoid(x) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), overflow-safe on both tails."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x, axis: int = -1) -> np.ndarray:
    """Normalized exponentials along ``axis``; max-subtracted for stability."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)
