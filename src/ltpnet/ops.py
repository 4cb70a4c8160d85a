"""Numerically safe activations shared by the model components."""

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


def sigmoid(x) -> np.ndarray:
    """Logistic function, overflow-safe on both tails.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, both from
    one exp(-|x|), which never overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(x, axis: int = -1) -> np.ndarray:
    """Normalized exponentials along ``axis``; max-subtracted for stability."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)
