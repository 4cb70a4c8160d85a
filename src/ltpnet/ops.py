"""Numerically safe activations and the argument checks shared by the modules."""

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


def require_ints(**values) -> None:
    """Raise ValueError naming the ``values`` that are not ints; a bool is not one."""
    if bad := {k: v for k, v in values.items() if isinstance(v, bool) or not isinstance(v, int)}:
        raise ValueError(f"expected integers, got {bad}")


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
