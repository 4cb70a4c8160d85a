"""Numerically safe activations, a lean mean, and the one checker of spec fields."""

import math
import operator
import types
from dataclasses import MISSING, field, fields
from typing import get_args, get_origin

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


_LIMITS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}
_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def declared(default=MISSING, *, factory=MISSING, **rule):
    """A dataclass field whose value ``check_fields`` holds to its annotation and ``rule``.

    The annotation is the field's type: an ``int`` is never a bool; a ``float``
    is finite and may be an int; ``X | None`` also admits None; ``list[X]`` and
    ``tuple[X, ...]`` are non-empty lists (or tuples) of X, and ``tuple[X, X]``
    holds exactly two. ``rule`` bounds a number, or each number of a list:
    ``gt``/``ge`` and ``lt``/``le`` give the open or closed ends of an
    interval, ``choices`` a set of admissible values.
    """
    return field(default=default, default_factory=factory, metadata=rule)


def check_fields(holder, section: str) -> None:
    """Raise ValueError naming ``section.key`` for a field of ``holder`` its declaration refuses.

    Checks only, never converts. ``section`` is empty for the top level of a spec.
    """
    for f in fields(holder):
        path = f"{section}.{f.name}" if section else f.name
        check_value(path, getattr(holder, f.name), f.type, f.metadata)


def from_section(cls, section: str, mapping, **fixed):
    """``cls(**mapping, **fixed)`` for the spec section ``section``, naming it when
    ``mapping`` is not an object or holds a key that ``cls`` has no field for."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{section} must be an object, got {mapping!r}")
    if unknown := sorted(mapping.keys() - {f.name for f in fields(cls)}):
        raise ValueError(f"{section} has unknown keys {unknown}")
    return cls(**mapping, **fixed)


def check_value(path: str, value, kind, rule) -> None:
    """Raise ValueError naming ``path`` unless ``value`` is a ``kind`` that ``rule`` admits."""
    if get_origin(kind) is types.UnionType:  # X | None
        if value is None:
            return
        (kind,) = (k for k in get_args(kind) if k is not type(None))
    if get_origin(kind) in (list, tuple):
        items = get_args(kind)
        fixed = items[-1] is not Ellipsis and get_origin(kind) is tuple
        if not isinstance(value, (list, tuple)) or not value or fixed and len(value) != len(items):
            wanted = f"a list of {len(items)} values" if fixed else "a non-empty list"
            raise ValueError(f"{path} must be {wanted}, got {value!r}")
        for i, item in enumerate(value):
            check_value(f"{path}[{i}]", item, items[i if fixed else 0], rule)
    elif not _is_kind(value, kind):
        raise ValueError(f"{path} must be {_KINDS.get(kind, 'an object')}, got {value!r}")
    elif broken := [f"{_LIMITS[end][1]} {limit}" for end, limit in rule.items()
                    if end in _LIMITS and not _LIMITS[end][0](value, limit)]:
        raise ValueError(f"{path} must be {' and '.join(broken)}, got {value!r}")
    elif "choices" in rule and value not in rule["choices"]:
        raise ValueError(f"{path} must be one of {list(rule['choices'])}, got {value!r}")


def _is_kind(value, kind) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind)


def sigmoid(x) -> np.ndarray:
    """Logistic function, overflow-safe on both tails.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, both from
    one exp(-|x|), which never overflows.
    """
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def mean(x: np.ndarray, axis: int | None = None, keepdims: bool = False):
    """``np.mean`` of an array without its Python wrapper.

    The same arithmetic, ``np.add.reduce`` then one division by the count, so
    the bits agree; the hot paths of tiny models call it thousands of times.
    """
    count = x.size if axis is None else x.shape[axis]
    return np.add.reduce(x, axis=axis, keepdims=keepdims) / count


def softmax(x, axis: int = -1) -> np.ndarray:
    """Normalized exponentials along ``axis``; max-subtracted for stability."""
    x = np.asarray(x)
    ex = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    ex /= np.add.reduce(ex, axis=axis, keepdims=True)
    return ex
