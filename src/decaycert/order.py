"""Vectors in the nonnegative orthant and the componentwise partial order.

All state-space points are 1-D float64 numpy arrays with nonnegative
components.  The helpers here are the single place where order semantics
are defined: strict comparisons use exact floating-point ``<`` with no
tolerance, so that all numerical slack lives in the labeling parameter of
the solver rather than being smeared across every comparison.

This module is also the package's one door for numbers.  ``is_number``
says what counts as one: an int or a float, numpy's included, never a
bool, and never an int too large to convert to a float.  ``as_point``
and ``as_nonnegative_matrix`` check every entry with it before numpy
converts any, so a bool, string, None, complex number, dict, nested list
or such an int is named by its position in a ValueError, and a complex
array is refused rather than cut to its real part.  They share
one check for negative and non-finite entries.  ``check_positive`` and
``check_count`` check scalar arguments with the same test, so that a
mistyped number names its argument in a ValueError.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "OrderRelation",
    "as_nonnegative_matrix",
    "as_point",
    "check_count",
    "check_positive",
    "compare",
    "is_number",
]


class OrderRelation(enum.Enum):
    """Outcome of comparing two orthant vectors componentwise.

    ``compare`` always reports the strongest relation that holds, so
    ``x <= y`` shows up as EQ, LT or LL.
    """

    LL = "<<"
    LT = "<"
    EQ = "=="
    GT = ">"
    GG = ">>"
    INCOMPARABLE = "<>"


_NUMBERS = (int, float, np.integer, np.floating)  # concrete types: numbers.Real is slower
_INTEGERS = (int, np.integer)
_INT_END = 2**1024 - 2**970  # float() rounds an int this large, or larger, to overflow


def is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is an int or a float, numpy's included; a bool is neither.

    An int must also convert to a float: ``|value| < 2**1024 - 2**970``.
    With ``integer``, whether it is such an int.  This is the package's one
    test of what counts as a number.
    """
    kind = type(value)
    if kind is float:  # the two common types first, by exact type
        return not integer
    if kind is int:
        return -_INT_END < value < _INT_END
    if isinstance(value, bool) or not isinstance(value, _INTEGERS if integer else _NUMBERS):
        return False
    return not isinstance(value, int) or -_INT_END < value < _INT_END  # an int subclass


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to an orthant point (1-D float64 array).

    Raises ValueError on wrong dimensionality, empty input, or any negative,
    non-finite or non-number component.  The returned array is a read-only copy.
    """
    entries = _entries(x)
    if entries.ndim != 1:
        raise ValueError(f"expected a 1-D point, got array of shape {entries.shape}")
    if entries.size < 1:
        raise ValueError("a point needs at least one component")
    if dim is not None and entries.size != dim:
        raise ValueError(f"expected dimension {dim}, got {entries.size}")
    _refuse_non_numbers(entries, lambda i: f"component at index {i[0]}")
    return _nonnegative(entries, lambda i: f"component at index {i[0]}")


def as_nonnegative_matrix(A) -> np.ndarray:
    """Read-only float copy of ``A``; ValueError unless square, finite and never negative.

    Every entry must be a number (:func:`is_number`), though numpy would
    convert a bool, a string or a complex number.
    """
    entries = _entries(A)
    _refuse_non_numbers(entries, lambda i: f"matrix entry at ({','.join(str(k + 1) for k in i)})")
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    return _nonnegative(entries, lambda i: f"entry at ({i[0] + 1},{i[1] + 1})")


def _entries(x) -> np.ndarray:
    """``x`` itself if it is an int or float array, else ``x`` as an array of objects.

    An array of objects keeps each entry as given, for
    :func:`_refuse_non_numbers` to check before numpy converts any.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        return x
    return np.array(x, dtype=object)


def _refuse_non_numbers(entries: np.ndarray, name) -> None:
    """ValueError on the first entry that is not a number, named by ``name(index)``.

    ``entries`` comes from :func:`_entries`: an int or float array has no
    such entry, and is not searched.
    """
    if entries.dtype == object:
        for k, entry in enumerate(entries.flat):
            if not is_number(entry):
                raise ValueError(f"{name(np.unravel_index(k, entries.shape))} "
                                 f"is not a number: {entry!r}")


def _nonnegative(entries: np.ndarray, name) -> np.ndarray:
    """Read-only float copy of number ``entries``; ValueError on a negative or non-finite one.

    ``name(index)`` names the entry at ``index`` in the message.
    """
    arr = entries.astype(float)
    valid = (arr >= 0.0) & (arr < np.inf)  # false on negative and non-finite entries
    if not valid.all():
        i = np.unravel_index(valid.argmin(), arr.shape)
        what = "negative" if arr[i] < 0.0 else "non-finite"
        raise ValueError(f"{what} {name(i)}: {arr[i]}")
    arr.flags.writeable = False
    return arr


def check_positive(name: str, value) -> None:
    """Reject ``value`` unless it is a positive, finite number (:func:`is_number`)."""
    if not (is_number(value) and math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_count(name: str, value, least: int | None = 1) -> None:
    """Reject ``value`` unless it is an integer >= ``least`` (:func:`is_number`; None: any)."""
    if not is_number(value, integer=True):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def compare(x, y) -> OrderRelation:
    """Strongest componentwise order relation between ``x`` and ``y``."""
    x = as_point(x)
    y = as_point(y)
    if x.size != y.size:
        raise ValueError(f"dimension mismatch: {x.size} vs {y.size}")
    if np.array_equal(x, y):
        return OrderRelation.EQ
    if np.all(x < y):
        return OrderRelation.LL
    if np.all(x <= y):
        return OrderRelation.LT
    if np.all(y < x):
        return OrderRelation.GG
    if np.all(y <= x):
        return OrderRelation.GT
    return OrderRelation.INCOMPARABLE
