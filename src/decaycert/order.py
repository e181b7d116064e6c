"""Vectors in the nonnegative orthant and the componentwise partial order.

All state-space points are 1-D float64 numpy arrays with nonnegative
components.  The helpers here are the single place where order semantics
are defined: strict comparisons use exact floating-point ``<`` with no
tolerance, so that all numerical slack lives in the labeling parameter of
the solver rather than being smeared across every comparison.  The
scalar arguments of the public functions are checked here too, so that a
mistyped number names its argument in a ValueError.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

__all__ = [
    "OrderRelation",
    "as_point",
    "check_count",
    "check_positive",
    "compare",
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


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to an orthant point (1-D float64 array).

    Raises ValueError on wrong dimensionality, empty input, or any negative,
    non-finite or non-number component.  The returned array is a read-only copy.
    """
    arr = np.array(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D point, got array of shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("a point needs at least one component")
    if dim is not None and arr.size != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.size}")
    bad = first_non_number(x)
    if bad:
        raise ValueError(f"component at index {bad[0][0]} is not a number: {bad[1]!r}")
    valid = (arr >= 0.0) & (arr < np.inf)  # false on negative and non-finite components
    if not valid.all():
        i = int(valid.argmin())
        what = "negative" if arr[i] < 0.0 else "non-finite"
        raise ValueError(f"{what} component at index {i}: {arr[i]}")
    arr.flags.writeable = False
    return arr


def first_non_number(x):
    """Index and value of the first bool or string entry of ``x``, else None.

    numpy would convert either, to 1.0 or to the number a string spells.
    A numeric array has none, and is not searched.
    """
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        for index, entry in np.ndenumerate(np.array(x, dtype=object)):
            if isinstance(entry, (bool, np.bool_, str, bytes)):
                return index, entry
    return None


def check_positive(name: str, value) -> None:
    """Reject ``value`` unless it is a positive, finite real number (a bool is not one)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0.0)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_count(name: str, value, least: int | None = 1) -> None:
    """Reject ``value`` unless it is an integer >= ``least`` (a bool is not one; None: any)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
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
