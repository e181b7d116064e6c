"""Vectors in the nonnegative orthant and the componentwise partial order.

All state-space points are 1-D float64 numpy arrays with nonnegative
components.  The helpers here are the single place where order semantics
are defined: strict comparisons use exact floating-point ``<`` with no
tolerance, so that all numerical slack lives in the labeling parameter of
the solver rather than being smeared across every comparison.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "OrderRelation",
    "as_point",
    "compare",
    "one_norm",
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

    Raises ValueError on wrong dimensionality, empty input, or any negative
    or non-finite component.  The returned array is a read-only copy.
    """
    arr = np.array(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D point, got array of shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("a point needs at least one component")
    if dim is not None and arr.size != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.size}")
    valid = (arr >= 0.0) & (arr < np.inf)  # false on negative and non-finite components
    if not valid.all():
        i = int(valid.argmin())
        what = "negative" if arr[i] < 0.0 else "non-finite"
        raise ValueError(f"{what} component at index {i}: {arr[i]}")
    arr.flags.writeable = False
    return arr


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


def one_norm(x) -> float:
    """1-norm of an orthant point; just the component sum (all entries >= 0)."""
    return float(np.sum(as_point(x)))
