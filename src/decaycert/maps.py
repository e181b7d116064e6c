"""Monotone self-maps of the nonnegative orthant and the built-in families.

A :class:`MonotoneMap` is a pure evaluation rule ``s -> Ts`` with a fixed
dimension.  All built-in families satisfy ``T(0) = 0`` exactly and map the
orthant into itself; monotonicity is a property of the families that the
test suite spot-checks by sampling rather than something enforced at
construction time (it is semidecidable for black-box rules).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .linear import as_nonnegative_matrix
from .order import as_point
from .scalarfn import (
    ScalarFn,
    is_kinf_on,
    is_nondecreasing_on,
    is_zero_at_zero,
    parse_scalar_fn,
    validation_grid,
    zero_fn,
)

__all__ = [
    "MonotoneMap",
    "make_linear_map",
    "make_chain_map",
    "chain_feasible_point",
    "make_flipflop_map",
    "make_max_preserving",
    "make_diagonal",
    "compose",
    "coerce_gain",
    "check_gain",
    "check_kinf",
    "gain_rows",
]


class MonotoneMap:
    """Evaluatable monotone map ``T: R^n_+ -> R^n_+`` with ``T(0) = 0``.

    Instances are immutable and evaluation is pure, so maps can be shared
    freely between threads.
    """

    def __init__(self, dimension: int, fn: Callable[[np.ndarray], np.ndarray], kind: str):
        if dimension < 1:
            raise ValueError(f"map dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.kind = kind
        self._fn = fn

    def __call__(self, s) -> np.ndarray:
        s = as_point(s, dim=self.dimension)
        out = np.asarray(self._fn(s), dtype=float)
        if out.shape != (self.dimension,):
            raise ValueError(f"map returned shape {out.shape}, expected ({self.dimension},)")
        if np.any(out < 0.0):
            raise ValueError(f"map produced a negative component: {out}")
        out.flags.writeable = False
        return out

    def __repr__(self) -> str:
        return f"MonotoneMap(kind={self.kind!r}, dimension={self.dimension})"


def make_linear_map(matrix) -> MonotoneMap:
    """Map given by multiplication with a nonnegative square matrix."""
    A = as_nonnegative_matrix(matrix)
    A.flags.writeable = False
    return MonotoneMap(A.shape[0], lambda s: A @ s, "linear")


def make_chain_map(n: int) -> MonotoneMap:
    """Nearest-neighbour chain map with power couplings.

    ``(Ts)_i = (s_{i-1}^{1/i} + s_{i+1}^{i+1}) / 4`` for 1-based ``i``,
    with the convention that the out-of-range neighbours are zero.
    """
    if n < 2:
        raise ValueError(f"chain map needs n >= 2, got {n}")

    def fn(s: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        for j in range(n):
            left = s[j - 1] ** (1.0 / (j + 1)) if j >= 1 else 0.0
            right = s[j + 1] ** (j + 2) if j + 1 < n else 0.0
            out[j] = 0.25 * (left + right)
        return out

    return MonotoneMap(n, fn, "chain")


def chain_feasible_point(n: int, r: float) -> np.ndarray:
    """Point ``p = (r, r^{1/2!}, ..., r^{1/n!})`` with ``Tp << p`` for the chain map."""
    if n < 2:
        raise ValueError(f"chain map needs n >= 2, got {n}")
    if r <= 0.0:
        raise ValueError(f"r must be positive, got {r}")
    p = np.array([r ** (1.0 / math.factorial(i)) for i in range(1, n + 1)])
    p.flags.writeable = False
    return p


def make_flipflop_map(lam: float) -> MonotoneMap:
    """Two-dimensional map ``T(x) = (sqrt(x2), lam * x1^2)``.

    Its square acts componentwise, so every trajectory decays to zero, yet
    plain iteration never produces a strictly decreasing step if the start
    is not one already.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")

    def fn(s: np.ndarray) -> np.ndarray:
        return np.array([math.sqrt(s[1]), lam * s[0] ** 2])

    return MonotoneMap(2, fn, "flipflop")


def coerce_gain(g) -> ScalarFn:
    """Normalize a gain entry: ScalarFn, textual form, or None (zero)."""
    if g is None:
        return zero_fn()
    if isinstance(g, ScalarFn):
        return g
    if isinstance(g, str):
        return parse_scalar_fn(g)
    raise TypeError(f"cannot interpret {g!r} as a gain function")


def check_gain(g: ScalarFn, where: str) -> None:
    """Raise ValueError unless ``g(0) = 0`` and g is nondecreasing on the sample grid."""
    if not is_zero_at_zero(g):
        raise ValueError(f"{where} violates g(0)=0: got {g(0.0)}")
    if not is_nondecreasing_on(g, validation_grid()):
        raise ValueError(f"{where} is not nondecreasing on the sample grid")


def check_kinf(rho: ScalarFn, where: str) -> None:
    """Raise ValueError unless rho is a gain that is class-Kinf on the sample grid."""
    check_gain(rho, where)
    if not is_kinf_on(rho, validation_grid()):
        raise ValueError(f"{where} fails the sampled Kinf checks")


def gain_rows(gains) -> list[list[ScalarFn]]:
    """Coerce a nested gain sequence into a checked square table of ScalarFns."""
    rows = [[coerce_gain(g) for g in row] for row in gains]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("gain table must be square")
    for i, row in enumerate(rows):
        for j, g in enumerate(row):
            check_gain(g, f"gain ({i + 1},{j + 1})")
    return rows


def make_max_preserving(gains) -> MonotoneMap:
    """Map ``(Ts)_i = max_j g_ij(s_j)`` from an n-by-n table of gains.

    ``gains`` is a nested sequence (or a GainTable); entries may be
    ScalarFn instances, textual forms, or None for the zero gain.
    """
    rows = gain_rows(getattr(gains, "rows", gains))

    def fn(s: np.ndarray) -> np.ndarray:
        return np.array([max(g(s[j]) for j, g in enumerate(row)) for row in rows])

    return MonotoneMap(len(rows), fn, "max-preserving")


def make_diagonal(fns: Sequence) -> MonotoneMap:
    """Componentwise map ``(Ds)_i = rho_i(s_i)`` from class-Kinf descriptors."""
    rhos = [coerce_gain(f) for f in fns]
    if not rhos:
        raise ValueError("need at least one diagonal function")
    for i, rho in enumerate(rhos):
        check_kinf(rho, f"diagonal function {i + 1}")

    def fn(s: np.ndarray) -> np.ndarray:
        return np.array([rho(s[i]) for i, rho in enumerate(rhos)])

    return MonotoneMap(len(rhos), fn, "diagonal")


def compose(*maps: MonotoneMap) -> MonotoneMap:
    """Composition ``s -> maps[0](maps[1](... maps[-1](s)))``, applied right to left.

    A non-finite intermediate value is returned as is, since the next map rejects it.
    """
    dims = sorted({m.dimension for m in maps})
    if len(dims) != 1:
        raise ValueError(f"compose needs one or more maps of one dimension, got dimensions {dims}")

    def fn(s: np.ndarray) -> np.ndarray:
        for m in reversed(maps):
            s = m(s)
            if not np.isfinite(s).all():
                break
        return s

    return MonotoneMap(dims[0], fn, "composition")
