"""Max-preserving maps: the cycle test and the almost-solution path.

A map of the form ``(Ts)_i = max_j g_ij(s_j)`` never has ``Ts >= s`` at a
nonzero point exactly when every cyclic composition of its gains stays
below the identity.  When that holds, the curve

    q(t) = max{ t e, T(t e), ..., T^{n-1}(t e) }

is nondecreasing, unbounded and satisfies ``T(q(t)) <= q(t)``, so its
re-parametrization to prescribed 1-norm is an "almost" decay point (the
inequality is not strict).  Both checks are sample-based: gains are
black boxes, so ``g < id`` is verified on a finite logarithmic grid.

The cycle test uses max-plus powers (Baccelli, Cohen, Olsder & Quadrat,
*Synchronization and Linearity*, 1992): ``(T^k(t e_i))_i`` is the largest
composition at ``t`` over the closed walks of length ``k`` through ``i``,
so ``k <= n`` covers every simple cycle in every rotation, 1-cycles included.
The powers are stepped as arrays over every start and grid point at once:
each step calls each gain once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import MonotoneMap, gain_rows, make_max_preserving
from .scalarfn import ScalarFn, validation_grid

__all__ = [
    "GainTable",
    "cycle_condition",
    "path_q",
    "reparametrize_path",
    "cycle_grid",
]


def cycle_grid(n_points: int = 49) -> list[float]:
    """Default evaluation grid for the cycle condition: log-spaced 1e-3..1e3."""
    return validation_grid(n_points)[1:]


@dataclass
class GainTable:
    """Square table of scalar nondecreasing gains with g(0) = 0.

    ``rows[i][j]`` is the influence of component j on component i; absent
    (None) entries are the zero gain.
    """

    rows: list[list[ScalarFn]]

    def __post_init__(self):
        self.rows = gain_rows(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def gain(self, i: int, j: int) -> ScalarFn:
        """Gain from component j onto component i (1-based indices)."""
        return self.rows[i - 1][j - 1]

    def to_map(self) -> MonotoneMap:
        return make_max_preserving(self.rows)


def cycle_condition(table) -> tuple[bool, tuple[tuple[int, ...], float] | None]:
    """Check every cyclic gain composition against the identity on a grid.

    ``table`` is a GainTable or a nested gain sequence.  For walk length
    ``k = 1..n``, start ``i`` and grid point ``t`` in that order, a
    violation is ``(T^k(t e_i))_i >= t``.  Returns ``(True, None)`` or
    ``(False, (walk, t))`` where ``walk`` is the 1-based closed walk
    ``(i, i2, ..., ik)`` whose composition ``g_{i i2} o ... o g_{ik i}``
    is ``>= t``.  No shorter closed walk violates on the grid, so the walk
    is a simple cycle unless a sub-cycle of it violates only off the grid.
    """
    if not isinstance(table, GainTable):
        table = GainTable(table)
    rows, n = table.rows, table.n
    grid = np.array(cycle_grid())
    # powers[k][i, :, p] is T^k(t e_i) at t = grid[p]; an overflow reads as +inf
    powers = [np.eye(n)[:, :, None] * grid]
    with np.errstate(over="ignore"):
        for k in range(1, n + 1):
            step = np.zeros_like(powers[0])
            for a, row in enumerate(rows):  # one call per gain: max_j g_aj(T^{k-1}_j)
                for j, g in enumerate(row):
                    np.maximum(step[:, a], g(powers[-1][:, j]), out=step[:, a])
            powers.append(step)
            hits = np.argwhere(np.diagonal(powers[k]).T >= grid)
            if len(hits):
                i, p = hits[0].tolist()
                walk = [i]  # argmax backtrack, first index on ties
                for w in reversed(powers[1:k]):
                    row = rows[walk[-1]]
                    walk.append(max(range(n), key=lambda j: row[j](w[i, j, p])))
                return False, (tuple(a + 1 for a in walk), float(grid[p]))
    return True, None


def path_q(table: GainTable, t: float) -> np.ndarray:
    """Componentwise max of ``t e, T(t e), ..., T^{n-1}(t e)``."""
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return _q(table.to_map(), t)


def _q(T: MonotoneMap, t: float) -> np.ndarray:
    w = best = np.full(T.dimension, float(t))
    for _ in range(T.dimension - 1):
        w = T(w)
        best = np.maximum(best, w)
    return best


def reparametrize_path(table: GainTable, r: float, tol: float = 1e-9) -> np.ndarray:
    """Point on the almost-solution path with 1-norm ``r`` (within ``tol``).

    Bisects the parameter of ``q``; since ``q(t) >= t e`` the upper
    bracket ``t = r/n`` always works, and the lower end is halved until
    it falls below the target (bounded; failure raises).
    """
    if r <= 0.0:
        raise ValueError(f"r must be positive, got {r}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    T = table.to_map()

    def norm_at(t: float) -> float:
        return float(np.sum(_q(T, t)))

    hi = r / table.n
    if norm_at(hi) < r:  # only possible through rounding; widen once
        hi = 2.0 * r
    lo = hi / 2.0
    for _ in range(60):
        if norm_at(lo) <= r:
            break
        lo /= 2.0
    else:
        raise RuntimeError(f"no lower bracket for the path norm below {r}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = norm_at(mid)
        if abs(value - r) <= tol:
            return _q(T, mid)
        if value < r:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"bisection stalled seeking path norm {r} within {tol}")
