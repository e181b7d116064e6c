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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import MonotoneMap, gain_rows, make_max_preserving
from .scalarfn import ScalarFn, Term, validation_grid

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


def _sparse(rows: list[list[ScalarFn]]) -> list[tuple[list, list[float]]]:
    """Each row as its nonzero gains ``(j, g)`` and ``[0.0]`` if it has a zero gain, else ``[]``."""
    out = []
    for row in rows:
        zero = [isinstance(g, Term) and g.coeff == 0.0 for g in row]
        out.append(([(j, g) for j, g in enumerate(row) if not zero[j]], [0.0] if any(zero) else []))
    return out


def _apply(sparse: list[tuple[list, list[float]]], w: list[float]) -> list[float]:
    """One max-plus step ``[max_j g_aj(w_j)]_a``; an overflowing gain gives +inf.

    A zero gain is not called: the literal 0.0 its row keeps is its value.
    """
    return [max([g(w[j]) for j, g in gains] + zero) for gains, zero in sparse]


def _closed_walk(
    rows: list[list[ScalarFn]], sparse: list[tuple[list, list[float]]], i: int, t: float, k: int
) -> tuple[int, ...]:
    """1-based closed walk of length k through i attaining (T^k(t e_i))_i (argmax backtrack).

    ``sparse`` is ``_sparse(rows)``.
    """
    powers = [[t if a == i else 0.0 for a in range(len(rows))]]
    for _ in range(k - 1):
        powers.append(_apply(sparse, powers[-1]))
    walk = [i]
    for w in reversed(powers[1:]):
        row = rows[walk[-1]]
        walk.append(max(range(len(w)), key=lambda j: row[j](w[j])))
    return tuple(a + 1 for a in walk)


def cycle_condition(table, t_grid=None) -> tuple[bool, tuple[tuple[int, ...], float] | None]:
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
    grid = cycle_grid() if t_grid is None else list(t_grid)
    if not grid:
        raise ValueError("cycle condition needs a nonempty grid")
    rows, n = table.rows, table.n
    sparse = _sparse(rows)
    # powers[i][p] holds T^k(t e_i) for t = grid[p] after the k-th pass
    powers = [[[t if a == i else 0.0 for a in range(n)] for t in grid] for i in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            for p, t in enumerate(grid):
                w = powers[i][p] = _apply(sparse, powers[i][p])
                if w[i] >= t:
                    return False, (_closed_walk(rows, sparse, i, t, k), t)
    return True, None


def path_q(table: GainTable, t: float) -> np.ndarray:
    """Componentwise max of ``t e, T(t e), ..., T^{n-1}(t e)``."""
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    T = table.to_map()
    w = np.full(table.n, float(t))
    best = w
    for _ in range(table.n - 1):
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
    n = table.n

    def norm_at(t: float) -> float:
        return float(np.sum(path_q(table, t)))

    hi = r / n
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
            return path_q(table, mid)
        if value < r:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"bisection stalled seeking path norm {r} within {tol}")
