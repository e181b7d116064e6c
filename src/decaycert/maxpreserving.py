"""Max-preserving maps: the cycle test and the almost-solution path.

A map of the form ``(Ts)_i = max_j g_ij(s_j)`` never has ``Ts >= s`` at a
nonzero point exactly when every cyclic composition of its gains stays
below the identity.  When that holds, the curve

    q(t) = max{ t e, T(t e), ..., T^{n-1}(t e) }

is nondecreasing, unbounded and satisfies ``T(q(t)) <= q(t)``, so its
re-parametrization to prescribed 1-norm is an "almost" decay point (the
inequality is not strict).  Both checks are sample-based: gains are
black boxes, so ``g < id`` is verified on a finite logarithmic grid.

The composition chains tested are the simple cycles
``g_{i1 i2} o ... o g_{ik i1}`` over distinct indices, including the
1-cycles (diagonal gains).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .maps import MonotoneMap, check_gain, coerce_gain, make_max_preserving
from .scalarfn import ScalarFn, validation_grid

__all__ = [
    "GainTable",
    "cycle_condition",
    "path_q",
    "reparametrize_path",
    "cycle_grid",
]

# Enumerating all simple cycles grows factorially; this is a desk-scale
# tool, so larger tables are rejected outright.
MAX_CYCLE_DIMENSION = 12


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
        self.rows = [[coerce_gain(g) for g in row] for row in self.rows]
        n = len(self.rows)
        if n < 1 or any(len(row) != n for row in self.rows):
            raise ValueError("gain table must be square")
        for i, row in enumerate(self.rows):
            for j, g in enumerate(row):
                check_gain(g, f"gain ({i + 1},{j + 1})")

    @property
    def n(self) -> int:
        return len(self.rows)

    def gain(self, i: int, j: int) -> ScalarFn:
        """Gain from component j onto component i (1-based indices)."""
        return self.rows[i - 1][j - 1]

    def to_map(self) -> MonotoneMap:
        return make_max_preserving(self.rows)


def _compose_along(table: GainTable, chain: tuple[int, ...], t: float) -> float:
    """Evaluate g_{chain[0] chain[1]} o ... o g_{chain[-2] chain[-1]} at t (0-based)."""
    value = t
    for a in range(len(chain) - 2, -1, -1):
        value = table.rows[chain[a]][chain[a + 1]](value)
    return value


def cycle_condition(table: GainTable, t_grid=None) -> tuple[bool, tuple[tuple[int, ...], float] | None]:
    """Check every cyclic gain composition against the identity on a grid.

    Returns ``(True, None)`` or ``(False, (cycle, t))`` where ``cycle`` is
    the violating 1-based index tuple and ``t`` a grid point with
    composition(t) >= t.
    """
    n = table.n
    if n > MAX_CYCLE_DIMENSION:
        raise ValueError(
            f"cycle enumeration supports n <= {MAX_CYCLE_DIMENSION}, got {n} "
            "(simple cycles grow factorially)"
        )
    grid = cycle_grid() if t_grid is None else list(t_grid)
    if not grid:
        raise ValueError("cycle condition needs a nonempty grid")

    def violated(chain: tuple[int, ...]) -> float | None:
        for t in grid:
            if _compose_along(table, chain, t) >= t:
                return t
        return None

    # pure cycles over distinct indices, canonicalized to start at the
    # smallest member so each rotation class is tested once
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            first = combo[0]
            for rest in permutations(combo[1:]):
                cycle = (first,) + rest
                t = violated(cycle + (first,))
                if t is not None:
                    return False, (tuple(i + 1 for i in cycle), t)
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
