"""Max-preserving maps: the cycle test and the almost-solution path.

A map of the form ``(Ts)_i = max_j g_ij(s_j)`` never has ``Ts >= s`` at a
nonzero point exactly when every cyclic composition of its gains stays
below the identity.  When that holds, the curve

    q(t) = max{ t e, T(t e), ..., T^{n-1}(t e) }

is nondecreasing, unbounded and satisfies ``T(q(t)) <= q(t)``, so its
re-parametrization to prescribed 1-norm is an "almost" decay point (the
inequality is not strict).  The gains' own properties are checked exactly
when the table is built (see :class:`decaycert.maps.GainTable`), and the
cycle test proves ``g < id`` on the whole interval ``[1e-3, 1e3]`` from
its two ends.

**Why two ends suffice.**  Put ``x = log t``.  Every gain of the
vocabulary is convex in log-log coordinates, ``x -> log g(e^x)``: a
``Term`` ``c t^a`` is affine there, a ``Sum`` is a log-sum-exp of convex
parts and a ``Max`` a maximum of them, both convex, and the zero gain is
``-inf``.  These functions are also nondecreasing, and a nondecreasing
convex function of a convex function is convex, so every cyclic
composition ``g_c`` is convex in log-log coordinates too, and so is
``H(x) = max_c log g_c(e^x) - x``.  A convex function takes its maximum
over an interval at an end.  So ``g_c < id`` holds on all of ``[a, b]``
exactly when it holds at ``a`` and at ``b``: the log-log convexity of
geometric programming (Boyd, Kim, Vandenberghe & Hassibi, "A tutorial on
geometric programming", *Optim. Eng.* 8, 2007).

The cycle test uses max-plus powers (Baccelli, Cohen, Olsder & Quadrat,
*Synchronization and Linearity*, 1992): ``(T^k(t e_i))_i`` is the largest
composition at ``t`` over the closed walks of length ``k`` through ``i``,
so ``k <= n`` covers every simple cycle in every rotation, 1-cycles included.
The powers are stepped as arrays over every start and both ends at once:
each step calls each gain once, and only the current power is kept.
"""

from __future__ import annotations

import numpy as np

from .maps import GainTable, MonotoneMap
from .order import check_positive

__all__ = [
    "GainTable",
    "cycle_condition",
    "path_q",
    "reparametrize_path",
    "cycle_grid",
]


def cycle_grid() -> list[float]:
    """49 points log-spaced over 1e-3..1e3, a sample of the interval the cycle test proves."""
    return [10.0 ** (-3.0 + k * 0.125) for k in range(49)]


def _table(table) -> GainTable:
    """``table`` itself if it is a GainTable, else the GainTable of a nested gain sequence."""
    return table if isinstance(table, GainTable) else GainTable(table)


def cycle_condition(table) -> tuple[bool, tuple[tuple[int, ...], float] | None]:
    """Check every cyclic gain composition against the identity on ``[1e-3, 1e3]``.

    ``table`` is a GainTable or a nested gain sequence.  For walk length
    ``k = 1..n``, start ``i`` and end ``t`` of the interval, 1e-3 first,
    in that order, a violation is ``(T^k(t e_i))_i >= t``.  Returns
    ``(True, None)`` or ``(False, (walk, t))`` where ``walk`` is the 1-based
    closed walk ``(i, i2, ..., ik)`` whose composition
    ``g_{i i2} o ... o g_{ik i}`` is ``>= t``.  No shorter closed walk
    violates at either end, so the walk is a simple cycle unless a
    sub-cycle of it violates only outside the interval.

    The verdict covers ``{0} u [1e-3, 1e3]``: ``t = 0`` through
    ``g(0) = 0``, which every gain is checked for, and the whole interval
    through its two ends, by log-log convexity (see the module docstring),
    up to the rounding of the gains' evaluation.  A cycle that reaches the
    identity only outside that range passes: ``1e-4*t^0.5`` on the
    diagonal meets it at ``t = 1e-8``, and ``1e-4*t^2`` at ``t = 1e4``.
    """
    table = _table(table)
    rows, n = table.rows, table.n
    ends = np.array([1e-3, 1e3])
    # w[i, :, p] is T^k(t e_i) at t = ends[p]; an overflow reads as +inf
    start = w = np.eye(n)[:, :, None] * ends
    with np.errstate(over="ignore"):
        for k in range(1, n + 1):
            w = _step(rows, w)
            hits = np.argwhere(np.diagonal(w).T >= ends)
            if len(hits):
                i, p = hits[0].tolist()
                path = [start[i:i + 1, :, p:p + 1]]  # re-step the violating start only
                for _ in range(k - 1):
                    path.append(_step(rows, path[-1]))
                walk = [i]  # argmax backtrack, first index on ties
                for v in reversed(path[1:]):
                    row = rows[walk[-1]]
                    walk.append(max(range(n), key=lambda j: row[j](v[0, j, 0])))
                return False, (tuple(a + 1 for a in walk), float(ends[p]))
    return True, None


def _step(rows, w: np.ndarray) -> np.ndarray:
    """One power step ``out[:, a] = max_j g_aj(w[:, j])``, calling each gain once."""
    out = np.zeros_like(w)
    for a, row in enumerate(rows):
        for j, g in enumerate(row):
            np.maximum(out[:, a], g(w[:, j]), out=out[:, a])
    return out


def path_q(table, t: float) -> np.ndarray:
    """Componentwise max of ``t e, T(t e), ..., T^{n-1}(t e)``; ``table`` as for cycle_condition."""
    check_positive("t", t)
    return _q(_table(table).to_map(), t)


def _q(T: MonotoneMap, t: float) -> np.ndarray:
    w = best = np.full(T.dimension, float(t))
    for _ in range(T.dimension - 1):
        w = T(w)
        best = np.maximum(best, w)
    return best


def reparametrize_path(table, r: float, tol: float = 1e-9) -> np.ndarray:
    """Point on the almost-solution path with 1-norm ``r`` (within ``tol``).

    ``table`` is taken as by cycle_condition.  Bisects the parameter of
    ``q`` on ``[0, r]``: ``q(0) = 0``, since every gain has ``g(0) = 0``,
    and ``q(r) >= r e`` has norm at least r.  A target that 200 halvings
    cannot resolve raises RuntimeError.

    The point found is checked: ``T(q) <= q`` holds on the path wherever
    every cycle stays below the identity, but the cycle test proves that
    only on ``{0} u [1e-3, 1e3]``, and a point whose norm needs a
    parameter outside that range can miss it.  A component with
    ``T(q) > q`` raises ValueError, naming the component (1-based).
    """
    check_positive("r", r)
    check_positive("tol", tol)
    T = _table(table).to_map()
    lo, hi = 0.0, float(r)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q = _q(T, mid)
        value = float(np.sum(q))
        if abs(value - r) <= tol:
            above = np.flatnonzero(T(q) > q)
            if above.size:
                raise ValueError(f"path point of norm {r} has T(q) > q in component {above[0] + 1}")
            return q
        lo, hi = (mid, hi) if value < r else (lo, mid)
    raise RuntimeError(f"bisection stalled seeking path norm {r} within {tol}")
