"""Max-preserving maps: the cycle test and the almost-solution path.

Everything here takes a max table only: what follows rests on ``T``
commuting with ``max``, which a sum table (``GainTable(rows, "sum")``)
does not, so each function refuses one with ValueError.

A map of the form ``(Ts)_i = max_j g_ij(s_j)`` never has ``Ts >= s`` at a
nonzero point exactly when every cyclic composition of its gains stays
below the identity.  When that holds, the curve

    q(t) = max{ t e, T(t e), ..., T^{n-1}(t e) }

is nondecreasing, unbounded and satisfies ``T(q(t)) <= q(t)``, so its
re-parametrization to prescribed 1-norm is an "almost" decay point (the
inequality is not strict).  The gains' own properties, ``g(0) = 0``
exactly and g nondecreasing, hold by the construction of each gain tree
(see :mod:`decaycert.scalarfn`), and the
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

**Running maxima.**  Every gain is nondecreasing, also as evaluated in
floating point, so ``g(max(x, y)) = max(g(x), g(y))`` exactly, and hence
``T(max(a, b)) = max(T a, T b)`` entry for entry.  So the running maximum
``u_0 = v``, ``u_k = max(u_{k-1}, T u_{k-1})`` is exactly
``max_{j<=k} T^j v``, and ``T u_{k-1} = max_{1<=j<=k} T^j v``.  The path
``q(t)`` is ``u_{n-1}`` from ``v = t e``, and the cycle test steps
``u`` from every ``t e_i`` at once, as arrays over every start and both
ends.  Its first step ``k`` where ``(T u_{k-1})_i >= t`` is the first
where the powers hit, with the same hits, so it returns the same verdict
and witness.  Both stop where ``T u <= u``: then ``u`` is a fixed point
of the running maximum, so no longer walk reaches ``t`` and the path
does not move again.

**The table evaluates itself.**  No map is built here: the path steps
and checks its points with ``GainTable.evaluate``, the rule of the map's
``fn``, the cycle test steps with ``GainTable.evaluate_many``, and its
witness follows each row's ``GainTable.active`` gain; each step calls
each nonzero gain once.  A step that overflows reads as inf, in the
cycle test and on the path alike, so a path that overflows is inf
there, and ``reparametrize_path`` bisects below it.  A norm that the
path jumps over, where one ulp of the parameter moves the path's norm
by more than the tolerance, ends in the stalled-bisection RuntimeError.
"""

from __future__ import annotations

import numpy as np

from .maps import GainTable
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
    """``table`` itself if it is a GainTable, else the GainTable of a nested gain sequence.

    A sum table raises ValueError (see the module docstring).
    """
    table = table if isinstance(table, GainTable) else GainTable(table)
    if table.aggregate != "max":
        raise ValueError(f"the max-preserving toolkit needs a max table, got {table.aggregate!r}")
    return table


def cycle_condition(table) -> tuple[bool, tuple[tuple[int, ...], float] | None]:
    """Check every cyclic gain composition against the identity on ``[1e-3, 1e3]``.

    ``table`` is a GainTable or a nested gain sequence.  For walk length
    ``k = 1..n``, start ``i`` and end ``t`` of the interval, 1e-3 first,
    in that order, a violation is ``(T^k(t e_i))_i >= t``.  Returns
    ``(True, None)`` or ``(False, (walk, t))`` where ``walk`` is the 1-based
    closed walk ``(i, i2, ..., ik)`` whose composition
    ``g_{i i2} o ... o g_{ik i}`` is ``>= t``.  No shorter closed walk
    violates at either end, so the walk is a simple cycle unless a
    sub-cycle of it violates only outside the interval.  The walks are
    stepped as running maxima, which stop where they stop moving (see the
    module docstring).

    The verdict covers ``{0} u [1e-3, 1e3]``: ``t = 0`` through
    ``g(0) = 0``, which every gain is checked for, and the whole interval
    through its two ends, by log-log convexity (see the module docstring),
    up to the rounding of the gains' evaluation.  A cycle that reaches the
    identity only outside that range passes: ``1e-4*t^0.5`` on the
    diagonal meets it at ``t = 1e-8``, and ``1e-4*t^2`` at ``t = 1e4``.
    """
    table = _table(table)
    n, ends = table.n, np.array([1e-3, 1e3])
    # u[i, :, p] is u_{k-1} from t e_i at t = ends[p], and w = T u_{k-1} is
    # max_{1<=j<=k} T^j(t e_i); an overflow reads as +inf
    start = u = np.eye(n)[:, :, None] * ends
    with np.errstate(over="ignore"):
        for k in range(1, n + 1):
            w = table.evaluate_many(u)
            hits = np.argwhere(np.diagonal(w).T >= ends)
            if len(hits):
                i, p = hits[0].tolist()
                path = [start[i:i + 1, :, p:p + 1]]  # re-step the violating start only
                for _ in range(k - 1):
                    path.append(table.evaluate_many(path[-1]))
                walk = [i]  # backtrack by each row's active gain
                for v in reversed(path[1:]):
                    walk.append(table.active(walk[-1], v[0, :, 0])[0])
                return False, (tuple(a + 1 for a in walk), float(ends[p]))
            if np.all(w <= u):
                break
            u = np.maximum(u, w)
    return True, None


def path_q(table, t: float) -> np.ndarray:
    """Componentwise max of ``t e, T(t e), ..., T^{n-1}(t e)``; ``table`` as for cycle_condition.

    A component that overflows reads as inf.
    """
    check_positive("t", t)
    return _q(_table(table), t)


def _q(table: GainTable, t: float) -> np.ndarray:
    q = np.full(table.n, float(t))
    with np.errstate(over="ignore"):
        for _ in range(table.n - 1):
            Tq = table.evaluate(q)
            if np.all(Tq <= q):
                break
            q = np.maximum(q, Tq)
    return q


def reparametrize_path(table, r: float, tol: float = 1e-9) -> np.ndarray:
    """Point on the almost-solution path with 1-norm ``r`` (within ``tol``).

    ``table`` is taken as by cycle_condition, and steps the path itself
    (``GainTable.evaluate``), building no map.  Bisects the parameter of
    ``q`` on ``[0, r]``: ``q(0) = 0``, since every gain has ``g(0) = 0``,
    and ``q(r) >= r e`` has norm at least r.  A path point that overflows
    reads as inf, so its norm lies above r.  A target that 200 halvings
    cannot resolve raises RuntimeError; so does a norm that the path jumps
    over, where one ulp of the parameter moves the norm by more than
    ``tol``.

    The point found is checked: ``T(q) <= q`` holds on the path wherever
    every cycle stays below the identity, but the cycle test proves that
    only on ``{0} u [1e-3, 1e3]``, and a point whose norm needs a
    parameter outside that range can miss it.  A component with
    ``T(q) > q``, an overflowing one too, raises ValueError, naming the
    component (1-based).
    """
    check_positive("r", r)
    check_positive("tol", tol)
    table = _table(table)
    lo, hi = 0.0, float(r)
    with np.errstate(over="ignore"):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            q = _q(table, mid)
            value = float(np.sum(q))
            if abs(value - r) <= tol:
                above = np.flatnonzero(table.evaluate(q) > q)
                if above.size:
                    raise ValueError(f"path point of norm {r} has T(q) > q "
                                     f"in component {above[0] + 1}")
                return q
            lo, hi = (mid, hi) if value < r else (lo, mid)
    raise RuntimeError(f"bisection stalled seeking path norm {r} within {tol}")
