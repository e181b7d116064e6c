"""Monotone self-maps of the nonnegative orthant and the built-in families.

A :class:`MonotoneMap` is a pure evaluation rule ``s -> Ts`` with a fixed
dimension.  All built-in families satisfy ``T(0) = 0`` exactly and map the
orthant into itself.  Gain tables and diagonals are monotone by the
construction of :mod:`decaycert.scalarfn`; for the other families the
test suite spot-checks monotonicity by sampling (it is semidecidable for
black-box rules).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .order import as_nonnegative_matrix, as_point, check_count, check_positive
from .scalarfn import Max, ScalarFn, Sum, Term, degree, parse_scalar_fn, span

__all__ = [
    "MonotoneMap",
    "GainTable",
    "make_linear_map",
    "make_chain_map",
    "make_flipflop_map",
    "make_max_preserving",
    "make_diagonal",
    "compose",
    "coerce_gain",
]


@dataclass(frozen=True, eq=False)
class MonotoneMap:
    """Evaluatable monotone map ``T: R^n_+ -> R^n_+`` with ``T(0) = 0``.

    Instances are immutable (a write raises ``FrozenInstanceError``) and
    evaluation is pure, so maps can be shared freely between threads.

    ``degree = (lo, hi)`` is the scaling that T's constructor proves,
    ``l^lo T(s) <= T(l s) <= l^hi T(s)`` for ``l >= 1`` and ``s >= 0``, up
    to rounding, or None.  One rule gives it: a gain's degree spans its
    nonzero terms (:func:`decaycert.scalarfn.degree`), a table or diagonal
    spans its nonzero gains, and a table without one is ``(1, 1)``.
    :func:`make_linear_map` gives ``(1, 1)``, :func:`make_chain_map`
    ``(1/n, n)``, and :func:`compose` the products of its parts' ends, None
    where a part has none.  A map built directly from a callable has none.
    What each end proves:

    * ``lo >= 1``: T is superhomogeneous, ``T(m s) <= m T(s)`` for
      ``0 <= m <= 1``.  A linear map, table or diagonal with ``lo >= 1`` is
      also convex, each row a maximum or sum of convex terms, and so is a
      composition of such maps; a composition's product of ends alone does
      not prove it: ``diag(t^4) o A o diag(t^0.5)`` is ``(2, 2)``, and not
      convex.
    * ``hi <= 1``: T is subhomogeneous, ``T(l s) <= l T(s)`` for ``l >= 1``.
      It need not be concave: the gain ``max(t^0.5, 0.3 t)`` has a convex
      corner near ``t = 11.1``, where its slope jumps from 0.15 to 0.3.
    * ``(1, 1)``: T is homogeneous of degree one, ``T(l s) = l T(s)`` for
      ``l >= 0``.  A linear map, a max or sum table or a diagonal of gains
      ``c t``, and a composition of such maps, is also convex and piecewise
      linear, and the solver's policy step answers it in one evaluation.
      That step is the one part of the solver that reads the degree (see
      :mod:`decaycert.homotopy`).

    ``jacobian`` is the derivative that T's constructor proves, a callable
    ``s -> J(s)`` giving the n-by-n matrix ``dT_i/ds_j`` at a point s, or
    None.  An entry is inf where the derivative of a fractional power is,
    at 0.  :func:`make_linear_map` records ``A``, :func:`make_diagonal` and a
    gain table (the flip-flop map is one, and the chain map a sum table) the
    gains' ``ScalarFn.derivative`` (for a max table, of each row's active
    gain, the first of its nonzero gains with the largest value; for a sum
    table, of every nonzero gain), and :func:`compose` the chain rule, with
    ``0 * inf`` read as 0, when every part has one.  A table's evaluation and Jacobian call each
    nonzero gain once, and no zero gain.
    A map built directly from a callable has none.  For a map of degree
    ``(1, 1)`` ``T(s) = J(s) s`` (Euler), and for a piecewise linear one
    ``J(s)`` is the matrix of the piece active at s; the solver's policy
    step reads its policies from it.
    The solver's sphere stage forms J at each of its best points: this
    Jacobian where the map has one, and else forward differences of T,
    each a counted evaluation.  Each of its Newton steps fits one power of
    each row to ``T(s)`` and ``J(s)``, of degree
    ``(J(s) s)_i / T(s)_i``, so a map whose rows are sums
    ``sum_j c_ij s_j^a_i`` lands on its equal-margin point in one step.
    Either way every resulting point is tested on T itself.  A Jacobian
    reads its map's ``fn``, never ``__call__``, so it is never counted as
    an evaluation.
    ``kind`` is only a name: the solver never reads it.
    """

    dimension: int
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    kind: str
    degree = None  # not fields: set only by _proven
    jacobian = None

    def __post_init__(self):
        check_count("map dimension", self.dimension)

    def __call__(self, s) -> np.ndarray:
        out = _output(self, as_point(s, dim=self.dimension))
        out.flags.writeable = False
        return out


def _output(T: MonotoneMap, s: np.ndarray) -> np.ndarray:
    """``T.fn(s)`` as a float array, checked for T's shape and sign; s is a checked point."""
    out = np.asarray(T.fn(s), dtype=float)
    if out.shape != (T.dimension,):
        raise ValueError(f"map returned shape {out.shape}, expected ({T.dimension},)")
    if (out < 0.0).any():  # the method, not np.any's dispatching wrapper
        raise ValueError(f"map produced a negative component: {out}")
    return out


def _proven(T: MonotoneMap, degree: tuple[float, float] | None = None,
            jacobian: Callable[[np.ndarray], np.ndarray] | None = None) -> MonotoneMap:
    """``T`` with what its constructor proved: its ``degree`` and ``jacobian``."""
    object.__setattr__(T, "degree", degree)
    object.__setattr__(T, "jacobian", jacobian)
    return T


def make_linear_map(matrix) -> MonotoneMap:
    """Map given by multiplication with a nonnegative square matrix."""
    A = as_nonnegative_matrix(matrix)  # read-only: the map and its Jacobian share it
    return _proven(MonotoneMap(A.shape[0], lambda s: A @ s, "linear"), (1.0, 1.0), lambda s: A)


def make_chain_map(n: int) -> MonotoneMap:
    """Nearest-neighbour chain map with power couplings.

    ``(Ts)_i = (s_{i-1}^{1/i} + s_{i+1}^{i+1}) / 4`` for 1-based ``i``,
    with the convention that the out-of-range neighbours are zero.  It is
    the sum table of those ``Term`` couplings, so its values, Jacobian and
    degree ``(1/n, n)`` are the table's.
    """
    check_count("chain map dimension", n, least=2)
    # row i (0-based) couples s_{i-1} by the power 1/(i+1) and s_{i+1} by the power i+2
    rows = [[Term(0.25, 1.0 / (i + 1)) if j == i - 1 else Term(0.25, i + 2.0) if j == i + 1
             else None for j in range(n)] for i in range(n)]
    return GainTable(rows, "sum").to_map("chain")


def make_flipflop_map(lam: float) -> MonotoneMap:
    """Two-dimensional map ``T(x) = (x2^0.5, lam * x1^2)``: the 2-by-2 table of those two gains.

    Its square acts componentwise, so every trajectory decays to zero, yet
    plain iteration never produces a strictly decreasing step if the start
    is not one already.
    """
    check_positive("flipflop lambda", lam)
    if not lam < 1.0:
        raise ValueError(f"flipflop lambda must lie in (0, 1), got {lam}")
    return GainTable([[None, Term(1.0, 0.5)], [Term(lam, 2.0), None]]).to_map()


def coerce_gain(g) -> ScalarFn:
    """Normalize a gain entry: None (the zero gain), a textual form, or a Term, Sum or Max.

    Anything else, a raw callable or a ScalarFn subclass too, raises TypeError.
    """
    if g is None:
        return Term(0.0)
    if isinstance(g, str):
        return parse_scalar_fn(g)
    if isinstance(g, (Term, Sum, Max)):
        return g
    raise TypeError(f"cannot interpret {g!r} as a gain function")


def _gain_sequence(gains, what: str):
    """``gains`` itself; ValueError where it is a string, whose characters are no gains."""
    if isinstance(gains, str):
        raise ValueError(f"{what} must be a sequence, got the string {gains!r}")
    return gains


_AGGREGATES = {"max": "max-preserving", "sum": "sum-table"}  # a row rule -> its map's kind


@dataclass(frozen=True)
class GainTable:
    """Square table of gains, each present one coerced once by :func:`coerce_gain`, then frozen.

    It is built from n rows of n entries, entry ``[i][j]`` the influence of
    component j on component i, and keeps only its present gains:
    ``nonzero[i]`` holds the ``(j, gain)`` pairs of row i's nonzero gains in
    column order.  An absent (None) entry is skipped; every other entry is
    coerced, and dropped where it is a zero gain, one with ``g(1) = 0``.
    The table checks no gain itself: the :mod:`decaycert.scalarfn`
    constructors refuse any tree that is not a gain, so every coerced entry
    has ``g(0) = 0`` and is nondecreasing, and one with ``g(1) = 0`` is 0 on
    the whole half line.

    ``aggregate`` is the row rule, and the table is the one place that
    applies it: ``"max"`` (the default) gives ``(Ts)_i = max_j g_ij(s_j)``
    over row i of ``nonzero``, 0 for an empty row, and ``"sum"`` the
    sum-type gain operator ``(Ts)_i = sum_j g_ij(s_j)``, added in column
    order from 0.0 (Dashkovskiy, Ruffer & Wirth, *Math. Control Signals
    Systems* 19, 2007).  The table evaluates itself in two shapes:
    :meth:`evaluate` at one point, which is the map's ``fn`` and the step
    of the almost-solution path, and :meth:`evaluate_many` for a batch of
    points, the cycle test's step.  :meth:`active` picks a max row's active
    gain for the Jacobian and the cycle test's witness.  Each loop calls
    each nonzero gain once, and no zero gain.  Both shapes stay because
    they round differently: numpy's array power can differ from the
    scalar power in the last ulp.  With numpy 2.4 on an AVX-512 Xeon,
    17,440 to 18,651 of 400,000 values of ``0.7*t^a``, t uniform on
    ``[0, 3]``, differ for a in {0.25, 1/3, 1.1, 1.2, 1.5, 3}, and 258 to
    268 for a in {0.5, 2}.  So the map keeps the scalar bits that ``find``
    and ``verify`` certify, while the cycle test calls each gain once per
    step on the arrays of all its starts.
    """

    rows: InitVar[Sequence]
    aggregate: str = "max"
    nonzero: tuple[tuple[tuple[int, ScalarFn], ...], ...] = field(init=False)

    def __post_init__(self, rows):
        if not isinstance(self.aggregate, str) or self.aggregate not in _AGGREGATES:
            raise ValueError(f"gain table aggregate must be 'max' or 'sum', got {self.aggregate!r}")
        rows = [tuple(_gain_sequence(row, f"gain table row {i + 1}"))
                for i, row in enumerate(_gain_sequence(rows, "gain table"))]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("gain table must be square")
        present = [[(j, coerce_gain(g)) for j, g in enumerate(row) if g is not None]
                   for row in rows]
        nonzero = tuple(tuple((j, g) for j, g in row if g(1.0) != 0.0) for row in present)
        object.__setattr__(self, "nonzero", nonzero)

    @property
    def n(self) -> int:
        return len(self.nonzero)

    def gain(self, i: int, j: int) -> ScalarFn:
        """Gain from component j onto component i (1-based int indices, each in 1..n)."""
        check_count("gain index i", i, least=None)
        check_count("gain index j", j, least=None)
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"gain index ({i!r}, {j!r}) lies outside 1..{self.n}")
        return dict(self.nonzero[i - 1]).get(j - 1, Term(0.0))

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        """The row rule at one point s, gain by gain on its scalar components."""
        if self.aggregate == "sum":
            return np.array([sum((g(s[j]) for j, g in row), 0.0) for row in self.nonzero])
        return np.array([max((g(s[j]) for j, g in row), default=0.0) for row in self.nonzero])

    def evaluate_many(self, w: np.ndarray) -> np.ndarray:
        """The rule on a batch whose axis 1 holds the components, one array call per gain."""
        out = np.zeros_like(w)
        combine = np.add if self.aggregate == "sum" else np.maximum
        for a, row in enumerate(self.nonzero):
            for j, g in row:
                combine(out[:, a], g(w[:, j]), out=out[:, a])
        return out

    def active(self, i: int, s: np.ndarray) -> tuple[int, ScalarFn] | None:
        """Row i's active ``(j, gain)`` at s: its first nonzero gain of largest value, or None."""
        return max(self.nonzero[i], key=lambda jg: jg[1](s[jg[0]]), default=None)

    def to_map(self, kind: str | None = None) -> MonotoneMap:
        """Map of :meth:`evaluate`, named ``kind``, by default after the row rule.

        Jacobian row i holds the derivative of every nonzero gain of a sum
        row, and of the :meth:`active` gain of a max row; an empty row's is
        zero.  The degree spans the nonzero gains' degrees either way, and is
        ``(1, 1)`` where the table has none.
        """
        def jacobian(s: np.ndarray) -> np.ndarray:
            J = np.zeros((self.n, self.n))
            # a sum row differentiates every gain, a max row its active one, an empty row none
            for i, row in enumerate(self.nonzero):
                for j, g in row if self.aggregate == "sum" else row and [self.active(i, s)]:
                    J[i, j] = g.derivative(s[j])
            return J

        ends = span(degree(g) for row in self.nonzero for _, g in row)
        T = MonotoneMap(self.n, self.evaluate, kind or _AGGREGATES[self.aggregate])
        return _proven(T, ends or (1.0, 1.0), jacobian)

    def _repr_pretty_(self, p, cycle) -> None:
        """Pretty-print as ``repr``: a printer that lists a dataclass by its
        ``__init__`` fields (IPython's, hypothesis's) would read ``rows``,
        which the table does not keep."""
        p.text(repr(self))


def make_max_preserving(gains) -> MonotoneMap:
    """Map ``(Ts)_i = max_j g_ij(s_j)`` from an n-by-n table of gains.

    ``gains`` is a nested sequence whose entries may be ScalarFn
    instances, textual forms, or None for an absent gain.
    """
    return GainTable(gains).to_map()


def make_diagonal(fns: Sequence) -> MonotoneMap:
    """Componentwise map ``(Ds)_i = rho_i(s_i)`` from class-Kinf descriptors.

    Each descriptor is coerced as a gain, so it vanishes at 0, and every
    nonzero term has a positive exponent and is strictly increasing and
    unbounded: rho is class Kinf exactly when it is not the zero gain, that
    is when ``rho(1) > 0``.
    """
    rhos = [coerce_gain(f) for f in _gain_sequence(fns, "diagonal functions")]
    if not rhos:
        raise ValueError("need at least one diagonal function")
    for i, rho in enumerate(rhos, 1):
        if not rho(1.0) > 0.0:
            raise ValueError(f"diagonal function {i} is zero, so not class Kinf")

    def fn(s: np.ndarray) -> np.ndarray:
        return np.array([rho(s[i]) for i, rho in enumerate(rhos)])

    def jacobian(s: np.ndarray) -> np.ndarray:
        return np.diag([rho.derivative(s[i]) for i, rho in enumerate(rhos)])

    return _proven(MonotoneMap(len(rhos), fn, "diagonal"), span(map(degree, rhos)), jacobian)


def _chain(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` for Jacobians with entries >= 0, where ``0 * inf`` is 0.

    An entry is inf where a positive entry meets an inf; the rest is the
    product with every inf zeroed, so finite factors give ``A @ B`` itself.
    """
    inf = (np.isinf(A) @ (B > 0)) | ((A > 0) @ np.isinf(B))
    return np.where(inf, np.inf, np.where(np.isinf(A), 0.0, A) @ np.where(np.isinf(B), 0.0, B))


def compose(*maps: MonotoneMap) -> MonotoneMap:
    """Composition ``s -> maps[0](maps[1](... maps[-1](s)))``, applied right to left.

    A non-finite intermediate value is returned as is, since the next map rejects it.
    Each part's ``fn`` is called, with its output checked as ``__call__``
    checks it, so that a part is never counted as an evaluation of its own.
    Its Jacobian is the chain rule's product, from the innermost part's and
    with ``0 * inf = 0`` (``_chain``), when every part has one, and its
    degree the products of its parts' ends when every part has one.
    """
    if not maps:
        raise ValueError("compose needs at least one map")
    dims = sorted({m.dimension for m in maps})
    if len(dims) != 1:
        raise ValueError(f"compose needs maps of one dimension, got mismatched dimensions {dims}")

    def fn(s: np.ndarray) -> np.ndarray:
        for m in reversed(maps):
            s = _output(m, s)
            if not np.isfinite(s).all():
                break
        return s

    def jacobian(s: np.ndarray) -> np.ndarray:
        J = None
        with np.errstate(over="ignore", invalid="ignore"):  # the solver skips a non-finite J
            for m in reversed(maps):
                J = m.jacobian(s) if J is None else _chain(m.jacobian(s), J)
                s = _output(m, s)
        return J

    ends = [m.degree for m in maps]
    return _proven(MonotoneMap(dims[0], fn, "composition"),
                   None if None in ends else tuple(map(math.prod, zip(*ends))),
                   jacobian if all(m.jacobian is not None for m in maps) else None)
