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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linear import as_nonnegative_matrix
from .order import as_point, check_count, check_positive
from .scalarfn import Max, ScalarFn, Sum, Term, is_degree_one, parse_scalar_fn, zero_fn

__all__ = [
    "MonotoneMap",
    "GainTable",
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
]


@dataclass(frozen=True, eq=False)
class MonotoneMap:
    """Evaluatable monotone map ``T: R^n_+ -> R^n_+`` with ``T(0) = 0``.

    Instances are immutable (a write raises ``FrozenInstanceError``) and
    evaluation is pure, so maps can be shared freely between threads.

    ``homogeneous`` states that T is homogeneous of degree one,
    ``T(l s) = l T(s)`` for ``l >= 0``, up to rounding.  Only the
    family constructors of this module set it: linear maps, and max-times
    tables, diagonals and compositions built from degree-one parts.  Such
    a map is also convex and piecewise linear, and the solver's policy
    step, the one part of the solver that reads the flag, computes its
    best margin from its Jacobian and proves infeasibility from one point
    without a label (see :mod:`decaycert.homotopy`).  A map built directly
    from a callable never carries the flag and is treated as any other
    monotone map.
    ``jacobian`` is the derivative that T's constructor proves, a callable
    ``s -> J(s)`` giving the n-by-n matrix ``dT_i/ds_j`` at a point s, or
    None.  An entry is inf where the derivative of a fractional power is,
    at 0.  :func:`make_linear_map` records ``A``, :func:`make_chain_map` and
    :func:`make_flipflop_map` their closed forms, :func:`make_diagonal` and
    a max-preserving table the gains' ``ScalarFn.derivative`` (of each
    row's active gain, for a table), and :func:`compose` the chain rule
    when every part has one.  A map built directly from a callable has
    none.  For a homogeneous map ``J(s)`` is the matrix of the linear
    piece active at s, so ``T(s) = J(s) s``; the solver's policy step reads
    its policies from it.  The sphere stage takes Newton steps with any
    map's Jacobian, and without one it forms J from forward differences
    of T, each a counted evaluation.  Either tests every resulting point
    on T itself.  A Jacobian reads its map's ``fn``, never
    ``__call__``, so it is never counted as an evaluation.
    ``kind`` is only a name: the solver never reads it.
    """

    dimension: int
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    kind: str
    homogeneous = False  # not fields: set only by _proven
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
    if np.any(out < 0.0):
        raise ValueError(f"map produced a negative component: {out}")
    return out


def _proven(T: MonotoneMap, homogeneous: bool = False,
            jacobian: Callable[[np.ndarray], np.ndarray] | None = None) -> MonotoneMap:
    """``T`` with what its constructor proved: the ``homogeneous`` flag and ``jacobian``."""
    object.__setattr__(T, "homogeneous", homogeneous)
    object.__setattr__(T, "jacobian", jacobian)
    return T


def make_linear_map(matrix) -> MonotoneMap:
    """Map given by multiplication with a nonnegative square matrix."""
    A = as_nonnegative_matrix(matrix)
    A.flags.writeable = False  # the map and its Jacobian share it
    return _proven(MonotoneMap(A.shape[0], lambda s: A @ s, "linear"), True, lambda s: A)


def make_chain_map(n: int) -> MonotoneMap:
    """Nearest-neighbour chain map with power couplings.

    ``(Ts)_i = (s_{i-1}^{1/i} + s_{i+1}^{i+1}) / 4`` for 1-based ``i``,
    with the convention that the out-of-range neighbours are zero.
    """
    check_count("chain map dimension", n, least=2)
    # the couplings of s_{j-1} and s_{j+1} onto component j (0-based)
    left = [Term(0.25, 1.0 / (j + 1)) for j in range(n)]
    right = [Term(0.25, j + 2.0) for j in range(n)]

    def fn(s: np.ndarray) -> np.ndarray:
        padded = np.concatenate(([0.0], s, [0.0]))  # the out-of-range neighbours; a Term is 0 at 0
        return np.array([left[j](padded[j]) + right[j](padded[j + 2]) for j in range(n)])

    def jacobian(s: np.ndarray) -> np.ndarray:
        J = np.zeros((n, n))
        for j in range(1, n):
            J[j, j - 1] = left[j].derivative(s[j - 1])
        for j in range(n - 1):
            J[j, j + 1] = right[j].derivative(s[j + 1])
        return J

    return _proven(MonotoneMap(n, fn, "chain"), jacobian=jacobian)


def chain_feasible_point(n: int, r: float) -> np.ndarray:
    """Point ``p = (r, r^{1/2!}, ..., r^{1/n!})`` with ``Tp << p`` for the chain map."""
    check_count("chain map dimension", n, least=2)
    check_positive("r", r)
    p = np.array([r ** (1.0 / math.factorial(i)) for i in range(1, n + 1)])
    p.flags.writeable = False
    return p


def make_flipflop_map(lam: float) -> MonotoneMap:
    """Two-dimensional map ``T(x) = (sqrt(x2), lam * x1^2)``.

    Its square acts componentwise, so every trajectory decays to zero, yet
    plain iteration never produces a strictly decreasing step if the start
    is not one already.
    """
    check_positive("flipflop lambda", lam)
    if not lam < 1.0:
        raise ValueError(f"flipflop lambda must lie in (0, 1), got {lam}")

    # math.sqrt, not Term(1, 0.5): the libm power t**0.5 differs from it in the last bit
    # at about one point in 1,200
    def fn(s: np.ndarray) -> np.ndarray:
        return np.array([math.sqrt(s[1]), lam * s[0] ** 2])

    root, square = Term(1.0, 0.5), Term(lam, 2.0)

    def jacobian(s: np.ndarray) -> np.ndarray:
        return np.array([[0.0, root.derivative(s[1])], [square.derivative(s[0]), 0.0]])

    return _proven(MonotoneMap(2, fn, "flipflop"), jacobian=jacobian)


def coerce_gain(g) -> ScalarFn:
    """Normalize a gain entry: None (the zero gain), a textual form, or a Term, Sum or Max.

    Anything else, a raw callable or a ScalarFn subclass too, raises TypeError.
    """
    if g is None:
        return zero_fn()
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


def check_gain(g: ScalarFn, where: str) -> None:
    """Raise ValueError unless ``g(0) = 0`` exactly; g is nondecreasing by construction.

    A term ``c*0^a`` is 0 for ``a > 0`` and ``c`` for ``a = 0``, and a sum
    or maximum of values >= 0 is 0 only when every part is.
    """
    if g(0.0) != 0.0:
        raise ValueError(f"{where} violates g(0)=0: got {g(0.0)}")


def check_kinf(rho: ScalarFn, where: str) -> None:
    """Raise ValueError unless rho is a gain of class Kinf.

    Once ``rho(0) = 0`` holds, every nonzero term has a positive exponent
    and is strictly increasing and unbounded, so rho is Kinf exactly when
    it is not identically zero, that is when ``rho(1) > 0``.
    """
    check_gain(rho, where)
    if not rho(1.0) > 0.0:
        raise ValueError(f"{where} is zero, so not class Kinf")


@dataclass(frozen=True)
class GainTable:
    """Square table of gains, each checked once by :func:`check_gain`, and then frozen.

    ``rows[i][j]`` is the influence of component j on component i; absent
    (None) entries are the zero gain.  Any nested gain sequence is accepted
    and kept as tuples.
    """

    rows: tuple[tuple[ScalarFn, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(coerce_gain(g) for g in _gain_sequence(row, f"gain table row {i + 1}"))
                     for i, row in enumerate(_gain_sequence(self.rows, "gain table")))
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("gain table must be square")
        for i, row in enumerate(rows):
            for j, g in enumerate(row):
                check_gain(g, f"gain ({i + 1},{j + 1})")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def gain(self, i: int, j: int) -> ScalarFn:
        """Gain from component j onto component i (1-based int indices, each in 1..n)."""
        check_count("gain index i", i, least=None)
        check_count("gain index j", j, least=None)
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"gain index ({i!r}, {j!r}) lies outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def to_map(self) -> MonotoneMap:
        """Map ``(Ts)_i = max_j g_ij(s_j)``; the gains were checked at construction."""
        rows, n = self.rows, self.n

        def fn(s: np.ndarray) -> np.ndarray:
            return np.array([max(g(s[j]) for j, g in enumerate(row)) for row in rows])

        def jacobian(s: np.ndarray) -> np.ndarray:
            J = np.zeros((n, n))
            for i, row in enumerate(rows):
                j = max(range(n), key=lambda j: row[j](s[j]))  # the first active gain
                J[i, j] = row[j].derivative(s[j])
            return J

        return _proven(MonotoneMap(n, fn, "max-preserving"),
                       all(is_degree_one(g) for row in rows for g in row), jacobian)


def make_max_preserving(gains) -> MonotoneMap:
    """Map ``(Ts)_i = max_j g_ij(s_j)`` from an n-by-n table of gains.

    ``gains`` is a nested sequence whose entries may be ScalarFn
    instances, textual forms, or None for the zero gain.
    """
    return GainTable(gains).to_map()


def make_diagonal(fns: Sequence) -> MonotoneMap:
    """Componentwise map ``(Ds)_i = rho_i(s_i)`` from class-Kinf descriptors."""
    rhos = [coerce_gain(f) for f in _gain_sequence(fns, "diagonal functions")]
    if not rhos:
        raise ValueError("need at least one diagonal function")
    for i, rho in enumerate(rhos):
        check_kinf(rho, f"diagonal function {i + 1}")

    def fn(s: np.ndarray) -> np.ndarray:
        return np.array([rho(s[i]) for i, rho in enumerate(rhos)])

    def jacobian(s: np.ndarray) -> np.ndarray:
        return np.diag([rho.derivative(s[i]) for i, rho in enumerate(rhos)])

    return _proven(MonotoneMap(len(rhos), fn, "diagonal"), all(is_degree_one(rho) for rho in rhos),
                   jacobian)


def compose(*maps: MonotoneMap) -> MonotoneMap:
    """Composition ``s -> maps[0](maps[1](... maps[-1](s)))``, applied right to left.

    A non-finite intermediate value is returned as is, since the next map rejects it.
    Each part's ``fn`` is called, with its output checked as ``__call__``
    checks it, so that a part is never counted as an evaluation of its own.
    Its Jacobian is the chain rule's product when every part has one.
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
        J = np.eye(dims[0])
        with np.errstate(over="ignore", invalid="ignore"):  # the solver skips a non-finite J
            for m in reversed(maps):
                J = m.jacobian(s) @ J
                s = _output(m, s)
        return J

    return _proven(MonotoneMap(dims[0], fn, "composition"), all(m.homogeneous for m in maps),
                   jacobian if all(m.jacobian is not None for m in maps) else None)
