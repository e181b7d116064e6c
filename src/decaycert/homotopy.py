"""Search for decay points on the 1-norm sphere by simplicial pivoting.

``find_decay_point`` looks for a point ``s*`` with ``(Ts*)_i + eps <= s*_i``
in every component and ``|s*|_1 = r``.  It refines the sphere grid level
by level (mesh halving) and runs the door-in-door-out complete-cell
search of :mod:`decaycert.triangulation` at each level; every map
evaluation at a sphere point doubles as a direct certificate test, so the
solver returns the first evaluated point that decays with the required
margin.  The per-level complete cells have diameter proportional to
``r / 2^level``, which forces the candidate region to shrink to a point
when the direct test keeps failing; runs end honestly at the iteration
cap.

**Policy step.**  For a map homogeneous of degree one, a point s decays
with margin eps exactly when ``w = s/eps`` has ``T(w) + 1 <= w``.  So the
best margin on the sphere of radius r is ``eps_max = r/|w*|_1``, w* the
least solution of ``w = T(w) + 1``, and there is no decay point at all
where no solution exists (Gaubert & Gunawardena, "The Perron-Frobenius
theorem for homogeneous, monotone functions", *Trans. AMS* 356, 2004).
Every map flagged homogeneous (``MonotoneMap.homogeneous``: linear maps,
max-times tables with gains ``c t``, diagonals and compositions of such
maps) is also convex and piecewise linear: its components are maxima and
sums of ``c t``, composed.  So its Jacobian ``J(u) = T.jacobian(u)``, the
matrix of the linear piece active at u, has ``T(u) = J(u) u``, and
``T(v) >= J(u) v`` for all ``u, v >= 0``: a convex function lies above
its tangent, and a homogeneous one's tangent passes through 0.  That
inequality holds row by row, so it holds as well for a policy ``P``, a
matrix whose every row is a row of some ``J(u)``.  Homogeneity also
makes one sphere point decide: a sphere point p without a label at
slack eps proves that no point decays, for a decay point s and
``l = max p_i/s_i >= 1``, attained at j, ``p <= l s`` gives
``T(p)_j + eps <= l (s_j - eps) + eps <= p_j``.  The solver computes w*
from the policies, and tests one sphere point before the pre-phase:

* **the least solution, by policy iteration.**  From ``P = J(1)``, solve
  ``w = P w + 1``, then switch each row i to ``J(w)``'s row where
  ``(J(w) w)_i`` beats ``(P w)_i`` by more than rounding, until no row
  switches (Cochet-Terrasson, Cohen, Gaubert, McGettrick & Quadrat, IFAC
  1998).  While ``rho(P) < 1`` each solve is ``w = sum_k P^k 1 >= 1``,
  and each switch raises w: the new policy has ``P' w + 1 >= P w + 1 =
  w``, so its solution, where ``rho(P') < 1``, lies above w.  The rows of
  J take finitely many values and no policy recurs, so the iteration
  ends, and its last w solves ``w = J(w) w + 1 = T(w) + 1``.  It is the
  least solution: every solution u has ``u = T(u) + 1 >= P u + 1``, so
  ``u >= w`` for every policy with ``rho(P) < 1``.  Its sphere point
  ``p = r w/|w|_1`` has ``p - T(p) = (r/|w|_1) 1 = eps_max 1``, so its
  one test either certifies it (``eps <= eps_max``) or, having no label,
  ends the run in ``label_none`` there (``eps > eps_max``).
* **the Perron refutation.**  A solve that is singular, or has a
  component below 1 beyond rounding (a row of zeros solves to
  ``1 - 1 ulp``), proves ``rho(P) >= 1``, since ``rho(P) < 1`` would give
  ``w = sum_k P^k 1 >= 1``; a solve that is not finite is taken alike.
  For the Perron vector v of P (``linear.perron_direction``),
  ``T(v) >= P v = rho v >= v``, so v's sphere point p has
  ``T(p) + eps > p`` in every component, no label at any slack, and its
  one test ends the run in ``label_none``.

Both points are tested directly, like every other sphere point, so
rounding costs only speed: a point that neither certifies nor lacks a
label (eps within rounding of eps_max), a Perron vector that
``perron_direction`` refuses (where neither its eigenvector nor its
singular vector passes its residual bound), a Jacobian with a non-finite
entry, or a policy that recurs under rounding leave the run to the
sphere stage and the pre-phase below (only the memo may hold the tested
point).  A value of T at the point that is not finite ends the run as
``nonfinite`` there, as at every sphere point.  The policy step is the
only reader of the homogeneous flag: past it, every map is treated
alike, and the test of a new sphere point ends the run only where the
point certifies or T is not finite there.

**Sphere stage.**  Every run that the policy step leaves open (every map
not flagged homogeneous, and a homogeneous one only where rounding
defeats the step) first takes Newton steps on the sphere, from the
uniform point ``r 1/n``.  Each step solves the equal-margin system
``q = T(p) + J (q - p) + d 1``, ``1'q = 1'p = r``, for the point q and the
common margin d, one bordered ``(n+1) x (n+1)`` solve.  J is
``T.jacobian(p)`` where T's constructor proves one
(``MonotoneMap.jacobian``).  A map built from a callable has none, and J
is then formed from n forward differences ``(T(p + h_j e_j) - T(p))/h_j``
with ``h_j = 1e-6 max(p_j, 1e-3)`` (Kelley, *Solving Nonlinear Equations
with Newton's Method*, SIAM 2003, ch. 2).  Each difference is a counted
evaluation, against the cap like every other, but its point is not on
the sphere: it never enters the memo and is never a certificate.  A
decay point whose margin is the same in every component solves the
system at ``q = p``, so the steps home in on one as Newton's method does;
the monotone Newton iterations of Etessami & Yannakakis (*J. ACM* 56,
2009) and Esparza, Kiefer & Luttenberger (*J. ACM* 57, 2010) are the
model.  Where q leaves the open orthant, the step from p is cut to nine
tenths of the way to its boundary, and the point goes onto the sphere.
J only guides: every point the stage reaches is evaluated through the
memo, counted and tested directly, like every other sphere point, so a
poor J costs evaluations, never soundness.  The stage stops at the first
step whose margin ``min(p - T p)`` does not beat the best so far (the
evaluation cap bounds it too), and where no Newton point exists: J is
not finite (``t^0.5`` at a zero component), or the bordered system is
singular or its solution not finite.

**Pre-phase.**  A run the sphere stage leaves open goes through an
order-interval pre-phase.  It iterates ``w_0 = eps 1``,
``w_{k+1} = T(w_k) + eps 1``.  For monotone ``T`` the iterates never
decrease, and every decay point ``s`` with margin eps bounds them from
above (``s >= eps 1``, and ``w_k <= s`` gives
``w_{k+1} <= Ts + eps 1 <= s``; lattice fixed points, Tarski 1955).  Each
step costs one counted evaluation and stops at the first of two rules:

* **candidate**: ``(r/|w_k|_1) min(w_k - T w_k) >= eps (1 + 1e-9)``.  The
  point ``p = r w_k / |w_k|_1`` is tested once as a certificate.  For
  subhomogeneous ``T`` (``T(l s) <= l T(s)`` for ``l >= 1``: linear maps,
  max-times maps with linear gains; Lemmens & Nussbaum, *Nonlinear
  Perron-Frobenius Theory*, 2012) the bound proves that ``p`` passes; for
  linear ``T`` it is the optimum ``~ (I - A)^-1 1``.  If ``p`` fails (a map
  that is not subhomogeneous), the whole ladder below is walked.
* **no decay point**: ``|w_{k+1}|_1 > r (1 + 1e-9)``, so no sphere point
  lies above ``w_{k+1}``.  The last step ``d_k = w_{k+1} - w_k`` crosses
  the sphere at the box point ``q = w_k + t d_k``,
  ``t = (r - |w_k|_1)/|d_k|_1``.  If ``0 <= t < 1``,
  ``w_k <= q < w_{k+1} (1 - 1e-9)`` and ``|q|_1`` is within ``1e-9 r`` of
  r, monotonicity gives ``T(q) + eps >= T(w_k) + eps = w_{k+1} > q``: q
  has no label, and the run ends in ``label_none`` there without
  evaluating it.  Otherwise (a component whose last step is 0, or
  ``|w_k|_1 > r``) the point ``p = r w_{k+1} / |w_{k+1}|_1`` is evaluated.
  If it has no label the run ends in ``label_none`` there; for
  subhomogeneous ``T`` it never has one, since
  ``T(p) + eps >= l w_{k+1} + (1 - l) eps > p`` with
  ``l = r / |w_{k+1}|_1 < 1``.  Otherwise only the final rung is walked:
  every inflated rung is infeasible too.

Both are proofs, and no third rule is needed: bounded iterates converge,
so the candidate bound ``(r/|w_k|_1)(eps - max(w_{k+1} - w_k))`` tends to
``eps r/|w*|_1`` and fires once ``|w*|_1 < r/(1 + 1e-9)``; a larger limit,
or unbounded iterates, fire the norm rule.  Only a limit norm within
about ``1e-9 r`` of ``r`` runs to the cap.  Near the limit the iterates
crawl at the contraction rate (for linear ``T`` both rules need steps
growing like ``1/(1 - rho)``), which is why the sphere stage runs first.

The iterates and the differences are not sphere points and never enter
the memo, so only a sphere point that passed the direct margin test is
ever returned.

**The walk** (``_walk``) is the paper's method, and it runs last, on
the slack rungs that ``_pre_phase`` returns: the whole ladder below
after a failed candidate, only the final rung after a norm proof at a
point with a label.  ``find_decay_point`` is the three stages in order,
``_policy_step``, then ``_pre_phase`` with the sphere stage, then
``_walk``; each ends the search by raising ``_Finished``.

One practical subtlety drives the structure below.  Complete cells of
the slack-``d`` labeling contract onto points whose worst component
decays with margin exactly ``d``, so testing those candidates against
the *same* slack can only succeed through grid luck.  The solver instead
walks a descending ladder of labeling slacks, starting well above the
requested ``eps`` and ending exactly at it: a walk at inflated slack
``d > eps`` homes in on points of margin about ``d``, which pass the
``eps`` certificate with room to spare as soon as the mesh resolves the
difference.  When no point with an inflated-slack label exists along the
walk (the covering fails at that slack), the ladder steps down; the
final rung uses ``eps`` itself, so the failure modes of the plain method
are preserved verbatim.

Every rung's walk starts at level 2.  Level 1 has one cell, the whole
simplex, whose corners ``r e_i`` are never certificates (a corner's
components off the support are 0 and ``T >= 0``, so its margin is at
most 0 < eps) and whose barycentre ``r 1/n`` the sphere stage has tested.

Map evaluations are memoized across levels and rungs (a lattice point of
level L reappears at every finer level), so refinement never re-pays for
points it has already seen, and the direct certificate test runs once
per distinct point.  The memo is keyed by the bytes of the evaluated
point ``z * (r/m)``: the mesh ``m`` is a power of two, so a lattice point
scales to the same float at every level where it appears.  It stores
only the bytes of ``T(point)``; the point itself is recomputed from
``z`` on every lookup.  Each level's barycentre test goes through the
same memo, so a barycentre that is also a lattice point is evaluated
once, whichever of the two the solver meets first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .labeling import LabeledVertexSet, label_index
from .linear import perron_direction
from .maps import MonotoneMap
from .order import check_count, check_positive
from .triangulation import CompleteCellSearch

__all__ = [
    "SolverConfig",
    "SolveReport",
    "complete_subsets",
    "find_decay_point",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the decay-point search, checked once and then frozen."""

    r: float
    epsilon: float = 1e-2
    max_iterations: int = 1000

    def __post_init__(self):
        check_positive("r", self.r)
        check_positive("epsilon", self.epsilon)
        check_count("max_iterations", self.max_iterations)


@dataclass(eq=False)
class SolveReport:
    """Outcome of a decay-point search."""

    success: bool
    s_star: np.ndarray | None
    iterations: int
    margin: float | None = None
    failure_reason: str | None = None  # iteration_cap | label_none | nonfinite
    failure_point: np.ndarray | None = field(default=None, repr=False)


def complete_subsets(tau: LabeledVertexSet, n: int) -> list[LabeledVertexSet]:
    """All complete n-vertex subsets of an (n+1)-vertex set.

    A subset is complete when it carries each label 1..n exactly once.
    When every label is in 1..n, the door-in-door-out principle gives a
    result of length 0 or 2 (the test suite checks this exhaustively over
    all label assignments); a None label can leave one complete subset.
    """
    if len(tau) != n + 1:
        raise ValueError(f"expected {n + 1} vertices, got {len(tau)}")
    out = []
    for drop in range(n + 1):
        labels = tau.labels[:drop] + tau.labels[drop + 1:]
        if None not in labels and sorted(labels) == list(range(1, n + 1)):  # at most two drops
            out.append(LabeledVertexSet(tau.vertices[:drop] + tau.vertices[drop + 1:], labels))
    return out


class _Finished(Exception):
    """Ends the search with its final report, from wherever the map is evaluated."""

    def __init__(self, report: SolveReport):
        self.report = report


class _NoLabel(Exception):
    def __init__(self, point: np.ndarray):
        self.point = point


# Relative rounding allowance of the policy step and the pre-phase's proofs.
_ROUNDING = 1e-9


def _slack_ladder(eps: float, r: float, n: int) -> list[float]:
    """Descending labeling slacks, ratio sqrt(2), from ~r/(2n) down to eps.

    The componentwise margins of any sphere point sum to at most r, so no
    point decays with margin above r/n; starting the ladder at half that
    bound loses nothing.  The last rung is always exactly eps.
    """
    top = r / (2.0 * n)
    rungs = []
    j = 1
    while True:
        rung = math.ldexp(eps * 2.0 ** (j % 2 / 2.0), j // 2)  # eps 2^(j/2), without overflow
        if rung > top:
            break
        rungs.append(rung)
        j += 1
    rungs.reverse()
    rungs.append(eps)
    return rungs


def _box_point(w: np.ndarray, up: np.ndarray, step: np.ndarray, r: float) -> np.ndarray | None:
    """The point ``q = w + t step`` with ``|q|_1 = r``, if ``w <= q << up``; else None.

    Here ``up = T(w) + eps`` and ``step = up - w``.  For monotone T such a
    point has no label at slack eps: ``T(q) + eps >= T(w) + eps = up > q``.
    """
    gap = r - float(np.sum(w))
    if gap < 0.0:
        return None
    t = gap / float(np.sum(step))
    q = w + t * step
    if (t < 1.0 and np.all(w <= q) and np.all(q < up * (1.0 - _ROUNDING))
            and abs(float(np.sum(q)) - r) <= _ROUNDING * r):
        return q
    return None


class _Evaluator:
    """``T`` behind the memo, the evaluation counter and the cap.

    Every sphere point is evaluated through ``__call__``, which ends the
    search by raising ``_Finished`` at the cap, at a value that is not
    finite, and at a new point that passes the certificate test.  The
    pre-phase's iterates and the sphere stage's differences, which are not
    sphere points, go through ``call`` alone (the iterates also through
    ``margin``).
    """

    def __init__(self, T: MonotoneMap, cfg: SolverConfig):
        self.T = T
        self.r = cfg.r
        self.eps = cfg.epsilon
        self.cap = cfg.max_iterations
        self.count = 0
        self.memo: dict[bytes, bytes] = {}  # point.tobytes() -> T(point).tobytes()

    def end(self, reason: str | None, point: np.ndarray | None = None,
            margin: float | None = None) -> _Finished:
        """The end of the search: ``s* = point`` where ``reason`` is None, else a failure."""
        if reason is None:
            s_star = np.array(point)
            s_star.flags.writeable = False
            return _Finished(SolveReport(True, s_star, self.count, margin=margin))
        return _Finished(SolveReport(False, None, self.count, failure_reason=reason,
                                     failure_point=point))

    def call(self, point: np.ndarray) -> np.ndarray:
        """``T(point)``, counted against the cap."""
        if self.count >= self.cap:
            raise self.end("iteration_cap")
        self.count += 1
        return self.T(point)

    def margin(self, point: np.ndarray, value: np.ndarray) -> float:
        """``min(point - value)``; a value that is not finite ends the search at ``point``."""
        margin = float(np.min(point - value))
        if not math.isfinite(margin):  # NaN or +inf in value; point is finite
            raise self.end("nonfinite", point)
        return margin

    def __call__(self, point: np.ndarray) -> np.ndarray:
        """``T(point)`` at a sphere point: from the memo, or counted, tested and memoized."""
        cached = self.memo.get(point.tobytes())
        if cached is not None:
            return np.frombuffer(cached)
        value = self.call(point)
        margin = self.margin(point, value)
        if margin >= self.eps:
            raise self.end(None, point, margin)
        self.memo[point.tobytes()] = value.tobytes()
        return value


def _on_sphere(v: np.ndarray, r: float) -> np.ndarray:
    """``v`` scaled to 1-norm r, through ``max(v)``, so that a huge ``v`` cannot overflow."""
    v = v / float(np.max(v))
    return v * (r / float(np.sum(v)))


def _newton_point(ev: _Evaluator, p: np.ndarray, Tp: np.ndarray) -> np.ndarray | None:
    """The sphere stage's Newton point from the sphere point p, ``Tp = T(p)``, or None.

    It solves the equal-margin system ``q = T(p) + J (q - p) + d 1``,
    ``1'q = 1'p``, for q and the margin d, damps the step toward p so that
    q stays in the open orthant, and returns q on the sphere.  J is ``T.jacobian(p)`` where T's
    constructor proved one, and else n forward differences
    ``(T(p + h_j e_j) - T(p))/h_j``, ``h_j = 1e-6 max(p_j, 1e-3)``, each a
    counted ``ev.call`` that is neither memoized nor tested.  None where J
    is not finite, or the bordered system is singular or its solution not
    finite.
    """
    n = len(p)
    if ev.T.jacobian is None:
        h = 1e-6 * np.maximum(p, 1e-3)
        J = np.column_stack([ev.call(p + step) - Tp for step in np.diag(h)]) / h
    else:
        J = ev.T.jacobian(p)
    if not np.all(np.isfinite(J)):
        return None
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = np.eye(n) - J
    bordered[:n, n] = -1.0
    bordered[n, :n] = 1.0
    try:
        q = np.linalg.solve(bordered, np.append(Tp - J @ p, np.sum(p)))[:n]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(q)):
        return None
    step = q - p
    down = step < 0.0
    # at most nine tenths of the way to the boundary, in each component that decreases
    reach = float(np.min(p[down] / -step[down], initial=math.inf))
    return _on_sphere(p + min(1.0, 0.9 * reach) * step, ev.r)


def _policy_point(T: MonotoneMap) -> np.ndarray | None:
    """The vector whose sphere point the policy step tests, by policy iteration on ``T.jacobian``.

    That is the least solution w* of ``w = T(w) + 1``, or where there is
    none the Perron vector of a policy matrix of spectral radius at least
    one; None where rounding, a Perron vector that ``perron_direction``
    refuses or a Jacobian with a non-finite entry leaves neither.  The
    proofs are in the module docstring.
    """
    n = T.dimension
    P = T.jacobian(np.ones(n))
    seen = set()
    # a repeat is rounding: no policy recurs otherwise
    while np.all(np.isfinite(P)) and P.tobytes() not in seen:
        seen.add(P.tobytes())
        try:
            w = np.linalg.solve(np.eye(n) - P, np.ones(n))
        except np.linalg.LinAlgError:
            w = None
        # a row of zeros solves to 1 - 1 ulp, so "below 1" allows for rounding
        if w is None or not np.all(np.isfinite(w)) or np.any(w < 1.0 - _ROUNDING):
            try:
                return perron_direction(P)
            except ValueError:  # no vector passes its residual check
                return None
        J = T.jacobian(w)
        better = J @ w > (P @ w) * (1.0 + _ROUNDING)
        if not better.any():
            return w
        P = np.where(better[:, None], J, P)
    return None


def _policy_step(ev: _Evaluator) -> None:
    """The policy step of a homogeneous T: test the sphere point that policy iteration names, once.

    Ends the search through ``ev`` where that point certifies, has no
    label or has a value that is not finite, and else returns, for the
    sphere stage and the pre-phase to run.
    """
    v = _policy_point(ev.T) if ev.T.homogeneous else None
    if v is None:
        return
    p = _on_sphere(v, ev.r)
    if label_index(p, ev(p), ev.eps) is None:  # by homogeneity, no point decays
        raise ev.end("label_none", p)


def _pre_phase(ev: _Evaluator) -> list[float]:
    """The sphere stage, then the order-interval pre-phase; the slack rungs left to walk.

    The sphere stage takes Newton steps from the uniform point ``r 1/n``
    for as long as the margin grows.  The pre-phase then either ends the
    search through ``ev`` or returns the rungs of ``_slack_ladder`` that
    the walk must still try.  Their rules and proofs are in the module
    docstring.
    """
    r, eps, n = ev.r, ev.eps, ev.T.dimension
    p, best = np.full(n, r / n), -math.inf
    while p is not None:
        Tp = ev(p)
        margin = float(np.min(p - Tp))
        if margin <= best:
            break
        best = margin
        p = _newton_point(ev, p, Tp)
    w = np.full(n, eps)
    while True:
        Tw = ev.call(w)
        margin = ev.margin(w, Tw)
        if (r / float(np.sum(w))) * margin >= eps * (1.0 + _ROUNDING):  # the candidate
            ev(_on_sphere(w, r))
            return _slack_ladder(eps, r, n)
        up = Tw + eps
        if float(np.sum(up)) > r * (1.0 + _ROUNDING):  # no decay point exists
            p = _box_point(w, up, up - w, r)
            if p is None:
                p = _on_sphere(up, r)
                if label_index(p, ev(p), eps) is not None:
                    return [eps]
            raise ev.end("label_none", p)
        w = up


def _walk(ev: _Evaluator, rungs: list[float]) -> None:
    """The refining simplicial walk over the labeling slacks ``rungs``, the last of them eps.

    Ends the search through ``ev``: where a point certifies, at the cap,
    at a value that is not finite, or where the covering fails at the
    final rung.  A rung whose covering fails at an inflated slack steps
    down to the next.
    """
    r, n = ev.r, ev.T.dimension
    for slack in rungs:
        try:
            m = 2
            while True:
                scale = r / m

                def label_of(z: tuple[int, ...]) -> int:
                    point = np.asarray(z, dtype=float) * scale
                    label = label_index(point, ev(point), slack)
                    if label is None:
                        raise _NoLabel(point)
                    return label

                verts = CompleteCellSearch(m, n, label_of).find()
                ev(np.asarray(verts, dtype=float).mean(axis=0) * scale)
                m *= 2
        except _NoLabel as miss:
            if slack == ev.eps:
                raise ev.end("label_none", miss.point)


def find_decay_point(T: MonotoneMap, cfg: SolverConfig, n: int) -> SolveReport:
    """Search the sphere of radius ``cfg.r`` for a point with ``Ts << s``.

    On success, ``s_star`` satisfies ``(Ts*)_i + eps <= s*_i`` for all i and
    lies on the sphere to within ``1e-9 * r``.  A failure is named
    ``iteration_cap`` (``max_iterations`` evaluations spent),
    ``label_none`` (``failure_point`` has no label at slack eps) or
    ``nonfinite`` (T is not finite at ``failure_point``).  The policy step,
    the pre-phase, the ladder and their proofs are described in the
    module docstring.
    """
    check_count("n", n, least=2)
    if T.dimension != n:
        raise ValueError(f"map has dimension {T.dimension}, expected {n}")
    ev = _Evaluator(T, cfg)
    try:
        # an overflow in T or in the pre-phase is named by the finiteness checks
        with np.errstate(over="ignore"):
            _policy_step(ev)
            _walk(ev, _pre_phase(ev))
    except _Finished as finished:
        return finished.report
    raise AssertionError("slack ladder ended without a rung at eps")  # pragma: no cover
