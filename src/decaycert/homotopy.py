"""Search for decay points on the 1-norm sphere by simplicial pivoting.

``find_decay_point`` looks for a point ``s*`` with ``min(s* - Ts*) >= eps``
and ``|s*|_1 = r``.  It refines the sphere grid level
by level (mesh halving) and runs the door-in-door-out complete-cell
search of :mod:`decaycert.triangulation` at each level; every map
evaluation at a sphere point doubles as a direct certificate test, so the
solver returns the first evaluated point that decays with the required
margin.  The per-level complete cells have diameter proportional to
``r / 2^level``, which forces the candidate region to shrink to a point
when the direct test keeps failing; runs end honestly at the iteration
cap.

**Policy step.**  For a map homogeneous of degree one, a point s decays
with margin eps exactly when ``w = s/eps`` has ``w - T(w) >= 1``.  So the
best margin on the sphere of radius r is ``eps_max = r/|w*|_1``, w* the
least solution of ``w = T(w) + 1``, and there is no decay point at all
where no solution exists (Gaubert & Gunawardena, "The Perron-Frobenius
theorem for homogeneous, monotone functions", *Trans. AMS* 356, 2004).
The step runs on every map of degree ``(1, 1)`` (``MonotoneMap.degree``).
Linear maps, max and sum tables and diagonals with gains ``c t``, and
compositions of such maps, are also convex and piecewise linear: their
components are maxima and sums of ``c t``, composed.  So such a map's
Jacobian ``J(u) = T.jacobian(u)``, the matrix of the linear piece active
at u, has ``T(u) = J(u) u``, and ``T(v) >= J(u) v`` for all
``u, v >= 0``: a convex function lies above its tangent, and a
homogeneous one's tangent passes through 0.  That inequality holds row
by row, so it holds as well for a policy ``P``, a matrix whose every row
is a row of some ``J(u)``.  Homogeneity alone makes one sphere point
decide, convex or not: a sphere point p without a label at slack eps
proves that no point decays, for a decay point s and
``l = max p_i/s_i >= 1``, attained at j, ``p <= l s`` gives
``p_j - T(p)_j >= l s_j - l (s_j - eps) = l eps >= eps``, since
``T(p) <= T(l s) <= l T(s)``.  The solver computes w* from the policies,
and tests one sphere point before the pre-phase:

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
  ``p - T(p) <= 0 < eps`` in every component, exactly in floating point:
  no label at any slack, and its one test ends the run in
  ``label_none``.

Both points are tested directly, like every other sphere point, so
rounding costs only speed: a point that neither certifies nor lacks a
label (eps within rounding of eps_max), a Perron vector that
``perron_direction`` refuses (where neither its eigenvector nor its
singular vector passes its residual bound), a Jacobian with a non-finite
entry, or a policy that recurs under rounding leave the run to the
sphere stage and the pre-phase below (only the memo may hold the tested
point).  So does a composition whose degree is ``(1, 1)`` only as a
product of other ends, such as ``diag(t^2) o A o diag(t^0.5)``, which is
homogeneous but neither convex nor piecewise linear: where its point
neither certifies nor lacks a label, the run goes on.  A value of T at
the point that is not finite ends the run as ``nonfinite`` there, as at
every sphere point.  The policy step is the only reader of the degree:
past it, every map is treated alike, and the test of a new sphere point
ends the run only where the point certifies or T is not finite there.

**Sphere stage.**  Every run that the policy step leaves open (every map
whose degree is not ``(1, 1)``, and a degree-one map only where rounding
or its shape defeats the step) first takes Newton steps on the sphere,
from the uniform point ``r 1/n``.  At each new best point p the stage
forms ``J = J(p)``: ``T.jacobian(p)`` where T's constructor proves one
(``MonotoneMap.jacobian``).  A map built from a callable has none, and J
is then formed from n forward differences ``(T(p + h_j e_j) - T(p))/h_j``
with ``h_j = 1e-6 max(p_j, 1e-3)`` (Kelley, *Solving Nonlinear Equations
with Newton's Method*, SIAM 2003, ch. 2).  Each difference is a counted
evaluation, against the cap like every other, but its point is not on
the sphere: it never enters the memo and is never a certificate.  From
``T(p)`` and J, ``_newton_point`` fits a model M of T and solves the
equal-margin system ``q = M(q) + d 1``, ``1'q = 1'p = r``, for the point
q and the common margin d; it evaluates no T.

The model is one power per row.  Row i has the local degree
``k_i = (J p)_i / T(p)_i``, Euler's ratio (1 where it is not finite or
not positive), and ``M_i(q) = T(p)_i + sum_j (J_ij p_j / k_i)((q_j/p_j)^k_i - 1)``.
M matches T and J at p, and it is T itself for every row of the form
``sum_j c_ij s_j^a_i``, whose Euler ratio is ``a_i``: linear rows (where
``k_i = 1`` makes M the affine model ``T(p) + J (q - p)``), ``A s^a``,
diagonal and flip-flop rows, and a max-times row on its active piece.
Such a map lands on its equal-margin point in one step.  Power terms are
straight lines in log-log coordinates (Boyd, Kim, Vandenberghe & Hassibi,
"A tutorial on geometric programming", *Optim. Eng.* 8, 2007), so the
system is solved by Newton's method in ``y = log q`` from ``log p``, and
``q = exp(y)`` stays in the open orthant.  Each inner step is one
bordered ``(n+1) x (n+1)`` solve; a log-step is capped at 1, and the
solve stops once the residual is at most ``1e-13 r``, where p already
solves the model at ``q = exp(log p)``, p to rounding.  The first inner
step, at that q, is the affine model's: its bordered system is that of
``q = T(p) + J (q - p) + d 1``, ``1'q = 1'p``, scaled by ``diag(p)``, so
its log-step dy gives the affine solution ``p (1 + dy)``, and the step
keeps it.  Where 50 inner steps do not get there, or a later solve is
singular or not finite (an overflow of ``(q_j/p_j)^k_i`` included), the
model has no usable positive solution (a max-times table whose active
policy P has ``(I - P)^-1 1`` of mixed signs, say).  The step then falls
back to the affine solution, its step from p cut, where it leaves the
open orthant, to nine tenths of the way to the boundary.  Either point
goes onto the sphere.  There is no Newton point where the first solve is
singular or its solution not finite, and where J has an entry that is
not finite (``t^0.5`` at a zero component): the model's first residual
is then NaN.

A decay point whose margin is the same in every component solves the
system at ``q = p``, so the steps home in on one as Newton's method does;
the monotone Newton iterations of Etessami & Yannakakis (*J. ACM* 56,
2009) and Esparza, Kiefer & Luttenberger (*J. ACM* 57, 2010) are its
precedent.  M and J only guide: every point the stage reaches is evaluated
through the memo, counted and tested directly, like every other sphere
point, so a poor fit costs evaluations, never soundness.  The stage
stops where no Newton point exists, at the first point whose margin
``min(p - T p)`` does not beat the best so far, and at the first whose
gain over it is at most the rounding allowance ``1e-9 r`` while eps lies
more than that above its margin: steps that gain within rounding do not
close a larger gap, and each costs an evaluation, n + 1 for a map built
from a callable.  Where eps lies within rounding of the margin, such a
gain can still reach it, and the stage steps on (near ``eps_max``, where
rounding defeats the policy step, that is what certifies).  The
evaluation cap bounds the stage too.  Where the best point it reached
has no label at eps (``p_i - T(p)_i < eps`` in every component), the
stage ends the run in ``label_none`` there: a directly checked sphere
point without a label, of the kind the walk's final rung ends on.  Like
that one, it names a point, not a proof: a map that is not convex may
still have a decay point elsewhere.

**Pre-phase.**  A run the sphere stage leaves open, one whose best point
has a label, goes through an order-interval pre-phase.  It iterates
``w_0 = eps 1``, ``w_{k+1} = T(w_k) + eps 1``.  For monotone ``T`` the
iterates never decrease, and every decay point ``s`` with margin eps
bounds them from above (``s >= eps 1``, and ``w_k <= s`` gives
``w_{k+1} <= Ts + eps 1 <= s``; lattice fixed points, Tarski 1955).  Each
step costs one counted evaluation and stops at the first of two rules:

* **candidate**: ``(r/|w_k|_1) min(w_k - T w_k) >= eps (1 + 1e-9)``.  The
  point ``p = r w_k / |w_k|_1`` is tested once as a certificate.  For
  subhomogeneous ``T`` (``T(l s) <= l T(s)`` for ``l >= 1``: every map
  whose ``MonotoneMap.degree`` has ``hi <= 1``; Lemmens & Nussbaum,
  *Nonlinear Perron-Frobenius Theory*, 2012) the bound proves that ``p``
  passes; for linear ``T`` it is the optimum ``~ (I - A)^-1 1``.  If ``p``
  fails (a map that is not subhomogeneous), the walk runs.
* **no decay point**: ``|w_{k+1}|_1 > r (1 + 1e-9)``, so no sphere point
  lies above ``w_{k+1}``.  The last step ``d_k = w_{k+1} - w_k`` crosses
  the sphere at the box point ``q = w_k + t d_k``,
  ``t = (r - |w_k|_1)/|d_k|_1``.  If ``0 <= t < 1``,
  ``w_k <= q < w_{k+1} (1 - 1e-9)`` and ``|q|_1`` is within ``1e-9 r`` of
  r, monotonicity gives ``q - T(q) <= q - T(w_k) < w_{k+1} - T(w_k) =
  eps``, the allowance ``1e-9`` covering the rounding of ``w_{k+1}``: q
  has no label, and the run ends in ``label_none`` there without
  evaluating it.  Otherwise (a component whose last step is 0, or
  ``|w_k|_1 > r``) the point ``p = r w_{k+1} / |w_{k+1}|_1`` is evaluated.
  If it has no label the run ends in ``label_none`` there; for
  subhomogeneous ``T`` it never has one, since
  ``p - T(p) <= l w_{k+1} - l T(w_k) = l eps < eps`` with
  ``l = r / |w_{k+1}|_1 < 1``.  Otherwise the walk runs; as no point
  certifies, it ends in ``label_none`` or at the cap.

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

**The walk** (``_walk``) is the paper's method, and it runs last,
always down the whole slack ladder below.  ``find_decay_point`` is the
four stages in order, ``_policy_step``, ``_sphere_stage``, ``_pre_phase``
and ``_walk``; each ends the search by raising ``_Finished``, or hands
the run on to the next.  Every label a stage reads goes through
``_Evaluator.label``, which ends the run in ``label_none`` at a sphere
point without a label at eps; only the pre-phase's box point ends there
unevaluated.

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

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .labeling import label_index
from .linear import perron_direction
from .maps import MonotoneMap
from .order import check_count, check_positive
from .triangulation import CompleteCellSearch

__all__ = [
    "SolverConfig",
    "SolveReport",
    "check_sphere",
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


class _Finished(Exception):
    """Ends the search with its final report, from wherever the map is evaluated."""

    def __init__(self, report: SolveReport):
        self.report = report


class _NoLabel(Exception):
    """A sphere point without a label at an inflated slack: the walk steps down a rung."""


# Relative rounding allowance of the policy step, the sphere stage's stop and the
# pre-phase's proofs.
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


def _box_point(w: np.ndarray, up: np.ndarray, r: float) -> np.ndarray | None:
    """The point ``q = w + t (up - w)`` with ``|q|_1 = r``, if ``w <= q << up``; else None.

    Here ``up = T(w) + eps``; the step is ``up - w``.  For monotone T such a
    point has no label at slack eps: ``q - T(q) <= q - T(w) < up - T(w)``,
    which is eps up to the rounding of ``up`` that ``q << up`` allows for,
    so ``q - T(q) < eps`` holds through the ``1e-9`` allowance.
    """
    gap = r - float(np.sum(w))
    if gap < 0.0:
        return None
    step = up - w
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
    finite, and at a new point that passes the certificate test; every
    label is read through ``label``, which also ends it at a point without
    a label at eps.  The pre-phase's iterates and the sphere stage's
    differences, which are not sphere points, go through ``call`` alone
    (the iterates also through ``margin``).
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

    def label(self, point: np.ndarray, slack: float) -> int:
        """The label of the sphere point ``point`` at ``slack``, from ``T(point)`` by ``__call__``.

        A point without one ends the search in ``label_none`` there at
        slack eps, and raises ``_NoLabel`` at an inflated slack.
        """
        label = label_index(point, self(point), slack)
        if label is None:
            raise self.end("label_none", point) if slack == self.eps else _NoLabel()
        return label


def _on_sphere(v: np.ndarray, r: float) -> np.ndarray:
    """``v`` scaled to 1-norm r, through ``max(v)``, so that a huge ``v`` cannot overflow."""
    v = v / float(np.max(v))
    return v * (r / float(np.sum(v)))


def _newton_point(J: np.ndarray, p: np.ndarray, Tp: np.ndarray, r: float) -> np.ndarray | None:
    """The sphere stage's Newton point from the sphere point p, ``Tp = T(p)`` and ``J = J(p)``.

    Row i of the model is ``M_i(q) = T(p)_i + sum_j (J_ij p_j / k_i)((q_j/p_j)^k_i - 1)``
    with ``k_i = (J p)_i / T(p)_i`` (1 where that is not finite or not
    positive).  Newton's method in ``y = log q`` from ``log p`` solves
    ``q = M(q) + d 1``, ``1'q = 1'p``, each step one bordered solve capped
    at a log-step of 1.  The first solve, at ``q = p`` (to rounding), is
    the affine system ``q = T(p) + J (q - p) + d 1``, ``1'q = 1'p`` scaled
    by ``diag(p)``, so its step dy gives the affine solution ``p (1 + dy)``.
    The point is the model's solution where the steps reach a residual of
    at most ``1e-13 1'p`` within 50 solves (``exp(log p)`` where p already
    solves the model).  Where a later solve is singular or not finite, or
    50 do not get there, it is the affine solution, its step cut to nine
    tenths of the way to the orthant's boundary.  Either goes onto the
    sphere of radius r.  None where the first residual is not finite (J
    has an entry that is not finite) or the first solve is singular or not
    finite.  Evaluates no T.
    """
    n, norm = len(p), float(np.sum(p))  # r to rounding; the model keeps 1'q = 1'p
    system = np.zeros((n + 1, n + 1))
    system[:n, n] = -1.0
    residual = np.zeros(n + 1)
    dy = None
    # an overflow or a 0/0 leaves a value that is not finite, and the affine point is taken
    with np.errstate(all="ignore"):
        y, d = np.log(p), 0.0
        k = (J @ p) / Tp
        k = np.where(np.isfinite(k) & (k > 0.0), k, 1.0)
        weights = J * p  # J_ij p_j
        for _ in range(50):
            q = np.exp(y)
            # (q_j/p_j)^k_i, and 0 where row i has no term in q_j
            terms = np.where(weights != 0.0, weights * (q / p) ** k[:, None], 0.0)
            residual[:n] = q - Tp - (terms - weights).sum(axis=1) / k - d
            residual[n] = np.sum(q) - norm
            error = float(np.max(np.abs(residual)))  # not finite where any entry is not
            if not math.isfinite(error):
                break
            if error <= 1e-13 * norm:
                return _on_sphere(q, r)
            system[:n, :n] = np.diag(q) - terms
            system[n, :n] = q
            try:
                step = np.linalg.solve(system, -residual)
            except np.linalg.LinAlgError:
                break
            if dy is None:
                dy = step[:n]
                if not np.all(np.isfinite(p * (1.0 + dy))):
                    return None
            step = step / max(1.0, float(np.max(np.abs(step[:n]))))
            y, d = y + step[:n], d + step[n]
    if dy is None:
        return None
    # p (1 + t dy): t = 1, or nine tenths of the way to where a component reaches 0
    return _on_sphere(p * (1.0 + min(1.0, 0.9 / max(-float(np.min(dy)), 0.9)) * dy), r)


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
    """The policy step of a degree-one T: test the sphere point that policy iteration names, once.

    Ends the search through ``ev`` where that point certifies, has no
    label (by homogeneity, then no point decays) or has a value that is
    not finite, and else returns, for the sphere stage to run.
    """
    v = _policy_point(ev.T) if ev.T.degree == (1.0, 1.0) else None
    if v is not None:
        ev.label(_on_sphere(v, ev.r), ev.eps)


def _sphere_stage(ev: _Evaluator) -> None:
    """The sphere stage: Newton steps from the uniform point ``r 1/n`` while the margin grows.

    Each step forms J at the new best point p: ``T.jacobian(p)`` where T's
    constructor proved one, and else n forward differences
    ``(T(p + h_j e_j) - T(p))/h_j``, ``h_j = 1e-6 max(p_j, 1e-3)``, each a
    counted ``ev.call`` that is neither memoized nor tested; the step goes
    to ``_newton_point(J, p, T(p), r)``.  The stage stops where there is no
    Newton point, at a point whose margin does not beat the best, and at a
    new best point whose gain is at most ``_ROUNDING r`` while eps lies
    more than that above its margin.  Ends the search through ``ev`` where
    a point certifies, at the cap, at a value that is not finite, and in
    ``label_none`` where the best point it reached has no label at eps;
    else returns, for the pre-phase to run.
    """
    T, r = ev.T, ev.r
    p, best, best_margin = np.full(T.dimension, r / T.dimension), None, -math.inf
    while p is not None:
        Tp = ev(p)
        margin = float(np.min(p - Tp))
        if margin <= best_margin:
            break
        gain, best, best_margin = margin - best_margin, p, margin
        if gain <= _ROUNDING * r < ev.eps - margin:  # a gain within rounding, and eps beyond it
            break
        if T.jacobian is None:
            h = 1e-6 * np.maximum(p, 1e-3)
            J = np.column_stack([ev.call(p + step) - Tp for step in np.diag(h)]) / h
        else:
            J = T.jacobian(p)
        p = _newton_point(J, p, Tp, r)
    ev.label(best, ev.eps)


def _pre_phase(ev: _Evaluator) -> None:
    """The order-interval pre-phase: it ends the search through ``ev``, or returns for the walk.

    Its rules and proofs are in the module docstring.
    """
    r, eps = ev.r, ev.eps
    w = np.full(ev.T.dimension, eps)
    while True:
        Tw = ev.call(w)
        margin = ev.margin(w, Tw)
        if (r / float(np.sum(w))) * margin >= eps * (1.0 + _ROUNDING):  # the candidate
            ev(_on_sphere(w, r))
            return
        up = Tw + eps
        if float(np.sum(up)) > r * (1.0 + _ROUNDING):  # no decay point exists
            p = _box_point(w, up, r)
            if p is not None:
                raise ev.end("label_none", p)
            ev.label(_on_sphere(up, r), eps)
            return
        w = up


def _walk(ev: _Evaluator) -> None:
    """The refining simplicial walk down the whole slack ladder, ``_slack_ladder(eps, r, n)``.

    Ends the search through ``ev``: where a point certifies, at the cap,
    at a value that is not finite, or at a point without a label at the
    final rung, eps.  A point without a label at an inflated slack steps
    down to the next rung.
    """
    r, n = ev.r, ev.T.dimension
    for slack in _slack_ladder(ev.eps, r, n):
        with contextlib.suppress(_NoLabel):
            m = 2
            while True:
                scale = r / m

                def label_of(z: tuple[int, ...]) -> int:
                    return ev.label(np.asarray(z, dtype=float) * scale, slack)

                verts = CompleteCellSearch(m, n, label_of).find()
                ev(np.asarray(verts, dtype=float).mean(axis=0) * scale)
                m *= 2


def check_sphere(r: float, n: int, name: str = "n") -> None:
    """ValueError unless the solver can search dimension ``n`` at radius ``r``.

    ``n``, called ``name`` in the message, must be an int >= 2, and ``r/n``
    must not underflow to 0: the uniform sphere point would be the origin,
    off the sphere.  ``r`` is a checked radius (``SolverConfig``).
    """
    check_count(name, n, least=2)
    if r / n == 0.0:
        raise ValueError(f"r = {r!r} is too small for dimension {n}: r/n underflows to 0")


def find_decay_point(T: MonotoneMap, cfg: SolverConfig, n: int) -> SolveReport:
    """Search the sphere of radius ``cfg.r`` for a point with ``Ts << s``.

    On success, ``s_star`` passes the certificate test ``min(s* - Ts*) >=
    eps`` as computed in floating point (``margin`` is that minimum) and
    lies on the sphere to within ``1e-9 * r``; a label reads the same
    difference, so ``s*`` carries a label at eps in every component.  A
    failure is named
    ``iteration_cap`` (``max_iterations`` evaluations spent),
    ``label_none`` (``failure_point`` has no label at slack eps) or
    ``nonfinite`` (T is not finite at ``failure_point``).  The policy step,
    the sphere stage, the pre-phase, the ladder and their proofs are
    described in the module docstring.
    """
    check_sphere(cfg.r, n)
    if T.dimension != n:
        raise ValueError(f"map has dimension {T.dimension}, expected {n}")
    ev = _Evaluator(T, cfg)
    try:
        # an overflow in T or in the pre-phase is named by the finiteness checks
        with np.errstate(over="ignore"):
            _policy_step(ev)
            _sphere_stage(ev)
            _pre_phase(ev)
            _walk(ev)
    except _Finished as finished:
        return finished.report
    raise AssertionError("slack ladder ended without a rung at eps")  # pragma: no cover
