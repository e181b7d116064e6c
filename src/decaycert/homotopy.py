"""Search for decay points on the 1-norm sphere by simplicial pivoting.

``find_decay_point`` looks for a point ``s*`` with ``(Ts*)_i + eps <= s*_i``
in every component and ``|s*|_1 = r``.  It refines the sphere grid level
by level (mesh halving) and runs the door-in-door-out complete-cell
search of :mod:`decaycert.triangulation` at each level; every map
evaluation doubles as a direct certificate test, so the solver returns
the first evaluated point that decays with the required margin.  The
per-level complete cells have diameter proportional to ``r / 2^level``,
which forces the candidate region to shrink to a point when the direct
test keeps failing; runs end honestly at the iteration cap.

Before any walk, an order-interval pre-phase iterates ``w_0 = eps 1``,
``w_{k+1} = T(w_k) + eps 1``.  For monotone ``T`` the iterates never
decrease, and every decay point ``s`` with margin eps bounds them from
above (``s >= eps 1``, and ``w_k <= s`` gives
``w_{k+1} <= Ts + eps 1 <= s``; lattice fixed points, Tarski 1955).  Each
step costs one counted evaluation and stops at the first of three rules:

* **candidate**: ``(r/|w_k|_1) min(w_k - T w_k) >= eps (1 + 1e-9)``.  The
  point ``p = r w_k / |w_k|_1`` is tested once as a certificate.  For
  subhomogeneous ``T`` (``T(l s) <= l T(s)`` for ``l >= 1``: linear maps,
  max-times maps with linear gains; Lemmens & Nussbaum, *Nonlinear
  Perron-Frobenius Theory*, 2012) the bound proves that ``p`` passes; for
  linear ``T`` it is the optimum ``~ (I - A)^-1 1``.  If ``p`` fails (a map
  that is not subhomogeneous), the whole ladder below is walked.
* **no decay point**: ``|w_{k+1}|_1 > r (1 + 1e-9)``, so no sphere point
  lies above ``w_{k+1}``.  If ``p = r w_{k+1} / |w_{k+1}|_1`` has no label
  the run ends in ``label_none`` there; for subhomogeneous ``T`` it never
  has one, since ``T(p) + eps >= l w_{k+1} + (1 - l) eps > p`` with
  ``l = r / |w_{k+1}|_1 < 1``.  Otherwise only the final rung is walked:
  every inflated rung is infeasible too.
* **converged**: ``|w_{k+1} - w_k|_1 <= 1e-3 |w_{k+1}|_1``.  The newest
  iterate scaled to the sphere is tested once; if it fails, the whole
  ladder below is walked.

The iterates are not sphere points and never enter the memo, so only a
sphere point that passed the direct margin test is ever returned.

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

from .labeling import LabeledVertexSet, is_complete, label_index
from .maps import MonotoneMap
from .triangulation import CompleteCellSearch

__all__ = [
    "SolverConfig",
    "SolveReport",
    "complete_subsets",
    "find_decay_point",
]


@dataclass
class SolverConfig:
    """Tunables of the decay-point search."""

    r: float
    epsilon: float = 1e-2
    max_iterations: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, int):
            raise ValueError(f"max_iterations must be an int, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(eq=False)
class SolveReport:
    """Outcome of a decay-point search."""

    success: bool
    s_star: np.ndarray | None
    iterations: int
    margin: float | None = None
    failure_reason: str | None = None  # iteration_cap | label_none | nonfinite | not_applicable
    failure_point: np.ndarray | None = field(default=None, repr=False)


def complete_subsets(tau: LabeledVertexSet, n: int) -> list[LabeledVertexSet]:
    """All complete n-vertex subsets of an (n+1)-vertex set.

    By the door-in-door-out principle the result always has length 0 or 2
    (the test suite checks this exhaustively over all label assignments).
    """
    if len(tau) != n + 1:
        raise ValueError(f"expected {n + 1} vertices, got {len(tau)}")
    out = []
    for drop in range(n + 1):
        candidate = LabeledVertexSet(
            [v for p, v in enumerate(tau.vertices) if p != drop],
            [lab for p, lab in enumerate(tau.labels) if p != drop],
        )
        if is_complete(candidate, n):
            out.append(candidate)
    return out


class _Finished(Exception):
    """Ends the search with its final report, from wherever the map is evaluated."""

    def __init__(self, report: SolveReport):
        self.report = report


class _NoLabel(Exception):
    def __init__(self, point: np.ndarray):
        self.point = point


# Relative rounding allowance of the pre-phase's two proofs, and its convergence test.
_ROUNDING = 1e-9
_CONVERGED = 1e-3


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
        rung = eps * 2.0 ** (j / 2.0)
        if rung > top:
            break
        rungs.append(rung)
        j += 1
    rungs.reverse()
    rungs.append(eps)
    return rungs


def find_decay_point(T: MonotoneMap, cfg: SolverConfig, n: int) -> SolveReport:
    """Search the sphere of radius ``cfg.r`` for a point with ``Ts << s``.

    On success the returned point satisfies ``(Ts*)_i + eps <= s*_i`` for
    all i (so in particular the contractual ``eps - 1e-12`` margin) and
    lies on the sphere to within ``1e-9 * r``.  Failures report either
    ``iteration_cap`` (evaluation budget exhausted) or ``label_none`` (a
    visited point had no decaying component at slack eps, so the covering
    hypothesis fails there; the point is recorded in ``failure_point``)
    or ``nonfinite`` (the map returned a NaN or infinite component at the
    point recorded in ``failure_point``).

    The order-interval pre-phase (see the module docstring) runs first:
    its evaluations count toward ``max_iterations`` and its non-finite
    values are named ``nonfinite`` at the iterate.  It either returns a
    certificate, ends in ``label_none`` at a sphere point that it proved
    infeasible and checked to have no label, or hands the slack rungs
    left to walk to the ladder below.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if T.dimension != n:
        raise ValueError(f"map has dimension {T.dimension}, expected {n}")
    r = cfg.r
    eps = cfg.epsilon
    ladder = _slack_ladder(eps, r, n)
    cache: dict[bytes, bytes] = {}  # point.tobytes() -> T(point).tobytes()
    count = 0

    def counted(point: np.ndarray) -> tuple[np.ndarray, float]:
        """``T(point)`` and the margin ``min(point - T(point))``, counted against the cap."""
        nonlocal count
        if count >= cfg.max_iterations:
            raise _Finished(SolveReport(False, None, count, failure_reason="iteration_cap"))
        count += 1
        value = T(point)
        margin = float(np.min(point - value))
        if not math.isfinite(margin):  # NaN or +inf in T(point); point is finite
            raise _Finished(SolveReport(False, None, count, failure_reason="nonfinite",
                                        failure_point=point))
        return value, margin

    def evaluate(point: np.ndarray) -> np.ndarray:
        """``T(point)`` from the memo; a new point is counted and tested as a certificate."""
        key = point.tobytes()
        Ts = cache.get(key)
        if Ts is None:
            value, margin = counted(point)
            if margin >= eps:
                s_star = np.array(point)
                s_star.flags.writeable = False
                raise _Finished(SolveReport(True, s_star, count, margin=margin))
            Ts = cache[key] = value.tobytes()
        return np.frombuffer(Ts)

    def make_label_of(m: int, label_slack: float):
        scale = r / m

        def label_of(z: tuple[int, ...]) -> int:
            point = np.asarray(z, dtype=float) * scale
            label = label_index(point, evaluate(point), label_slack)
            if label is None:
                raise _NoLabel(point)
            return label

        return label_of

    def on_sphere(v: np.ndarray) -> np.ndarray:
        """``v`` scaled to 1-norm r (through its maximum, so a huge ``v`` cannot overflow)."""
        v = v / float(np.max(v))
        return v * (r / float(np.sum(v)))

    def order_interval() -> list[float]:
        """The pre-phase: iterate ``w <- T(w) + eps`` from ``eps 1``; the rungs left to walk.

        Ends the search itself with a certificate or with ``label_none``.
        The iterates never reach the memo, so they are never returned as ``s*``.
        """
        w = np.full(n, eps)
        while True:
            Tw, margin = counted(w)
            up = Tw + eps
            norm, up_norm = float(np.sum(w)), float(np.sum(up))
            if (r / norm) * margin >= eps * (1.0 + _ROUNDING):  # the candidate
                evaluate(on_sphere(w))
                return ladder
            if up_norm > r * (1.0 + _ROUNDING):  # no decay point exists
                p = on_sphere(up)
                if label_index(p, evaluate(p), eps) is None:
                    raise _Finished(SolveReport(False, None, count, failure_reason="label_none",
                                                failure_point=p))
                return [eps]
            if float(np.sum(up - w)) <= _CONVERGED * up_norm:  # converged
                evaluate(on_sphere(up))
                return ladder
            w = up

    try:
        for label_slack in order_interval():
            try:
                m = 1
                while True:
                    verts = CompleteCellSearch(m, n, make_label_of(m, label_slack)).find()
                    bary = np.asarray(verts, dtype=float).mean(axis=0) * (r / m)
                    evaluate(bary)
                    m *= 2
            except _NoLabel as miss:
                if label_slack == eps:
                    return SolveReport(
                        False,
                        None,
                        count,
                        failure_reason="label_none",
                        failure_point=miss.point,
                    )
                # covering fails at the inflated slack; step the ladder down
    except _Finished as finished:
        return finished.report
    raise AssertionError("slack ladder ended without a rung at eps")  # pragma: no cover
