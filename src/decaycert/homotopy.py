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
``z`` on every lookup.
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


class _FoundPoint(Exception):
    def __init__(self, point: np.ndarray, margin: float):
        self.point = point
        self.margin = margin


class _NoLabel(Exception):
    def __init__(self, point: np.ndarray):
        self.point = point


class _NonFinite(Exception):
    def __init__(self, point: np.ndarray):
        self.point = point


class _CapReached(Exception):
    pass


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
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if T.dimension != n:
        raise ValueError(f"map has dimension {T.dimension}, expected {n}")
    r = cfg.r
    eps = cfg.epsilon
    cache: dict[bytes, bytes] = {}  # point.tobytes() -> T(point).tobytes()
    count = 0

    def evaluate(point: np.ndarray) -> np.ndarray:
        nonlocal count
        if count >= cfg.max_iterations:
            raise _CapReached
        count += 1
        Ts = T(point)
        margin = float(np.min(point - Ts))
        if not math.isfinite(margin):  # NaN or +inf in T(point); point is finite
            raise _NonFinite(point)
        if margin >= eps:
            raise _FoundPoint(point, margin)
        return Ts

    def make_label_of(m: int, label_slack: float):
        scale = r / m

        def label_of(z: tuple[int, ...]) -> int:
            point = np.asarray(z, dtype=float) * scale
            key = point.tobytes()
            Ts = cache.get(key)
            if Ts is None:
                Ts = cache[key] = evaluate(point).tobytes()
            label = label_index(point, np.frombuffer(Ts), label_slack)
            if label is None:
                raise _NoLabel(point)
            return label

        return label_of

    try:
        for label_slack in _slack_ladder(eps, r, n):
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
    except _FoundPoint as hit:
        s_star = np.array(hit.point)
        s_star.flags.writeable = False
        return SolveReport(True, s_star, count, margin=hit.margin)
    except _NonFinite as bad:
        return SolveReport(False, None, count, failure_reason="nonfinite", failure_point=bad.point)
    except _CapReached:
        return SolveReport(False, None, count, failure_reason="iteration_cap")
    raise AssertionError("slack ladder ended without a rung at eps")  # pragma: no cover
