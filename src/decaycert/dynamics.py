"""Trajectories of ``s+ = Ts`` and the two-step attraction certificate.

A decay point splits the certification into two cheap halves: the
homotopy search establishes ``Ts* << s*`` on the sphere, and a single
trajectory started at ``s*`` establishes that the whole order interval
``[0, s*]`` belongs to the region of attraction (every trajectory below
``s*`` is squeezed down by the ordering of solutions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .homotopy import SolveReport, SolverConfig, find_decay_point
from .maps import MonotoneMap
from .order import as_point, check_count, check_positive

__all__ = [
    "TrajectoryReport",
    "CertificateReport",
    "iterate",
    "solve_problem1",
    "ordering_check",
    "DEFAULT_STOP_TOL",
    "DEFAULT_K_MAX",
]

DEFAULT_STOP_TOL = 1e-6
DEFAULT_K_MAX = 10_000

# Stored states are decimated to bound report size: every state for the
# first DENSE_STEPS steps, every THIN_EVERY-th state afterwards (the final
# state is always kept).
DENSE_STEPS = 100
THIN_EVERY = 10


@dataclass(eq=False)
class TrajectoryReport:
    """Recorded orbit of ``s+ = Ts`` from one initial condition.

    ``states[i]`` is the state at step ``steps[i]``; the prefix up to
    step 100 is dense, afterwards every 10th step is kept.
    """

    states: list[np.ndarray]
    steps: list[int]
    converged: bool
    steps_used: int
    final_sup_norm: float


@dataclass(eq=False)
class CertificateReport:
    """Outcome of the full decay-point + attraction certification."""

    solve: SolveReport
    trajectory: TrajectoryReport | None
    problem1_satisfied: bool


def _check_trajectory_limits(k_max: int, stop_tol: float) -> None:
    """Reject a ``k_max`` that is not an int >= 1 and a non-positive or non-finite ``stop_tol``."""
    check_count("k_max", k_max)
    check_positive("stop_tol", stop_tol)


def iterate(
    T: MonotoneMap,
    s0,
    k_max: int = DEFAULT_K_MAX,
    stop_tol: float = DEFAULT_STOP_TOL,
) -> TrajectoryReport:
    """Run ``s+ = Ts`` from ``s0`` until the state is small or ``k_max`` hits.

    Convergence means sup-norm below ``stop_tol``; iteration stops there
    early because a trajectory started below a decaying point can only
    keep shrinking.  It also stops, unconverged, at a state with a
    non-finite component, which the map cannot take as input.
    """
    _check_trajectory_limits(k_max, stop_tol)
    s = as_point(s0, dim=T.dimension)
    states, steps = [], []
    with np.errstate(over="ignore"):  # an overflow ends the run at a non-finite state
        for k in range(k_max + 1):
            if k:
                s = T(s)
            sup = float(np.max(s))
            # a NaN or inf in s, whose components are >= 0, makes sup non-finite
            stop = sup < stop_tol or not math.isfinite(sup) or k == k_max
            if k <= DENSE_STEPS or k % THIN_EVERY == 0 or stop:
                states.append(s)
                steps.append(k)
            if stop:
                return TrajectoryReport(states, steps, sup < stop_tol, k, sup)


def solve_problem1(
    T: MonotoneMap,
    cfg: SolverConfig,
    n: int,
    stop_tol: float = DEFAULT_STOP_TOL,
    k_max: int = DEFAULT_K_MAX,
) -> CertificateReport:
    """Find a decay point on the sphere and certify its order interval.

    The trajectory limits are checked first, so a bad one costs no map
    evaluation.  Step one searches the sphere of radius ``cfg.r`` for ``s*``
    with ``Ts* << s*`` (margin ``cfg.epsilon``); step two iterates the map
    from ``s*``.  That trajectory is nonincreasing, and its convergence
    below ``stop_tol`` certifies the order interval ``[0, s*]``.
    """
    _check_trajectory_limits(k_max, stop_tol)
    solve = find_decay_point(T, cfg, n)
    if not solve.success:
        return CertificateReport(solve, None, False)
    trajectory = iterate(T, solve.s_star, k_max=k_max, stop_tol=stop_tol)
    return CertificateReport(solve, trajectory, trajectory.converged)


def ordering_check(T: MonotoneMap, s0, v0, k: int) -> bool:
    """Whether the orbits from ``s0 <= v0`` stay ordered for ``k`` steps.

    For a monotone map this must always hold; it is exposed as a callable
    so the property can be exercised directly in tests and from scripts.
    """
    check_count("k", k)
    s = as_point(s0, dim=T.dimension)
    v = as_point(v0, dim=T.dimension)
    if np.any(s > v):
        raise ValueError("ordering_check requires s0 <= v0 componentwise")
    for _ in range(k):
        s = T(s)
        v = T(v)
        if np.any(s > v):
            return False
    return True
