"""Ways for a test to reach one stage of ``find_decay_point`` on purpose.

The solver runs the policy step, the sphere stage, the pre-phase, then
the walk.  A map that a constructor built carries its proven Jacobian and
degree, and those let the first two stages answer most runs,
and the sphere stage ends every run whose best point has no label, so a
test that means a later stage says how it gets there:

* ``callable_twin(T)`` computes T's values without the degree or the
  Jacobian: no policy step, and a sphere stage whose Newton steps use
  forward differences;
* ``without_sphere_stage(T, cfg, n)`` runs the solver on T with the
  sphere stage a no-op, so the run reaches the pre-phase after the policy
  step;
* ``plain_walk(T, cfg, n)`` runs the paper's plain method on T itself: no
  policy step, no sphere stage and no pre-phase, only the walk;
* ``recorded()`` records the points at which maps are evaluated, and
  leaves every map as it was built.

``cycle_mean(C)`` is the max-times cycle-mean oracle that the pre-phase
and the max-preserving tests share.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from decaycert import homotopy
from decaycert.homotopy import SolveReport, SolverConfig
from decaycert.maps import MonotoneMap


def callable_twin(T: MonotoneMap) -> MonotoneMap:
    """``T``'s values through a map built from its callable: no degree and no Jacobian."""
    return MonotoneMap(T.dimension, T.fn, T.kind)


def without_sphere_stage(T: MonotoneMap, cfg: SolverConfig, n: int) -> SolveReport:
    """``find_decay_point(T, cfg, n)`` with the sphere stage a no-op."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homotopy, "_sphere_stage", lambda ev: None)
        return homotopy.find_decay_point(T, cfg, n)


def plain_walk(T: MonotoneMap, cfg: SolverConfig, n: int) -> SolveReport:
    """``find_decay_point(T, cfg, n)`` as the paper's plain method.

    The policy step, the sphere stage and the pre-phase do nothing, so the
    run is the walk alone; the memo, the cap, the report and the solve's
    own entry point (``homotopy.find_decay_point``, looked up at call
    time, as a tracer replaces it) are the solver's.
    """
    with pytest.MonkeyPatch.context() as patch:
        for stage in ("_policy_step", "_sphere_stage", "_pre_phase"):
            patch.setattr(homotopy, stage, lambda ev: None)
        return homotopy.find_decay_point(T, cfg, n)


@contextlib.contextmanager
def recorded():
    """Record a copy of every point at which a map is called, in order.

    A composition evaluates its parts through their ``fn``, not through
    ``MonotoneMap.__call__``, so inside the block the list holds one point
    per evaluation of the map the solver was given.
    """
    seen: list[np.ndarray] = []
    call = MonotoneMap.__call__

    def recording(self, s):
        seen.append(np.array(s))
        return call(self, s)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MonotoneMap, "__call__", recording)
        yield seen


def cycle_mean(C: np.ndarray) -> float:
    """Largest geometric cycle mean of a max-times table of coefficients.

    A closed walk splits into simple cycles of length at most n, so the
    k-th root of the largest diagonal entry of the k-th max-times power,
    maximized over k <= n, is exact.
    """
    power, best = C, 0.0
    for k in range(1, len(C) + 1):
        best = max(best, float(np.max(np.diag(power))) ** (1.0 / k))
        power = np.max(power[:, :, None] * C[None, :, :], axis=1)
    return best
