"""Ways for a test to reach one stage of ``find_decay_point`` on purpose.

The solver runs the policy step, then the sphere stage and pre-phase,
then the walk.  A map that a constructor built carries its proven
Jacobian and homogeneous flag, and those let the first two stages answer
most runs, so a test that means a later stage says how it gets there:

* ``callable_twin(T)`` computes T's values without the flag or the
  Jacobian: no policy step, and a sphere stage whose Newton steps use
  forward differences;
* ``plain_walk(T, cfg, n)`` runs the paper's plain method on T itself: no
  policy step, no sphere stage or pre-phase, and the whole slack ladder
  walked;
* ``recorded()`` records the points at which maps are evaluated, and
  leaves every map as it was built.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from decaycert import homotopy
from decaycert.homotopy import SolveReport, SolverConfig
from decaycert.maps import MonotoneMap


def callable_twin(T: MonotoneMap) -> MonotoneMap:
    """``T``'s values through a map built from its callable: no flag and no Jacobian."""
    return MonotoneMap(T.dimension, T.fn, T.kind)


def plain_walk(T: MonotoneMap, cfg: SolverConfig, n: int) -> SolveReport:
    """``find_decay_point(T, cfg, n)`` as the paper's plain method.

    The policy step does nothing and ``_pre_phase`` (the sphere stage and
    the pre-phase) returns the whole slack ladder, so the run is the walk
    alone; the memo, the cap, the report and
    the solve's own entry point (``homotopy.find_decay_point``, looked up
    at call time, as a tracer replaces it) are the solver's.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homotopy, "_policy_step", lambda ev: None)
        patch.setattr(homotopy, "_pre_phase",
                      lambda ev: homotopy._slack_ladder(ev.eps, ev.r, ev.T.dimension))
        return homotopy.find_decay_point(T, cfg, n)


@contextlib.contextmanager
def recorded():
    """Record a copy of every point at which a map is called, in order.

    A call made inside another map's call (a composition's inner maps) is
    part of that call and is not recorded, so inside the block the list
    holds one point per evaluation of the outermost map.
    """
    seen: list[np.ndarray] = []
    call = MonotoneMap.__call__
    depth = 0

    def recording(self, s):
        nonlocal depth
        if depth == 0:
            seen.append(np.array(s))
        depth += 1
        try:
            return call(self, s)
        finally:
            depth -= 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MonotoneMap, "__call__", recording)
        yield seen
