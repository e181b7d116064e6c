"""Ways for a test to reach one stage of ``find_decay_point`` on purpose, and shared oracles.

``find_decay_point`` is ``homotopy._solve`` with the policy step, the
sphere stage, the pre-phase and the walk in that order.  A map that a
constructor built carries its proven Jacobian and degree, and those let
the first two stages answer most runs, and the sphere stage ends every
run whose best point has no label, so a test that means a later stage
says how it gets there:

* ``callable_twin(T)`` computes T's values without the degree or the
  Jacobian: no policy step, and a sphere stage whose Newton steps use
  forward differences;
* ``without_sphere_stage(T, cfg, n)`` runs ``_solve`` on T with every
  stage but the sphere stage, so the run reaches the pre-phase after the
  policy step;
* ``plain_walk(T, cfg, n)`` runs ``_solve`` on T with the walk alone, the
  paper's plain method: no policy step, no sphere stage and no pre-phase;
* ``recorded()`` records the points at which maps are evaluated, and
  leaves every map as it was built.

No stage is replaced by name: each helper passes ``_solve`` its tuple,
which ends in ``_walk`` as every tuple must.

The module also holds what several test modules share, so that no test
module imports another: the oracles ``cycle_mean(C)``, the max-times
cycle mean, and ``power_cycle_condition(nonzero)``, the cycle test as
all n max-plus powers; and ``sparse_rows(n, seed, gains)`` with
``PASSING_TERMS``, the sparse gain tables they are run on.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from decaycert import homotopy
from decaycert.homotopy import SolveReport, SolverConfig
from decaycert.maps import MonotoneMap

# tables of these pass the cycle test: every cycle stays below the identity on [1e-3, 1e3]
PASSING_TERMS = ["0.4*t", "0.5*t", "0.3*t^1.1"]


def callable_twin(T: MonotoneMap) -> MonotoneMap:
    """``T``'s values through a map built from its callable: no degree and no Jacobian."""
    return MonotoneMap(T.dimension, T.fn, T.kind)


def without_sphere_stage(T: MonotoneMap, cfg: SolverConfig, n: int) -> SolveReport:
    """``find_decay_point(T, cfg, n)`` without the sphere stage."""
    return homotopy._solve(T, cfg, n, (homotopy._policy_step, homotopy._pre_phase,
                                       homotopy._walk))


def plain_walk(T: MonotoneMap, cfg: SolverConfig, n: int) -> SolveReport:
    """``find_decay_point(T, cfg, n)`` as the paper's plain method, the walk alone.

    The memo, the cap and the report are the solver's.
    """
    return homotopy._solve(T, cfg, n, (homotopy._walk,))


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


def sparse_rows(n: int, seed: int, gains: list[str]) -> list[list]:
    """n-by-n gain rows whose entries are present with probability 3/n, each drawn from gains."""
    rng = np.random.default_rng(seed)
    return [[gains[rng.integers(len(gains))] if rng.random() < 3 / n else None
             for _ in range(n)] for _ in range(n)]


def power_cycle_condition(nonzero):
    """Reference oracle: cycle_condition as all n max-plus powers, without the stop.

    ``nonzero`` lists each row's ``(j, gain)`` pairs, like ``GainTable.nonzero``.
    For ``k = 1..n`` it steps the power ``T^k(t e_i)`` over every start and both
    ends, and at the first diagonal hit re-steps that start's powers and
    backtracks the walk by the first gain of largest value.
    """
    n, ends = len(nonzero), np.array([1e-3, 1e3])

    def step(w):
        out = np.zeros_like(w)
        for a, row in enumerate(nonzero):
            for j, g in row:
                np.maximum(out[:, a], g(w[:, j]), out=out[:, a])
        return out

    start = w = np.eye(n)[:, :, None] * ends
    with np.errstate(over="ignore"):
        for k in range(1, n + 1):
            w = step(w)
            hits = np.argwhere(np.diagonal(w).T >= ends)
            if len(hits):
                i, p = hits[0].tolist()
                path = [start[i:i + 1, :, p:p + 1]]
                for _ in range(k - 1):
                    path.append(step(path[-1]))
                walk = [i]
                for v in reversed(path[1:]):
                    walk.append(max(nonzero[walk[-1]], key=lambda jg: jg[1](v[0, jg[0], 0]))[0])
                return False, (tuple(a + 1 for a in walk), float(ends[p]))
    return True, None
