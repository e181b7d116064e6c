"""The order-interval pre-phase against the exact linear oracle.

For ``A >= 0`` with spectral radius below one, the best margin on the
sphere of radius r is ``eps_max = r / 1'(I - A)^-1 1``.  Below it the
pre-phase's candidate must succeed at once; above it no point decays,
and the run must end in ``label_none`` at a sphere point without a label.
"""

import numpy as np
import pytest

from decaycert.homotopy import SolverConfig, find_decay_point
from decaycert.maps import make_linear_map

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

R = 10.0
CAP = 1000


@st.composite
def contractive(draw):
    """A positive n-by-n matrix (n <= 10, entries 0.01..1) scaled to spectral radius <= 0.9.

    Positive entries keep the components of the oracle's ``(I - A)^-1 1``
    within a factor 100 of each other.  With zeros, a nilpotent chain
    scaled up by a tiny spectral radius can push ``eps_max`` down to
    ``1e-11 r``, which no run of 1,000 evaluations resolves.
    """
    n = draw(st.integers(2, 10))
    entries = st.lists(st.floats(0.01, 1.0), min_size=n * n, max_size=n * n)
    A = np.array(draw(entries)).reshape(n, n)
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    return A * (draw(st.floats(0.05, 0.9)) / rho)


def eps_max(A: np.ndarray) -> float:
    w = np.linalg.solve(np.eye(len(A)) - A, np.ones(len(A)))
    return R / float(np.sum(w))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(contractive(), st.floats(1e-3, 0.9))
def test_feasible_eps_succeeds_within_a_thousand_evaluations(A, fraction):
    eps = fraction * eps_max(A)
    report = find_decay_point(make_linear_map(A), SolverConfig(R, eps, CAP), len(A))
    assert report.success, report.failure_reason
    s = report.s_star
    assert float(np.min(s - A @ s)) >= eps
    assert abs(float(np.sum(s)) - R) <= 1e-9 * R


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(contractive(), st.floats(1.01, 10.0))
def test_infeasible_eps_ends_in_label_none_on_the_sphere(A, fraction):
    eps = fraction * eps_max(A)
    report = find_decay_point(make_linear_map(A), SolverConfig(R, eps, CAP), len(A))
    assert report.failure_reason == "label_none"
    p = report.failure_point
    assert not np.any(A @ p + eps <= p)
    assert abs(float(np.sum(p)) - R) <= 1e-9 * R
