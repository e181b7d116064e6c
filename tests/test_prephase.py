"""The policy step and the order-interval pre-phase against exact oracles.

For ``A >= 0`` with spectral radius below one, the best margin on the
sphere of radius r is ``eps_max = r / 1'(I - A)^-1 1``; for a max-times
table of gains ``c_ij t`` with cycle mean below one it is ``r / 1'w``,
w the least solution of ``w = 1 + C (x) w``, and for any homogeneous map
T it is ``r / 1'w`` with w the least solution of ``w = T(w) + 1``.  Below
it a run must succeed; above it no point decays, and the run must end in
``label_none`` at a sphere point without a label.  Maps of degree one
built by the constructors carry their Jacobian, and the policy step
answers them in one evaluation; the tests of the pre-phase's own
mechanism run on callable twins, which compute the same values without
degree or Jacobian.
"""

from pathlib import Path

import numpy as np
import pytest

from decaycert import homotopy
from decaycert.homotopy import SolverConfig, find_decay_point
from decaycert.labeling import label_index
from decaycert.linear import eps_max
from decaycert.maps import MonotoneMap, compose, make_diagonal, make_linear_map, make_max_preserving
from decaycert.mapspec import parse_map_spec
from stages import callable_twin, recorded, without_sphere_stage

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

R = 10.0
CAP = 1000
SPECS = Path(__file__).resolve().parents[1] / "mapspecs"
# The pre-phase's iterates need steps growing like 1/(1 - rho) near rho = 1
# (4,612 evaluations on a callable twin without the sphere stage at
# rho = 0.999 and eps = 1.01 eps_max); runs that may reach them get a cap
# that large.
NEAR_UNIT_CAP = 10_000
# Spectral radii 0.9 ... 0.999, spread evenly over the digits of 1 - rho.
NEAR_UNIT_RHO = st.floats(1.0, 3.0).map(lambda digits: 1.0 - 10.0 ** -digits)


@st.composite
def contractive(draw, rho=st.floats(0.05, 0.9)):
    """A positive n-by-n matrix (n <= 10, entries 0.01..1) scaled to a spectral
    radius drawn from ``rho``.

    Positive entries keep the components of the oracle's ``(I - A)^-1 1``
    within a factor 100 of each other.  With zeros, a nilpotent chain
    scaled up by a tiny spectral radius can push ``eps_max`` down to
    ``1e-11 r``, which no run of 1,000 evaluations resolves.
    """
    n = draw(st.integers(2, 10))
    entries = st.lists(st.floats(0.01, 1.0), min_size=n * n, max_size=n * n)
    A = np.array(draw(entries)).reshape(n, n)
    return A * (draw(rho) / float(np.max(np.abs(np.linalg.eigvals(A)))))


def check_feasible(T, eps, cap):
    report = find_decay_point(T, SolverConfig(R, eps, cap), T.dimension)
    assert report.success, report.failure_reason
    s = report.s_star
    assert float(np.min(s - T(s))) >= eps
    assert abs(float(np.sum(s)) - R) <= 1e-9 * R
    return report


def check_infeasible(T, eps, cap):
    report = find_decay_point(T, SolverConfig(R, eps, cap), T.dimension)
    assert report.failure_reason == "label_none"
    p = report.failure_point
    assert np.all(p - T(p) < eps)
    assert abs(float(np.sum(p)) - R) <= 1e-9 * R
    return report


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(contractive(), st.floats(1e-3, 0.9))
def test_feasible_eps_succeeds_within_a_thousand_evaluations(A, fraction):
    check_feasible(make_linear_map(A), fraction * eps_max(A, R), CAP)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(contractive(), st.floats(1.01, 10.0))
def test_infeasible_eps_ends_in_label_none_on_the_sphere(A, fraction):
    check_infeasible(make_linear_map(A), fraction * eps_max(A, R), CAP)


# Near rho = 1 and near eps_max the pre-phase runs for thousands of steps,
# so these draw fewer examples, from a fixed seed.
@hypothesis.settings(max_examples=20, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(NEAR_UNIT_RHO), st.floats(0.9, 0.99))
def test_near_unit_rho_feasible_eps_succeeds(A, fraction):
    check_feasible(make_linear_map(A), fraction * eps_max(A, R), NEAR_UNIT_CAP)


@hypothesis.settings(max_examples=20, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(NEAR_UNIT_RHO), st.floats(1.01, 1.1))
def test_near_unit_rho_infeasible_eps_ends_in_label_none(A, fraction):
    check_infeasible(make_linear_map(A), fraction * eps_max(A, R), NEAR_UNIT_CAP)


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


def max_times_eps_max(C: np.ndarray, r: float) -> float:
    """``r / 1'w``, w the least solution of ``w = 1 + C (x) w``, by policy iteration.

    For one coefficient ``C[i, sigma_i]`` chosen per row the least solution
    is linear, ``(I - C_sigma)^-1 1`` (every cycle of ``C_sigma`` is one of
    C, so its spectral radius is below one), and w is the largest of them.
    Switching each row to its ``argmax_j c_ij w_j`` raises w, so the
    iteration ends at a choice that no switch improves, which solves the
    equation.
    """
    n = len(C)
    rows = np.arange(n)
    policy = np.argmax(C, axis=1)
    while True:
        chosen = np.zeros((n, n))
        chosen[rows, policy] = C[rows, policy]
        w = np.linalg.solve(np.eye(n) - chosen, np.ones(n))
        values = C * w
        best = np.argmax(values, axis=1)
        better = values[rows, best] > values[rows, policy] * (1.0 + 1e-12)
        if not better.any():
            break
        policy = np.where(better, best, policy)
    np.testing.assert_allclose(w, 1.0 + np.max(C * w, axis=1), rtol=1e-12)
    return r / float(np.sum(w))


def max_times_map(C: np.ndarray) -> MonotoneMap:
    return make_max_preserving([[f"{float(c)!r}*t" if c > 0.0 else None for c in row]
                                for row in C])


@st.composite
def max_times_tables(draw, means=st.floats(0.05, 0.99), zero_lines=False):
    """A sparse n-by-n table of coefficients (n <= 8, each 0 or 0.01..1)
    scaled to a cycle mean drawn from ``means``, with one row and one
    column of zeros if ``zero_lines``.

    A table whose cycle mean is below 0.05 is rejected, so that the scaling
    multiplies no coefficient by more than 20 (see ``contractive``).
    """
    n = draw(st.integers(2, 8))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                       min_size=n * n, max_size=n * n)
    C = np.array(draw(entries)).reshape(n, n)
    if zero_lines:
        C[draw(st.integers(0, n - 1)), :] = 0.0
        C[:, draw(st.integers(0, n - 1))] = 0.0
    mean = cycle_mean(C)
    hypothesis.assume(mean >= 0.05)
    return C * (draw(means) / mean)


# Max-times tables are homogeneous but not linear.  Their policy step answers
# these runs; on their callable twins, runs near the limit take up to a few
# hundred evaluations.
@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(max_times_tables(), st.floats(0.5, 0.99))
def test_max_times_feasible_eps_succeeds(C, fraction):
    check_feasible(max_times_map(C), fraction * max_times_eps_max(C, R), NEAR_UNIT_CAP)


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(max_times_tables(), st.floats(1.01, 2.0))
def test_max_times_infeasible_eps_ends_in_label_none(C, fraction):
    check_infeasible(max_times_map(C), fraction * max_times_eps_max(C, R), NEAR_UNIT_CAP)


# The policy step.  Below the limit the optimal point r w*/|w*|_1, w* the least
# solution of w = T(w) + 1, has margin eps_max in every component, so its one
# test certifies it; above the limit that point, or the Perron vector of a
# policy matrix of spectral radius >= 1 where there is no w*, has no label.
# Either way one evaluation gives the oracle's outcome, at any fraction of
# eps_max away from 1.  Where no point decays at all (the oracle is 0), eps
# is that fraction of r/n.
LIMIT_FRACTIONS = st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0))


def check_one_evaluation(T, limit, fraction):
    if limit > 0.0 and fraction < 1.0:
        report = check_feasible(T, fraction * limit, CAP)
    else:
        report = check_infeasible(T, fraction * (limit or R / T.dimension), CAP)
    assert report.iterations == 1


@st.composite
def stochastic(draw):
    """A positive matrix whose rows sum to 1 exactly, so that its spectral radius is 1.

    n is 2, 4 or 8 and each entry 1/(2n), plus 1/2 at one entry per row:
    dyadic numbers, whose sums are exact.
    """
    n = draw(st.sampled_from([2, 4, 8]))
    A = np.full((n, n), 0.5 / n)
    for row in A:
        row[draw(st.integers(0, n - 1))] += 0.5
    return A


# eps_max = 0.07513 at r = 10; the examples are eps = 0.075 and 0.076
NEAR_LIMIT = np.array([[0.5, 0.49], [0.48, 0.5]])


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.one_of(
    contractive(st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 1.5))).map(
        lambda A: (A, eps_max(A, R))),
    stochastic().map(lambda A: (A, 0.0))), LIMIT_FRACTIONS)
@hypothesis.example(case=(NEAR_LIMIT, eps_max(NEAR_LIMIT, R)),
                    fraction=0.075 / eps_max(NEAR_LIMIT, R))
@hypothesis.example(case=(NEAR_LIMIT, eps_max(NEAR_LIMIT, R)),
                    fraction=0.076 / eps_max(NEAR_LIMIT, R))
def test_the_policy_step_answers_a_linear_map_in_one_evaluation(case, fraction):
    A, limit = case
    check_one_evaluation(make_linear_map(A), limit, fraction)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(max_times_tables(st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 1.5)),
                                   zero_lines=True), LIMIT_FRACTIONS)
def test_the_policy_step_answers_a_max_times_table_in_one_evaluation(C, fraction):
    limit = max_times_eps_max(C, R) if cycle_mean(C) < 1.0 else 0.0
    check_one_evaluation(max_times_map(C), limit, fraction)


def value_iteration_eps_max(T: MonotoneMap, r: float) -> float:
    """``r / 1'w``, w the least solution of ``w = T(w) + 1``, by value iteration.

    For monotone T the iterates ``w_{k+1} = T(w_k) + 1`` from ``w_0 = 0``
    never decrease and stay below w.  They stop once ``u = (1 + 1e-9) w_k``
    has ``T(u) + 1 <= u``, which puts w below u as well (Tarski), so the
    oracle is exact to about 1e-9.
    """
    w = np.zeros(T.dimension)
    while True:
        w = T(w) + 1.0
        u = w * (1.0 + 1e-9)
        if np.all(T(u) + 1.0 <= u):
            return r / float(np.sum(w))


def example_spec(name: str) -> MonotoneMap:
    return parse_map_spec((SPECS / f"{name}.json").read_text()).build()


@st.composite
def max_times_compositions(draw):
    """``max o linear``, ``linear o max`` or ``diag o max o linear``, n <= 6.

    The max-times part C has gains ``c t`` or zero, with one row and one
    column of zeros, so that policies have rows of zeros; the linear part
    A is sparse too.  Each maximum is at most the sum it picks from, so T
    is at most the linear map B that puts ``C`` in place of the max-times
    part, and A is scaled so that ``rho(B)`` is 0.3..0.95: then w exists,
    and value iteration reaches it at that rate.
    """
    n = draw(st.integers(2, 6))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                       min_size=n * n, max_size=n * n)
    C = np.array(draw(entries)).reshape(n, n)
    C[draw(st.integers(0, n - 1)), :] = 0.0
    C[:, draw(st.integers(0, n - 1))] = 0.0
    A = np.array(draw(entries)).reshape(n, n)
    c = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    family = draw(st.sampled_from(["max o linear", "linear o max", "diag o max o linear"]))
    B = {"max o linear": C @ A, "linear o max": A @ C, "diag o max o linear": np.diag(c) @ C @ A}
    rho = float(np.max(np.abs(np.linalg.eigvals(B[family]))))
    hypothesis.assume(rho > 0.0)
    L, M = make_linear_map(A * (draw(st.floats(0.3, 0.95)) / rho)), max_times_map(C)
    parts = {"max o linear": [M, L], "linear o max": [L, M],
             "diag o max o linear": [make_diagonal([f"{x!r}*t" for x in c]), M, L]}
    return compose(*parts[family])


# A composition with a max-times part has no closed form for w*, but its
# Jacobian gives each policy, and the policy step answers it in one
# evaluation on either side of the limit, as it does a table.  In each of
# the first two examples a policy's solve rounds the component of a zero
# row to 1 - 1 ulp, which must not be read as a spectral radius of one.
# The third has eps_max 2 at r = 10, and the last two are the degree-one
# example specs, a table and ``diag o linear``.
@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(max_times_compositions())
@hypothesis.example(T=compose(
    make_linear_map([[0.0, 0.8, 0.0], [2.1, 0.0, 1.6], [0.2, 2.9, 1.3]]),
    max_times_map(np.array([[0.7, 0.0, 0.7], [0.0, 0.0, 0.0], [0.9, 0.0, 0.2]]))))
@hypothesis.example(T=compose(
    max_times_map(np.array([[0.0, 0.0, 0.0], [0.0, 0.2, 0.9], [0.0, 0.8, 0.0]])),
    make_linear_map([[0.2, 1.2, 0.4], [1.5, 0.0, 0.7], [1.6, 0.5, 1.1]])))
@hypothesis.example(T=compose(make_max_preserving([[None, "0.5*t"], ["0.8*t", "0.25*t"]]),
                              make_linear_map([[0.5, 0.5], [0.25, 0.5]])))
@hypothesis.example(T=example_spec("maxgain_half"))
@hypothesis.example(T=example_spec("scaled_swap"))
def test_the_policy_step_answers_a_composition_with_a_max_times_part_in_one_evaluation(T):
    limit = value_iteration_eps_max(T, R)
    for fraction in (0.99, 1.01):
        check_one_evaluation(T, limit, fraction)


@pytest.mark.parametrize("eps,outcome,twin_iterations",
                         [(0.024382, None, 13), (0.024874, "label_none", 19)],
                         ids=["0.99 eps_max", "1.01 eps_max"])
def test_a_near_critical_table_ends_in_one_evaluation(eps, outcome, twin_iterations):
    """Cycle mean 0.995 and eps_max 0.0246282 at r = 10: 0.99 and 1.01 of it.

    The callable twin has no policy step.  Below the limit its sphere stage
    certifies in a few Newton steps with a difference Jacobian; above it the
    sphere stage's best point has no label, and ends the run there.
    """
    C = np.array([[0, 0, 0, 0, 0], [0, 0, 0.9082, 0, 1.5708], [0, 1.0901, 0, 0, 0],
                  [1.4519, 0, 0, 0.1795, 0], [0, 0, 0, 0.2454, 0]])
    assert max_times_eps_max(C, R) == pytest.approx(0.0246282, abs=1e-7)
    T = max_times_map(C)
    cfg = SolverConfig(R, eps, 100_000)
    for M, iterations in ((T, 1), (callable_twin(T), twin_iterations)):
        report = find_decay_point(M, cfg, 5)
        assert (report.failure_reason, report.iterations) == (outcome, iterations)
        if report.success:
            assert float(np.min(report.s_star - T(report.s_star))) >= eps
        else:
            assert label_index(report.failure_point, T(report.failure_point), eps) is None


# Two diagonal blocks with one spectral radius, 1.0325, coupled one way: a
# defective eigenvalue, which the eigensolver splits into a complex pair whose
# eigenvector misses ``linear.perron_direction``'s residual bound.
DEFECTIVE = [[0.4, 0.8, 0, 0], [0.5, 0.4, 0, 0], [0.7, 0.9, 0.4, 0.5], [0.2, 0.1, 0.8, 0.4]]


def test_a_defective_perron_root_ends_the_run_in_one_evaluation():
    """``perron_direction`` takes the null direction of ``A - rho I`` instead, and its
    sphere point has no label."""
    T = make_linear_map(DEFECTIVE)
    report = find_decay_point(T, SolverConfig(R, 0.1, CAP), 4)
    assert (report.failure_reason, report.iterations) == ("label_none", 1)
    assert label_index(report.failure_point, T(report.failure_point), 0.1) is None


def test_a_refused_perron_vector_leaves_the_run_to_the_sphere_stage(monkeypatch):
    """Where ``linear.perron_direction`` refuses the Perron vector, the policy step
    evaluates nothing, and the sphere stage ends the run as on the callable twin.

    The sphere stage takes 10 Newton steps, on T and on the twin, where each
    costs 4 more evaluations, for its differences; its 11th point gains
    margin within rounding, and ends it.  Its best point has no label.
    Without the sphere stage, the pre-phase's norm rule ends both runs at
    one point after 7 evaluations.
    """
    def refuse(A):
        raise ValueError("no dominant eigenvector")

    monkeypatch.setattr(homotopy, "perron_direction", refuse)
    T = make_linear_map(DEFECTIVE)
    cfg = SolverConfig(R, 0.1, CAP)
    report, twin = (find_decay_point(M, cfg, 4) for M in (T, callable_twin(T)))
    assert (report.failure_reason, report.iterations) == ("label_none", 11)
    assert (twin.failure_reason, twin.iterations) == ("label_none", 51)
    for run in (report, twin):
        assert label_index(run.failure_point, T(run.failure_point), 0.1) is None
    report, twin = (without_sphere_stage(M, cfg, 4) for M in (T, callable_twin(T)))
    assert (report.failure_reason, report.iterations) == ("label_none", 7)
    assert (twin.failure_reason, twin.iterations) == ("label_none", 7)
    np.testing.assert_array_equal(report.failure_point, twin.failure_point)


def test_a_policy_point_that_overflows_with_a_label_ends_the_run_there():
    """``diag(1e-300 t, t) o A`` has the Jacobian ``[[0, 1], [0, 0.5]]``, but its inner
    ``A p`` overflows at the policy step's point ``r (3, 2)/5``, where component 2 decays.

    A value that is not finite ends the run there, after one evaluation,
    as at every sphere point.  The callable twin, which has no policy
    step, ends ``nonfinite`` at the sphere stage's first point ``r 1/n``.
    """
    T = compose(make_diagonal(["1e-300*t", "t"]), make_linear_map([[0, 1e300], [0, 0.5]]))
    assert T.jacobian(np.ones(2)).tolist() == [[0.0, 1.0], [0.0, 0.5]]
    for eps in (1.0, 1e9):
        cfg = SolverConfig(1e10, eps, CAP)
        report, twin = (find_decay_point(M, cfg, 2) for M in (T, callable_twin(T)))
        assert (report.failure_reason, report.iterations) == ("nonfinite", 1), eps
        np.testing.assert_allclose(report.failure_point, 1e10 * np.array([3.0, 2.0]) / 5,
                                   rtol=1e-15)
        assert (twin.failure_reason, twin.iterations) == ("nonfinite", 1), eps
        assert twin.failure_point.tolist() == [5e9, 5e9]


def test_a_max_times_cycle_above_one_ends_within_three_evaluations():
    """The cycle 1 -> 2 -> 3 -> 1 has gain 0.5 * 2 * 1.05 = 1.05, so no point decays.

    The sphere point of the policy step's Perron vector has no label, so
    one evaluation ends the run.  The callable twin's sphere stage ends it at
    its best point, which has no label, after 9 evaluations.
    """
    T = make_max_preserving([[None, "0.5*t", None], [None, None, "2*t"], ["1.05*t", None, None]])
    report = find_decay_point(T, SolverConfig(R, 0.01, CAP), 3)
    assert (report.failure_reason, report.iterations) == ("label_none", 1)
    p = report.failure_point
    assert not np.any(T(p) + 0.01 <= p)


# Linear T below the limit, on its callable twin, which has no policy step:
# the sphere stage evaluates r 1/n, and where that fails, its n differences,
# whose norms exceed r by h_j = 1e-6 r/n, and the Newton point.  For linear T
# the Newton system is T's own, so that point is the optimal point, to the
# rounding of the differences, and it is s*: besides r 1/n, the run evaluates
# one sphere point.
@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(st.floats(0.05, 0.999)), st.floats(1e-3, 0.999))
def test_feasible_eps_evaluates_one_sphere_point(A, fraction):
    eps = fraction * eps_max(A, R)
    with recorded() as seen:
        report = find_decay_point(callable_twin(make_linear_map(A)),
                                  SolverConfig(R, eps, NEAR_UNIT_CAP), len(A))
    assert report.success, report.failure_reason
    on_sphere = [s for s in seen if abs(float(np.sum(s)) - R) <= 1e-9 * R]
    assert on_sphere[0].tobytes() == np.full(len(A), R / len(A)).tobytes()
    assert report.iterations == len(seen) in (1, len(A) + 2)
    assert len(on_sphere) == (1 if report.iterations == 1 else 2)
    np.testing.assert_array_equal(on_sphere[-1], report.s_star)


# Linear T above the limit: the policy step's one sphere point has no label,
# long before the norm rule, which alone ends the run on the callable twin
# without the sphere stage.
def check_ends_before_the_norm_rule(A, eps):
    T = make_linear_map(A)
    report = find_decay_point(T, SolverConfig(R, eps, NEAR_UNIT_CAP), len(A))
    assert report.failure_reason == "label_none"
    p = report.failure_point
    assert abs(float(np.sum(p)) - R) <= 1e-9 * R
    assert np.all(A @ p + eps > p)  # no label, checked without the solver
    norm_rule = without_sphere_stage(callable_twin(T), SolverConfig(R, eps, NEAR_UNIT_CAP),
                                     len(A))
    assert norm_rule.failure_reason == "label_none"
    assert report.iterations == 1 <= norm_rule.iterations


# Matrices on which the pre-phase's iterates settle slowly: an eigenvalue
# near -rho beside rho = 1, and a component coupled to the rest by about
# 1e-3 at rho = 0.95 and 0.999.
SLOW_MATRICES = [
    [[0.015371590112779823, 1.5371590112779823], [0.6307044999534603, 0.015371590112779823]],
    [[0.8619362231254882, 0.009069646540151095], [0.8619362231254882, 0.8619362231254882]],
    [[0.998998002011988, 0.000998998002011988], [0.000998998002011988, 0.499499001005994]],
]


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(st.floats(1.0, 1.5)), st.floats(1e-3, 1.0))
@hypothesis.example(A=np.array(SLOW_MATRICES[0]), fraction=1e-3)
def test_divergent_linear_map_ends_before_the_norm_rule(A, fraction):
    check_ends_before_the_norm_rule(A, fraction * R / len(A))


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(st.floats(0.5, 0.999)), st.floats(1.001, 3.0))
@hypothesis.example(A=np.array(SLOW_MATRICES[1]), fraction=1.001)
@hypothesis.example(A=np.array(SLOW_MATRICES[2]), fraction=1.001)
def test_infeasible_eps_near_the_limit_ends_before_the_norm_rule(A, fraction):
    check_ends_before_the_norm_rule(A, fraction * eps_max(A, R))


@st.composite
def degree_one_maps(draw):
    """A random linear map, max-times table with gains c t, or linear map after c t scalings."""
    family = draw(st.sampled_from(["linear", "max-times", "scaled linear"]))
    if family == "max-times":
        n = draw(st.integers(2, 8))
        coeffs = st.one_of(st.just(0.0), st.floats(0.05, 1.2))
        rows = [[f"{draw(coeffs)!r}*t" for _ in range(n)] for _ in range(n)]
        return make_max_preserving(rows)
    A = draw(contractive(st.floats(0.05, 1.2)))
    T = make_linear_map(A)
    if family == "scaled linear":
        scalings = st.floats(0.5, 1.5).map(lambda c: f"{c!r}*t")
        T = compose(T, make_diagonal([draw(scalings) for _ in range(len(A))]))
    return T


# A map of degree one and its callable twin, the same function without the
# degree or the Jacobian, must end alike: the map in the policy step's one
# evaluation, the twin in the sphere stage, the pre-phase, the walk or at
# the cap.
@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(degree_one_maps(), st.floats(1e-3, 1.0))
def test_a_homogeneous_map_ends_like_its_unflagged_twin(T, fraction):
    n = T.dimension
    assert T.degree == (1.0, 1.0)
    cfg = SolverConfig(R, fraction * R / n, NEAR_UNIT_CAP)
    report = find_decay_point(T, cfg, n)
    twin = find_decay_point(callable_twin(T), cfg, n)
    assert report.iterations == 1
    if twin.failure_reason != "iteration_cap":
        assert (report.success, report.failure_reason) == (twin.success, twin.failure_reason)
    if report.success:
        assert float(np.min(report.s_star - T(report.s_star))) >= cfg.epsilon
    else:
        assert label_index(report.failure_point, T(report.failure_point), cfg.epsilon) is None


def test_the_first_iterate_is_evaluated_at_the_level_one_barycentre():
    """``on_sphere(eps 1)`` has the bytes of ``r 1/n``, the sphere stage's first point,
    so the memo serves both.

    On the callable twin of ``0.5 I`` that first point is ``s*``.
    """
    for n in (2, 3, 5, 6, 7):
        uniform = np.full(n, R / n).tobytes()
        assert homotopy._on_sphere(np.full(n, 0.3), R).tobytes() == uniform
        T = callable_twin(make_linear_map(0.5 * np.eye(n)))
        report = find_decay_point(T, SolverConfig(R, 0.3, CAP), n)
        assert report.success and report.iterations == 1
        assert report.s_star.tobytes() == uniform


@pytest.mark.parametrize("build", [make_max_preserving, make_diagonal],
                         ids=["max-times", "diagonal"])
def test_a_ray_that_climbs_by_eps_ends_within_the_cap(build):
    """Gain ``t``: each step adds eps 1, r/(n eps) = 5e9 steps to the norm rule.

    Without the sphere stage, the callable twin evaluates every iterate and
    runs to the cap.  With it, the twin's first point ``r 1/n``, a fixed
    point, has no label, and its Newton point, after 2 differences, is
    ``r 1/n`` again: the run ends there.  The policy step's solve is
    singular, and the sphere point ``(r, 0)`` of the Perron vector ``e_1``
    of ``J = I`` has no label: one evaluation ends the run there.
    """
    T = build([["t", None], [None, "t"]] if build is make_max_preserving else ["t", "t"])
    cfg = SolverConfig(R, 1e-9, CAP)
    report = find_decay_point(T, cfg, 2)
    assert (report.failure_reason, report.iterations) == ("label_none", 1)
    assert report.failure_point.tolist() == [10.0, 0.0]
    twin = find_decay_point(callable_twin(T), cfg, 2)
    assert (twin.failure_reason, twin.iterations) == ("label_none", 3)
    assert twin.failure_point.tolist() == [5.0, 5.0]
    twin = without_sphere_stage(callable_twin(T), cfg, 2)
    assert (twin.failure_reason, twin.iterations) == ("iteration_cap", CAP)


@pytest.mark.parametrize("eps", [1e-300, 1e-17, 4e-16])
@pytest.mark.parametrize("build", [lambda: make_linear_map([[1, 0], [0, 0.5]]),
                                   lambda: make_max_preserving([[None, "t"], ["t", None]])],
                         ids=["unit-eigenvalue", "unit-swap"])
def test_a_slack_below_half_an_ulp_still_finds_no_label(build, eps):
    """Neither map has ``w*``, and the sphere point p of its Perron vector has
    ``T(p) >= p``: ``(10, 0)`` from ``e_1``, and the swap's fixed point ``(5, 5)``.

    ``p - T(p) <= 0 < eps`` holds exactly in floating point, so p has no
    label at any eps, and one evaluation ends the run.  These eps lie below
    half an ulp of 5 and 10, where ``T(p)_i + eps`` rounds back to ``p_i``,
    so a sum form ``T(p)_i + eps <= p_i`` would label p.
    """
    T = build()
    report = find_decay_point(T, SolverConfig(R, eps, CAP), 2)
    assert (report.failure_reason, report.iterations) == ("label_none", 1)
    p = report.failure_point
    assert np.all(p - T(p) <= 0.0)


@pytest.mark.parametrize("rows", [
    [[None, "0"], [None, "0"]],
    [[None, "0.5*t"], [None, "0.5*t"]],
    [[None, "max(0.25*t, 0.01*t^2)"], ["0.2*t + 0.01*t^2", None]],
], ids=["0", "0.5*t", "gain text"])
def test_a_limit_on_the_sphere_is_certified(rows):
    """``w* = r 1/n`` has margin exactly eps: the candidate rule, which asks for
    ``eps (1 + 1e-9)``, never fires, but the direct test of w*'s sphere point passes,
    in the policy step and, on the callable twin, as the sphere stage's first point.

    The gain-text table, of degree (1, 2), has no policy step; its margin is
    3.75 in both components at ``r 1/n``, which the sphere stage's first
    point certifies.
    """
    T = make_max_preserving(rows)
    cfg = SolverConfig(R, R / 2 - float(T(np.full(2, R / 2))[0]), CAP)
    report = find_decay_point(T, cfg, 2)
    assert report.success and report.iterations == 1
    assert report.s_star.tolist() == [5.0, 5.0]
    twin = find_decay_point(callable_twin(T), cfg, 2)
    assert twin.success and twin.iterations == 1
    assert twin.s_star.tolist() == [5.0, 5.0]
