"""The table step and the order-interval pre-phase against exact oracles.

For ``A >= 0`` with spectral radius below one, the best margin on the
sphere of radius r is ``eps_max = r / 1'(I - A)^-1 1``; for a max-times
table of gains ``c_ij t`` with cycle mean below one it is ``r / 1'w``,
w the least solution of ``w = 1 + C (x) w``.  Below it a run must
succeed; above it no point decays, and the run must end in
``label_none`` at a sphere point without a label.  Maps built by the
constructors carry their table, and the table step answers them in one
evaluation; the tests of the pre-phase's own mechanism run on
``untabled`` twins, which compute the same values without a table.
"""

import numpy as np
import pytest

from decaycert import homotopy
from decaycert.homotopy import SolverConfig, find_decay_point
from decaycert.labeling import label_index
from decaycert.linear import eps_max
from decaycert.maps import MonotoneMap, compose, make_diagonal, make_linear_map, make_max_preserving

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

R = 10.0
CAP = 1000
# Without its bracket the pre-phase needs steps growing like 1/(1 - rho)
# near rho = 1 (4,612 at rho = 0.999 and eps = 1.01 eps_max); the cap is kept
# that large so that a lost bracket end fails on the counts, not on the cap.
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


def untabled(T: MonotoneMap) -> MonotoneMap:
    """``T`` after an identity max-times factor: the same values, still homogeneous, no table.

    Without a table the solver skips its table step, so a test of the
    pre-phase's own mechanism still reaches it.
    """
    n = T.dimension
    return compose(T, make_max_preserving([["t" if i == j else None for j in range(n)]
                                           for i in range(n)]))


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
    assert not np.any(T(p) + eps <= p)
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


# Max-times tables are homogeneous but not linear.  Their table step answers
# these runs; without it (the twins of the tests further down) the
# bracket's upper end is only a tested point, and runs near the limit take
# up to a few hundred evaluations.
@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(max_times_tables(), st.floats(0.5, 0.99))
def test_max_times_feasible_eps_succeeds(C, fraction):
    check_feasible(max_times_map(C), fraction * max_times_eps_max(C, R), NEAR_UNIT_CAP)


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(max_times_tables(), st.floats(1.01, 2.0))
def test_max_times_infeasible_eps_ends_in_label_none(C, fraction):
    check_infeasible(max_times_map(C), fraction * max_times_eps_max(C, R), NEAR_UNIT_CAP)


# The table step.  Below the limit the optimal point r w*/|w*|_1, w* the least
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


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(st.one_of(
    contractive(st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 1.5))).map(
        lambda A: (A, eps_max(A, R))),
    stochastic().map(lambda A: (A, 0.0))), LIMIT_FRACTIONS)
def test_the_table_step_answers_a_linear_map_in_one_evaluation(case, fraction):
    A, limit = case
    check_one_evaluation(make_linear_map(A), limit, fraction)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(max_times_tables(st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 1.5)),
                                   zero_lines=True), LIMIT_FRACTIONS)
def test_the_table_step_answers_a_max_times_table_in_one_evaluation(C, fraction):
    limit = max_times_eps_max(C, R) if cycle_mean(C) < 1.0 else 0.0
    check_one_evaluation(max_times_map(C), limit, fraction)


@pytest.mark.parametrize("eps,outcome,twin_iterations",
                         [(0.024382, None, 799), (0.024874, "label_none", 919)])
def test_a_near_critical_table_ends_in_one_evaluation(eps, outcome, twin_iterations):
    """Cycle mean 0.995 and eps_max 0.0246282 at r = 10: 0.99 and 1.01 of it.

    The twin without a table crawls through the pre-phase instead.
    """
    C = np.array([[0, 0, 0, 0, 0], [0, 0, 0.9082, 0, 1.5708], [0, 1.0901, 0, 0, 0],
                  [1.4519, 0, 0, 0.1795, 0], [0, 0, 0, 0.2454, 0]])
    assert max_times_eps_max(C, R) == pytest.approx(0.0246282, abs=1e-7)
    T = max_times_map(C)
    cfg = SolverConfig(R, eps, 100_000)
    for M, iterations in ((T, 1), (untabled(T), twin_iterations)):
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


def test_a_refused_perron_vector_leaves_the_run_to_the_pre_phase(monkeypatch):
    """Where ``linear.perron_direction`` refuses the Perron vector, the table step
    evaluates nothing, and the run is the pre-phase's alone."""
    def refuse(A):
        raise ValueError("no dominant eigenvector")

    monkeypatch.setattr(homotopy, "perron_direction", refuse)
    T = make_linear_map(DEFECTIVE)
    cfg = SolverConfig(R, 0.1, CAP)
    report, twin = (find_decay_point(M, cfg, 4) for M in (T, untabled(T)))
    assert (report.failure_reason, report.iterations) == (twin.failure_reason, twin.iterations)
    assert report.failure_reason == "label_none"
    np.testing.assert_array_equal(report.failure_point, twin.failure_point)


@pytest.mark.parametrize("eps,twin_iterations", [(1.0, 5), (1e9, 2)])
def test_a_table_point_that_overflows_with_a_label_leaves_the_run_to_the_pre_phase(
        eps, twin_iterations):
    """``diag(1e-300 t, t) o A`` has the table ``[[0, 1], [0, 0.5]]``, but its inner
    ``A p`` overflows at the table's point ``r (3, 2)/5``, where component 2 decays.

    As for a pre-phase point, such a value does not end the run: the
    pre-phase runs as in the twin without a table, one evaluation later.
    """
    T = compose(make_diagonal(["1e-300*t", "t"]), make_linear_map([[0, 1e300], [0, 0.5]]))
    assert T.table[1].tolist() == [[0.0, 1.0], [0.0, 0.5]]
    cfg = SolverConfig(1e10, eps, CAP)
    report, twin = (find_decay_point(M, cfg, 2) for M in (T, untabled(T)))
    assert twin.iterations == twin_iterations
    assert (report.failure_reason, report.iterations) == (twin.failure_reason,
                                                          twin.iterations + 1)
    np.testing.assert_array_equal(report.failure_point, twin.failure_point)


def test_a_max_times_cycle_above_one_ends_within_three_evaluations():
    """The cycle 1 -> 2 -> 3 -> 1 has gain 0.5 * 2 * 1.05 = 1.05, so no point decays.

    Without its table, each iterate is evaluated at its sphere point and
    tested on both sides, and the third iterate's point has no label.  An
    unflagged twin evaluates the iterates themselves until the norm rule
    ends it, after 109 evaluations.
    """
    T = untabled(make_max_preserving([[None, "0.5*t", None], [None, None, "2*t"],
                                      ["1.05*t", None, None]]))
    report = find_decay_point(T, SolverConfig(R, 0.01, CAP), 3)
    assert (report.failure_reason, report.iterations) == ("label_none", 3)
    p = report.failure_point
    assert not np.any(T(p) + 0.01 <= p)


# Linear T below the limit: the candidate bound, plain or at the bracket's
# upper end, is a proof, so the first sphere point the solver evaluates is s* itself.  Every
# iterate lies below the limit w* = (I - A)^-1 eps 1, whose norm is at most
# 0.999 r, so the evaluated points on the sphere are told apart by norm.
@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(st.floats(0.05, 0.999)), st.floats(1e-3, 0.999))
def test_feasible_eps_evaluates_one_sphere_point(A, fraction):
    eps = fraction * eps_max(A, R)
    seen = []

    def recording(s):
        seen.append(np.array(s))
        return A @ s

    T = MonotoneMap(len(A), recording, "linear")
    report = find_decay_point(T, SolverConfig(R, eps, NEAR_UNIT_CAP), len(A))
    assert report.success, report.failure_reason
    on_sphere = [s for s in seen if abs(float(np.sum(s)) - R) <= 1e-9 * R]
    assert len(on_sphere) == 1
    np.testing.assert_array_equal(on_sphere[0], report.s_star)


# Linear T above the limit: the bracket's lower end
# ``w* >= w_k + d_k/(1 - theta)`` (theta the smallest ratio d_k,i/d_k-1,i),
# or the ray of d_k when theta >= 1, along which the iterates diverge, puts a
# sphere point without a label in reach before the norm rule fires, and so
# may an iterate's own sphere point.  How soon depends on how fast theta
# settles near rho: most draws end in under 15 evaluations, but a slow mode
# (SLOW_MODES below) can take hundreds, so the property bounds the count by
# that of the norm rule alone, the same matrix as a map without the
# homogeneous flag.
def check_lower_bound(A, eps):
    T = untabled(make_linear_map(A))  # with its table, the table step would answer first
    report = find_decay_point(T, SolverConfig(R, eps, NEAR_UNIT_CAP), len(A))
    assert report.failure_reason == "label_none"
    p = report.failure_point
    assert abs(float(np.sum(p)) - R) <= 1e-9 * R
    assert np.all(A @ p + eps > p)  # no label, checked without the solver
    plain = MonotoneMap(len(A), lambda s: A @ s, "matrix")
    norm_rule = find_decay_point(plain, SolverConfig(R, eps, NEAR_UNIT_CAP), len(A))
    assert norm_rule.failure_reason == "label_none"
    assert report.iterations <= norm_rule.iterations
    return report.iterations, norm_rule.iterations


# Slow modes of the lower ratio, from randomized runs of the properties
# below: (name, A, eps, evaluations with the bound, without it).  theta
# settles near rho only as fast as the other modes die out, and an
# eigenvalue near -rho or a component coupled to the rest by about 1e-3
# dies out slowly.  A fix to that shows here first.
SLOW_MODES = [
    ("eigenvalue -0.969 beside rho = 1",
     [[0.015371590112779823, 1.5371590112779823], [0.6307044999534603, 0.015371590112779823]],
     0.005, 172, 952),
    ("rho = 0.950 coupled by 0.009 at 1.001 eps_max",
     [[0.8619362231254882, 0.009069646540151095], [0.8619362231254882, 0.8619362231254882]],
     0.09811756436362125, 34, 138),
    ("rho = 0.999 coupled by 0.001 at 1.001 eps_max",
     [[0.998998002011988, 0.000998998002011988], [0.000998998002011988, 0.499499001005994]],
     0.009950397456174544, 30, 6903),
]


@pytest.mark.parametrize("name,A,eps,iterations,norm_rule_iterations", SLOW_MODES,
                         ids=[case[0] for case in SLOW_MODES])
def test_slow_mode_of_the_lower_tail_bound(name, A, eps, iterations, norm_rule_iterations):
    assert check_lower_bound(np.array(A), eps) == (iterations, norm_rule_iterations)


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(st.floats(1.0, 1.5)), st.floats(1e-3, 1.0))
@hypothesis.example(A=np.array(SLOW_MODES[0][1]), fraction=1e-3)
def test_divergent_linear_map_ends_before_the_norm_rule(A, fraction):
    check_lower_bound(A, fraction * R / len(A))


@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(st.floats(0.5, 0.999)), st.floats(1.001, 3.0))
@hypothesis.example(A=np.array(SLOW_MODES[1][1]), fraction=1.001)
@hypothesis.example(A=np.array(SLOW_MODES[2][1]), fraction=1.001)
def test_infeasible_eps_near_the_limit_ends_before_the_norm_rule(A, fraction):
    check_lower_bound(A, fraction * eps_max(A, R))


# Every bracket the pre-phase forms on a linear map, checked against the map
# and against w* = (I - A)^-1 eps 1 itself, each end as the solver holds it,
# scaled by 1 - theta: the upper end (theta < 1) satisfies A U + eps 1 <= U
# and U >= w*, so its sphere point decays with margin eps when |U|_1 <= r;
# the lower end satisfies A L + eps 1 >= L and L <= w* (at theta = 1 it is
# the ray of d_k, and A d_k >= d_k).  The fractions lie near the limit, so
# that most runs take several steps, but keep |w*|_1 away from r, where the
# iterates would crawl to the cap.
@hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
@hypothesis.given(contractive(st.floats(0.05, 0.999)),
                  st.one_of(st.floats(0.8, 0.99), st.floats(1.01, 1.5)))
def test_bracket_ends_bound_the_least_fixed_point(A, fraction):
    eps = fraction * eps_max(A, R)
    w_star = np.linalg.solve(np.eye(len(A)) - A, np.full(len(A), eps))
    brackets = []

    def recording(w, prev, step):
        ends = bracket(w, prev, step)
        brackets.append(ends)
        return ends

    bracket = homotopy._bracket
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homotopy, "_bracket", recording)
        find_decay_point(untabled(make_linear_map(A)), SolverConfig(R, eps, NEAR_UNIT_CAP),
                         len(A))
    tol = 1e-9
    for (lo, low), (hi, high) in brackets:
        assert np.all(A @ low + (1.0 - lo) * eps >= low * (1.0 - tol))
        assert np.all(low <= (1.0 - lo) * w_star * (1.0 + tol))
        if hi < 1.0:
            assert np.all(A @ high + (1.0 - hi) * eps <= high * (1.0 + tol))
            assert np.all(high >= (1.0 - hi) * w_star * (1.0 - tol))


# A homogeneous map (T(l s) = l T(s)) evaluates each iterate at its sphere
# point instead, reads T(w) = T(p) |w|_1/r off that evaluation, and so needs
# no second evaluation when the candidate passes.  Its twin, the same
# function without the flag, takes the path of every other map: both must
# end alike, the flagged one at most one evaluation sooner.  Where T(1) is a
# multiple of 1, every iterate lies on the ray of w_0 = eps 1 and has the same
# sphere point; where it has no label, the first evaluation's two-sided test
# ends the run there (test_iterates_on_one_ray_share_one_evaluation), so
# there the flagged run may save more, and where the twin climbs to the cap
# the flagged run still ends (test_a_ray_that_climbs_by_eps_ends_within_the_cap).
# Off that ray too, an infeasible flagged run ends at the first sphere point
# it evaluates without a label, which may come long before the twin's norm
# rule and lie elsewhere; a feasible run takes the path of its twin.
# And where the limit w* lies on the sphere with margin exactly eps, the twin
# crawls to the cap while the flagged run's direct test of w*'s sphere point
# passes (test_a_limit_on_the_sphere_is_certified).  So where the twin runs to
# the cap, the flagged run must end in a certificate or a point without a label.
@st.composite
def homogeneous_maps(draw):
    """A random linear map, max-times table with gains c t, or linear map after c t scalings,
    without its table, so that the pre-phase runs."""
    family = draw(st.sampled_from(["linear", "max-times", "scaled linear"]))
    if family == "max-times":
        n = draw(st.integers(2, 8))
        coeffs = st.one_of(st.just(0.0), st.floats(0.05, 1.2))
        rows = [[f"{draw(coeffs)!r}*t" for _ in range(n)] for _ in range(n)]
        return untabled(make_max_preserving(rows))
    A = draw(contractive(st.floats(0.05, 1.2)))
    T = make_linear_map(A)
    if family == "scaled linear":
        scalings = st.floats(0.5, 1.5).map(lambda c: f"{c!r}*t")
        T = compose(T, make_diagonal([draw(scalings) for _ in range(len(A))]))
    return untabled(T)


# Every map the constructors flag homogeneous is also convex (maxima and sums
# of c t, composed), and for a convex map the bracket's lower end needs no
# additivity: once it passes its norm test, its sphere point has no label,
# and its two-sided test ends the run there.  So no run goes on past such an
# end, and only the last bracket of a run may have one.
@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(homogeneous_maps(), st.floats(1e-3, 1.0))
def test_a_lower_end_past_the_sphere_ends_a_homogeneous_run(T, fraction):
    lower_ends = []

    def recording(w, prev, step):
        ends = bracket(w, prev, step)
        lower_ends.append(ends[0])
        return ends

    bracket = homotopy._bracket
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homotopy, "_bracket", recording)
        report = find_decay_point(T, SolverConfig(R, fraction * R / T.dimension, NEAR_UNIT_CAP),
                                  T.dimension)
    past = [i for i, (lo, low) in enumerate(lower_ends)
            if float(np.sum(low)) > (1.0 - lo) * R * (1.0 + 1e-9)]
    assert past in ([], [len(lower_ends) - 1])
    if past:
        assert report.failure_reason == "label_none"


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(homogeneous_maps(), st.floats(1e-3, 1.0))
def test_a_homogeneous_map_ends_like_its_unflagged_twin(T, fraction):
    n = T.dimension
    assert T.homogeneous
    cfg = SolverConfig(R, fraction * R / n, NEAR_UNIT_CAP)
    report = find_decay_point(T, cfg, n)
    twin = find_decay_point(MonotoneMap(n, T, T.kind), cfg, n)
    assert report.failure_reason != "iteration_cap"
    if twin.failure_reason != "iteration_cap":
        assert (report.success, report.failure_reason) == (twin.success, twin.failure_reason)
        assert report.iterations <= twin.iterations
    at_ones = T(np.ones(n))
    if report.success and np.ptp(at_ones) > 1e-12 * np.max(at_ones):  # off the ray of 1
        assert report.iterations >= twin.iterations - 1
    if report.success:
        assert float(np.min(report.s_star - T(report.s_star))) >= cfg.epsilon
    else:
        assert label_index(report.failure_point, T(report.failure_point), cfg.epsilon) is None


def test_the_first_iterate_is_evaluated_at_the_level_one_barycentre():
    """``on_sphere(eps 1)`` has the bytes of ``r 1/n``, so the memo serves both.

    The run's one evaluation is its certificate, so ``s*`` is the point evaluated.
    """
    for n in (2, 3, 5, 6, 7):
        T = untabled(make_linear_map(0.5 * np.eye(n)))
        report = find_decay_point(T, SolverConfig(R, 0.3, CAP), n)
        assert report.success and report.iterations == 1
        assert report.s_star.tobytes() == np.full(n, R / n).tobytes()


def test_iterates_on_one_ray_share_one_evaluation():
    """T(1) = c 1 keeps every iterate on the ray of 1, so each has the sphere point r 1/n.

    The first evaluation, at r 1/n, finds no label there and ends the run in
    label_none, where the twin's climb to the norm rule ends at the same
    point.
    """
    T = untabled(make_max_preserving([["1.1649192981766365*t", None],
                                      [None, "1.1649192981766365*t"]]))
    cfg = SolverConfig(R, 0.005, CAP)
    report = find_decay_point(T, cfg, 2)
    twin = find_decay_point(MonotoneMap(2, T, T.kind), cfg, 2)
    assert report.failure_reason == twin.failure_reason == "label_none"
    assert (report.iterations, twin.iterations) == (1, 33)
    np.testing.assert_allclose(report.failure_point, twin.failure_point, rtol=1e-12)


@pytest.mark.parametrize("build", [make_max_preserving, make_diagonal],
                         ids=["max-times", "diagonal"])
def test_a_ray_that_climbs_by_eps_ends_within_the_cap(build):
    """Gain ``t``: each step adds eps 1, r/(n eps) = 5e9 steps to the norm rule.

    Every iterate has the sphere point r 1/n, which has no label: the first
    evaluation's two-sided test ends the run there, where the twin
    evaluates every iterate and runs to the cap.
    """
    T = untabled(build([["t", None], [None, "t"]] if build is make_max_preserving else ["t", "t"]))
    cfg = SolverConfig(R, 1e-9, CAP)
    report = find_decay_point(T, cfg, 2)
    assert (report.failure_reason, report.iterations) == ("label_none", 1)
    assert report.failure_point.tolist() == [5.0, 5.0]
    twin = find_decay_point(MonotoneMap(2, T, T.kind), cfg, 2)
    assert (twin.failure_reason, twin.iterations) == ("iteration_cap", CAP)


@pytest.mark.parametrize("gain", ["0", "0.5*t"])
def test_a_limit_on_the_sphere_is_certified(gain):
    """``w* = r 1/n`` has margin exactly eps: the candidate rule, which asks for
    ``eps (1 + 1e-9)``, never fires, but the direct test of w*'s sphere point passes."""
    T = untabled(make_max_preserving([[None, gain], [None, gain]]))
    cfg = SolverConfig(R, R / 2 - float(T(np.full(2, R / 2))[0]), CAP)
    report = find_decay_point(T, cfg, 2)
    assert report.success and report.iterations == 1
    assert report.s_star.tolist() == [5.0, 5.0]
    twin = find_decay_point(MonotoneMap(2, T, T.kind), cfg, 2)
    assert (twin.failure_reason, twin.iterations) == ("iteration_cap", CAP)


def test_a_step_that_rounds_down_is_kept_at_the_iterate():
    """The last two components never move and the second settles after one step.

    Read off the sphere point, the second's next value rounds one ulp below
    the iterate.  Kept there, the step stays nonnegative and the bracket's
    upper end answers at the same step as with direct evaluations.
    """
    c = "0.6308831893890735*t"
    T = untabled(make_max_preserving([[c, c, None, c], [None, None, None, c], [None] * 4,
                                      [None] * 4]))
    cfg = SolverConfig(R, 0.6308831893890735 * R / 4, CAP)
    report = find_decay_point(T, cfg, 4)
    twin = find_decay_point(MonotoneMap(4, T, T.kind), cfg, 4)
    assert report.success and twin.success
    assert report.iterations == twin.iterations == 3
    assert float(np.min(report.s_star - T(report.s_star))) >= cfg.epsilon
