import ast
import hashlib
import math
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from decaycert import homotopy
from decaycert.homotopy import SolveReport, SolverConfig, find_decay_point
from decaycert.labeling import LabeledVertexSet, complete_subsets, label_index
from decaycert.linear import eps_max, random_contractive
from decaycert.maps import (
    MonotoneMap,
    compose,
    make_chain_map,
    make_diagonal,
    make_flipflop_map,
    make_linear_map,
    make_max_preserving,
)
from stages import callable_twin, plain_walk, recorded, without_sphere_stage


def vertex_set(labels):
    """n+1 generic distinct vertices carrying the given labels."""
    k = len(labels)
    verts = [(np.arange(k) == i).astype(float) + 0.01 * i for i in range(k)]
    return LabeledVertexSet(verts, list(labels))


class TestCompleteSubsets:
    def test_wrong_cardinality(self):
        with pytest.raises(ValueError):
            complete_subsets(vertex_set([1, 2, 3]), 3)

    @pytest.mark.parametrize("n", [True, 1.0])
    def test_a_dimension_that_is_no_int_is_named(self, n):
        # True would count as n = 1, and 1.0 would fail in range() with a bare TypeError
        with pytest.raises(ValueError, match=f"^n must be an int, got {n!r}$"):
            complete_subsets(vertex_set([1, None]), n)

    @pytest.mark.parametrize("labels, kept", [
        ([1, 2, 2, 3], [(1, 2, 3), (1, 2, 3)]),  # dropping a 1 or a 3 keeps both 2s
        ([1, None, 2], [(1, 2)]),
        ([None, 3, 1, 2], [(3, 1, 2)]),
        ([1, None, None], []),
    ], ids=["duplicated label", "None label", "None label first", "two None labels"])
    def test_a_duplicated_or_missing_label_is_not_complete(self, labels, kept):
        assert [s.labels for s in complete_subsets(vertex_set(labels), len(labels) - 1)] == kept


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(r=10.0)
        assert cfg.epsilon == 1e-2
        assert cfg.max_iterations == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(r=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(r=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(r=1.0, max_iterations=0)
        for r in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(r=r)
        for eps in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(r=1.0, epsilon=eps)
        for cap in (2.5, 100.0, True, "100"):
            with pytest.raises(ValueError, match="int"):
                SolverConfig(r=1.0, max_iterations=cap)


def check_success_postcondition(T, cfg, report: SolveReport):
    assert report.success
    s = report.s_star
    margin = float(np.min(s - T(s)))
    assert margin >= cfg.epsilon - 1e-12
    assert report.margin == pytest.approx(margin)
    assert abs(float(np.sum(s)) - cfg.r) <= 1e-9 * cfg.r
    assert report.iterations <= cfg.max_iterations


class TestFindDecayPoint:
    def test_chain_n2(self):
        T = make_chain_map(2)
        cfg = SolverConfig(r=10.0, epsilon=0.1)
        report = find_decay_point(T, cfg, 2)
        check_success_postcondition(T, cfg, report)

    def test_identity_fails_with_label_none(self):
        T = make_linear_map(np.eye(2))
        report = find_decay_point(T, SolverConfig(r=1.0, epsilon=1e-2), 2)
        assert not report.success
        assert report.s_star is None
        assert report.failure_reason == "label_none"
        assert report.failure_point is not None

    def test_swap_half_succeeds(self):
        T = make_linear_map([[0, 0.5], [0.5, 0]])
        cfg = SolverConfig(r=10.0, epsilon=1e-2)
        report = find_decay_point(T, cfg, 2)
        check_success_postcondition(T, cfg, report)

    def test_iteration_cap_reported_honestly(self):
        # the sphere stage's first Newton point, the second evaluation, certifies
        T = make_chain_map(3)
        cfg = SolverConfig(r=10.0, epsilon=0.1, max_iterations=1)
        report = find_decay_point(T, cfg, 3)
        assert not report.success
        assert report.failure_reason == "iteration_cap"
        assert report.iterations == 1

    def test_deterministic(self):
        T = make_chain_map(4)
        cfg = SolverConfig(r=10.0, epsilon=0.1, max_iterations=100000)
        a = find_decay_point(T, cfg, 4)
        b = find_decay_point(T, cfg, 4)
        assert a.iterations == b.iterations
        assert a.margin == b.margin
        np.testing.assert_array_equal(a.s_star, b.s_star)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_map_value_is_named(self, bad):
        # B s with B = A or A/2 below s_1 = 5.5.  The sphere stage evaluates (5, 5),
        # where neither map decays with margin 3, then the two differences
        # (5 + 5e-6, 5) and (5, 5 + 5e-6), and then its Newton point, the optimal
        # point of B, which lies past s_1 = 5.5
        A = np.array([[0.0, 0.9], [0.1, 0.0]])
        T = MonotoneMap(2, lambda s: np.full(2, bad) if s[0] > 5.5 else A @ s, "partial")
        for candidate, B in ((T, A), (compose(make_linear_map(0.5 * np.eye(2)), T), 0.5 * A)):
            report = find_decay_point(candidate, SolverConfig(r=10.0, epsilon=3.0), 2)
            assert not report.success
            assert report.failure_reason == "nonfinite"
            assert report.iterations == 4
            optimal = np.linalg.solve(np.eye(2) - B, np.ones(2))
            np.testing.assert_allclose(report.failure_point, 10.0 * optimal / optimal.sum(),
                                       rtol=1e-8)

    def test_pre_phase_evaluations_count_toward_the_cap(self, monkeypatch):
        # on the callable twin, with no policy step, this case needs 5
        # evaluations: r 1/n, its 3 differences and the Newton point
        def no_walk(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(homotopy, "CompleteCellSearch", no_walk)
        T = callable_twin(make_linear_map(random_contractive(3, 0.8, 0)))
        cfg = SolverConfig(r=10.0, epsilon=0.6387007034997124, max_iterations=3)
        with recorded() as seen:
            report = find_decay_point(T, cfg, 3)
        assert report.failure_reason == "iteration_cap"
        assert report.iterations == len(seen) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_pre_phase_iterate_is_named(self, bad):
        # with the sphere stage, whose point r 1/n = (0.25, 0.25) has no label,
        # the run ends there.  Without it, w0 = (0.1, 0.1) gives no candidate at
        # r = 0.5, so the second step evaluates the iterate w1 = 0.9 w0 + 0.1 =
        # (0.19, 0.19)
        T = MonotoneMap(2, lambda s: np.full(2, bad) if 0.15 < s[0] < 0.2 else 0.9 * s,
                        "partial")
        cfg = SolverConfig(r=0.5, epsilon=0.1)
        report = find_decay_point(T, cfg, 2)
        assert (report.failure_reason, report.iterations) == ("label_none", 3)
        assert report.failure_point.tolist() == [0.25, 0.25]
        report = without_sphere_stage(T, cfg, 2)
        assert (report.failure_reason, report.iterations) == ("nonfinite", 2)
        np.testing.assert_allclose(report.failure_point, [0.19, 0.19], rtol=1e-15)

    def test_proved_infeasible_point_with_a_label_walks_the_whole_ladder(self, monkeypatch):
        # no decay point: s1 >= 2 + 8 forces s2 >= s1^2 + 8 >= 108 > r.  The first
        # component saturates, so the last pre-phase step is 0 there and no box
        # point exists; T is not subhomogeneous, and the iterate scaled to the
        # sphere has a label.  The sphere stage would end the run at its best
        # point, which has no label, before the pre-phase.  The three inflated
        # rungs each stop at level 8, at lattice points that the final rung's walk
        # meets as well, so they add no evaluation to the final rung's 35
        search_cls = homotopy.CompleteCellSearch
        rungs = 0

        def counting_search(m, dim, label_of):
            nonlocal rungs
            rungs += m == 2  # every rung's walk starts at level 2
            return search_cls(m, dim, label_of)

        monkeypatch.setattr(homotopy, "CompleteCellSearch", counting_search)
        T = MonotoneMap(2, lambda s: np.array([np.sqrt(min(s[0], 4.0)), s[0] ** 2]),
                        "saturating")
        cfg = SolverConfig(r=100.0, epsilon=8.0, max_iterations=10_000)
        report = without_sphere_stage(T, cfg, 2)
        assert (report.failure_reason, report.iterations) == ("label_none", 35)
        assert rungs == len(homotopy._slack_ladder(8.0, 100.0, 2)) == 4
        p = report.failure_point
        assert p.tolist() == [9.375, 90.625]
        assert not np.any(T(p) + 8.0 <= p)
        assert abs(float(np.sum(p)) - 100.0) <= 1e-9 * 100.0

    def test_label_none_point_is_on_the_sphere_when_the_iterate_norm_overflows(self):
        # w0 = (100, 100) maps to (1e308, 1e308), whose 1-norm overflows to inf
        T = callable_twin(make_linear_map([[0.0, 1e306], [1e306, 0.0]]))
        report = find_decay_point(T, SolverConfig(r=10.0, epsilon=100.0), 2)
        assert report.failure_reason == "label_none"
        assert report.failure_point.tolist() == [5.0, 5.0]

    def test_a_sphere_point_that_overflows_without_a_label_ends_the_run(self):
        # the policy step tests the sphere point of the Perron vector, r 1/n to
        # rounding, where T = (inf, inf): no component of the point decays, so
        # the run ends there, named nonfinite
        T = make_linear_map([[0.0, 1e308], [1e308, 0.0]])
        report = find_decay_point(T, SolverConfig(r=10.0, epsilon=2.0), 2)
        assert (report.failure_reason, report.iterations) == ("nonfinite", 1)
        np.testing.assert_allclose(report.failure_point, [5.0, 5.0], rtol=1e-15)

    def test_an_overflowing_norm_ratio_ends_at_the_first_sphere_point(self):
        # |w0|_1 / r = 2e300 / 1e-10 would overflow, but eps > r, so the
        # policy step's point r 1/n has no label: by homogeneity that ends
        # the run before any pre-phase iterate
        T = make_linear_map([[0.5, 0.0], [0.0, 0.5]])
        report = find_decay_point(T, SolverConfig(r=1e-10, epsilon=1e300), 2)
        assert (report.failure_reason, report.iterations) == ("label_none", 1)
        assert report.failure_point.tolist() == [5e-11, 5e-11]

    @pytest.mark.parametrize("d,r,reason", [(1e200, 10.0, "nonfinite"),
                                            (1e160, 1e-100, "label_none")],
                             ids=["T-overflows", "only-J-overflows"])
    def test_a_jacobian_that_overflows_at_one_leaves_no_policy_point(self, d, r, reason):
        # J(1) = diag(d^2) is inf, so policy iteration has no policy to start
        # from and the sphere stage's first point r 1/n ends the run: at r = 10
        # T(r 1/n) overflows too; at r = 1e-100 it is 5e219, finite, but the
        # stage has no Newton step from an infinite J, and the point has no label
        L = make_linear_map(np.diag([d, d]))
        T = compose(L, L)
        assert T.degree == (1.0, 1.0) and homotopy._policy_point(T) is None
        report = find_decay_point(T, SolverConfig(r=r, epsilon=0.01), 2)
        assert (report.failure_reason, report.iterations) == (reason, 1)
        assert report.failure_point.tolist() == [r / 2, r / 2]

    @pytest.mark.parametrize("eps,reason,twin_iterations", [(0.1, None, 10),
                                                            (0.5, "label_none", 37)])
    def test_a_degree_one_composition_that_is_not_piecewise_linear_takes_the_policy_step(
            self, eps, reason, twin_iterations):
        # (A s^0.5)^2 is (1, 1) only as a product of ends, and concave, not piecewise
        # linear; its policy point still certifies or, by homogeneity alone, ends the
        # run without a label, as its callable twin's sphere stage does
        n = 8
        T = compose(make_diagonal(["t^2"] * n), make_linear_map(random_contractive(n, 0.8, 0)),
                    make_diagonal(["t^0.5"] * n))
        assert T.degree == (1.0, 1.0)
        cfg = SolverConfig(r=10.0, epsilon=eps, max_iterations=20_000)
        report, twin = find_decay_point(T, cfg, n), find_decay_point(callable_twin(T), cfg, n)
        assert (report.failure_reason, report.iterations) == (reason, 1)
        assert (twin.failure_reason, twin.iterations) == (reason, twin_iterations)
        if reason is None:
            assert float(np.min(report.s_star - T(report.s_star))) >= eps
        else:
            p = report.failure_point
            assert label_index(p, T(p), eps) is None

    def test_label_none_when_the_first_iterate_lies_outside_the_sphere(self):
        # without the sphere stage, whose point r 1/n = (0.5, 0.5) has no label,
        # w0 = (1, 1), the first evaluation, already has norm 2 > r and
        # T(w0) = 0: the last step is 0, so there is no box point, and w1 = w0
        # scaled to the sphere is r 1/n, the second evaluation, which has no label
        T = callable_twin(make_linear_map(np.zeros((2, 2))))
        report = without_sphere_stage(T, SolverConfig(r=1.0, epsilon=1.0), 2)
        assert report.failure_reason == "label_none"
        assert report.iterations == 2
        assert report.failure_point.tolist() == [0.5, 0.5]

    def test_dimension_checks(self):
        T = make_chain_map(3)
        with pytest.raises(ValueError):
            find_decay_point(T, SolverConfig(r=1.0), 2)
        with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
            find_decay_point(make_linear_map([[0.5]]), SolverConfig(r=1.0), 1)
        with pytest.raises(ValueError, match=r"^n must be an int, got 2\.0$"):
            find_decay_point(make_chain_map(2), SolverConfig(r=1.0), 2.0)

    @pytest.mark.parametrize("T, r", [(make_linear_map([[0.0, 0.5], [0.5, 0.0]]), 5e-324),
                                      (make_chain_map(5), 1e-323)])
    def test_a_radius_whose_uniform_point_underflows_is_named(self, T, r):
        # r/n is 0, so the uniform sphere point would be the origin
        n = T.dimension
        with pytest.raises(ValueError, match=rf"^r = {r!r} is too small for dimension {n}: "):
            find_decay_point(T, SolverConfig(r=r, epsilon=r), n)
        report = find_decay_point(T, SolverConfig(r=n * 5e-324, epsilon=r), n)  # r/n is positive
        assert report.iterations >= 1


def test_a_label_is_read_only_through_the_evaluator():
    """``label_index`` is called once in ``homotopy``, inside ``_Evaluator.label``,
    the one place where a sphere point without a label ends the run."""
    tree = ast.parse(Path(homotopy.__file__).read_text())

    def calls(node):
        return [call.lineno for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "label_index"]

    evaluator = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "_Evaluator")
    methods = {node.name: node for node in evaluator.body if isinstance(node, ast.FunctionDef)}
    assert "label" in methods
    assert len(calls(tree)) == 1 and calls(tree) == calls(methods["label"])


def test_slack_ladder_rungs():
    rungs = [0.1 * 2.0 ** (j / 2.0) for j in range(9, 0, -1)]  # up to r/(2n) = 2.5
    assert homotopy._slack_ladder(0.1, 10.0, 2) == rungs + [0.1]
    # 2.0 ** (j / 2) alone overflows past j = 2047, long before eps 2^(j/2) passes r/(2n)
    ladder = homotopy._slack_ladder(1e-3, 1e308, 5)
    assert ladder[-1] == 1e-3 and ladder[0] <= 1e308 / 10 < ladder[0] * 2.0 ** 0.5
    assert all(math.isclose(a, b * 2.0 ** 0.5) for a, b in zip(ladder, ladder[1:]))


# Evaluation counts and decay points pinned at r=10, cap 100 000, eps=0.1
# unless given.  A change to the policy step, the sphere stage, the
# pre-phase, the labeling, the pivot walk or the slack ladder moves these.
# The chain maps' sphere stage starts at r 1/n, and its first Newton step
# succeeds (GOLDEN_PATH_SHA256 also pins their plain walk, at n = 2..5).
# A linear map's policy
# step tests the optimal point r (I - A)^-1 1 / |(I - A)^-1 1|_1 first, so
# it is s*.  The others are products of float arithmetic (the linear ones of
# matrix arithmetic, whose last bits may depend on the BLAS kernel), and are
# compared to 1e-12.
GOLDEN_WALKS = [
    ("chain n=2", lambda: make_chain_map(2), None, 2, [6.350166429508265, 3.6498335704917353]),
    ("chain n=3", lambda: make_chain_map(3), None, 2,
     [4.600650127686889, 3.5255081267302835, 1.8738417455828278]),
    ("chain n=4", lambda: make_chain_map(4), None, 2,
     [3.581038491994183, 3.204518268225517, 1.9068607533327635, 1.3075824864475365]),
    ("chain n=5", lambda: make_chain_map(5), None, 2,
     [2.880849743001626, 2.8582318338501946, 1.8428088721762907, 1.3155368485711012,
      1.1025727024007865]),
    ("linear n=6 seed 0", lambda: make_linear_map(random_contractive(6, 0.8, 0)), None, 1,
     [1.502997266033915, 1.893397340493121, 1.7122348596536232, 1.3031304710924405,
      2.1140531472860364, 1.4741869154408602]),
    ("linear n=3 rho=0.8 seed 0 at 0.9 eps_max",
     lambda: make_linear_map(random_contractive(3, 0.8, 0)), 0.6387007034997124, 1,
     [1.9728452921751247, 4.165402387474354, 3.861752320350522]),
]


# random_contractive(6, 0.99, 6) at 0.99 and 1.01 eps_max (eps_max = 0.016722...).
# Near rho = 1 the pre-phase's iterates crawl at the contraction rate: on
# the map's callable twin the sphere stage's Newton step with a difference
# Jacobian answers the feasible run in 8 evaluations, and ends the
# infeasible one at its best point, which has no label, in 15.  The policy
# step tests the optimal point at once, which is s* below the limit and has
# no label above it, so both runs end at the same point.  These cases are
# not in GOLDEN_PATH_SHA256 below.
NEAR_UNIT_WALKS = [
    ("linear n=6 rho=0.99 seed 6 at 0.99 eps_max",
     lambda: make_linear_map(random_contractive(6, 0.99, 6)), 0.01655525803660378, 1,
     [1.8548089295300352, 1.5782894693704732, 1.5390268638913054, 1.5730061141496752,
      1.6367913725267569, 1.8180772505317537]),
    ("linear n=3 rho=0.9 seed 6 at 0.99 eps_max",
     lambda: make_linear_map(random_contractive(3, 0.9, 6)), 0.33121916472713053, 1,
     [2.520868718466577, 4.2550917209904435, 3.2240395605429804]),
    ("linear n=3 rho=0.8 seed 6 at 0.99 eps_max",
     lambda: make_linear_map(random_contractive(3, 0.8, 6)), 0.6621571365322919, 1,
     [2.622265153842403, 4.1173679849772205, 3.2603668611803758]),
]


@pytest.mark.parametrize("name,build,eps,iterations,s_star", GOLDEN_WALKS + NEAR_UNIT_WALKS,
                         ids=[case[0] for case in GOLDEN_WALKS + NEAR_UNIT_WALKS])
def test_golden_walk(name, build, eps, iterations, s_star):
    T = build()
    report = find_decay_point(
        T, SolverConfig(r=10.0, epsilon=eps or 0.1, max_iterations=100_000), T.dimension
    )
    assert report.success
    assert report.iterations == iterations
    np.testing.assert_allclose(report.s_star, s_star, rtol=1e-12, atol=0.0)


def chain_witness_margin(n: int, r: float = 10.0) -> float:
    """The margin of ``p(t) = (t^(1/1!), ..., t^(1/n!))`` scaled to 1-norm r.

    ``(T p)_i`` is ``p_i / 2`` inside the chain and ``p_i / 4`` at its ends, so
    p decays at every t; t is found by bisection on the norm.
    """
    facts = [math.factorial(i) for i in range(1, n + 1)]

    def point(t):
        return np.array([t ** (1.0 / f) for f in facts])

    lo, hi = 1e-12, r
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if point(mid).sum() < r:
            lo = mid
        else:
            hi = mid
    p = point(lo)
    p *= r / p.sum()
    return float(np.min(p - make_chain_map(n)(p)))


@pytest.mark.parametrize("fraction", [0.9, 0.97])
@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_the_chain_map_near_its_witness_margin_takes_few_evaluations(n, fraction):
    """The sphere stage's first Newton point certifies the chain map close to the
    witness's margin: r 1/n, then that point.

    With power steps in their place, n = 8 and 9 at both fractions spent a
    cap of 100,000 evaluations in the walk.  n = 5 at 0.9 is
    ``mapspecs/chain5.json`` at eps 0.47916.
    """
    T = make_chain_map(n)
    cfg = SolverConfig(r=10.0, epsilon=fraction * chain_witness_margin(n), max_iterations=100_000)
    report = find_decay_point(T, cfg, n)
    check_success_postcondition(T, cfg, report)
    assert report.iterations == 2


def flipflop_witness_margin(lam: float, r: float = 10.0) -> float:
    """The best margin of the flip-flop map over 100,001 grid points of the sphere."""
    x = np.linspace(0.0, r, 100_001)
    i = int(np.argmax(np.minimum(x - np.sqrt(r - x), (r - x) - lam * x**2)))
    p = np.array([x[i], r - x[i]])
    return float(np.min(p - make_flipflop_map(lam)(p)))


@pytest.mark.parametrize("lam, fraction", [(0.8, 0.97), (0.5, 0.9)])
def test_the_flipflop_map_near_its_witness_margin_takes_few_evaluations(lam, fraction):
    """lam = 0.8 at 0.97 of the witness's margin, and ``mapspecs/flipflop.json``
    (lam = 0.5) at 0.9 of it, eps 0.745707: the sphere stage's first Newton
    step from r 1/n certifies each.

    Both rows are one power term, ``sqrt(s_2)`` and ``lam s_1^2``, so the
    degree model is exact and its point has the best margin of the sphere.
    The affine model took three steps; the walk alone takes 369 and 48
    evaluations (WALK_SET).
    """
    T = make_flipflop_map(lam)
    cfg = SolverConfig(r=10.0, epsilon=fraction * flipflop_witness_margin(lam),
                       max_iterations=100_000)
    report = find_decay_point(T, cfg, 2)
    check_success_postcondition(T, cfg, report)
    assert report.iterations == 2


# The walk set: the paper's plain method (``plain_walk``) at r = 10 and a cap
# of 100,000 on the chain map, n = 6..9, and the flip-flop map, lam = 0.5 and
# 0.8, at 0.5, 0.9 and 0.97 of their witness margins, and on superlinear(n)
# at eps = 0.1, n = 5..12: 26 solves, 411,690 evaluations.  Each entry is
# (name, a callable giving the map and eps, evaluations to success); None
# marks the four chain solves that spend the cap.  They take 20-30 s, so
# tier-1 runs the other 22 and a CI step runs these four.
WALK_SET = (
    [(f"chain n={n} at {f}", lambda n=n, f=f: (make_chain_map(n), f * chain_witness_margin(n)),
      count)
     for n, counts in ((6, (33, 169, 195)), (7, (42, 222, 404)), (8, (55, None, None)),
                       (9, (67, None, None)))
     for f, count in zip((0.5, 0.9, 0.97), counts)]
    + [(f"flip-flop lam={lam} at {f}",
        lambda lam=lam, f=f: (make_flipflop_map(lam), f * flipflop_witness_margin(lam)), count)
       for lam, counts in ((0.5, (9, 48, 91)), (0.8, (15, 187, 369)))
       for f, count in zip((0.5, 0.9, 0.97), counts)]
    + [(f"superlinear n={n}", lambda n=n: (superlinear(n), 0.1), count)
       for n, count in zip(range(5, 13), (365, 929, 616, 560, 1888, 1124, 1127, 3175))]
)


@pytest.mark.parametrize("build, count", [(build, count) for _, build, count in WALK_SET
                                          if count is not None],
                         ids=[name for name, _, count in WALK_SET if count is not None])
def test_the_plain_walk_set_before_the_cap(build, count):
    T, eps = build()
    cfg = SolverConfig(r=10.0, epsilon=eps, max_iterations=100_000)
    report = plain_walk(T, cfg, T.dimension)
    check_success_postcondition(T, cfg, report)
    assert report.iterations == count


def newton_point(T: MonotoneMap, p: np.ndarray) -> np.ndarray | None:
    """``_newton_point`` from p, r = 10, with T's proven Jacobian."""
    return homotopy._newton_point(T.jacobian(p), p, T(p), 10.0)


def test_a_newton_point_of_a_linear_map_is_its_optimal_point():
    """For ``T = A`` the Newton system is T's own, so one step lands on
    ``r (I - A)^-1 1 / |(I - A)^-1 1|_1``, where every component has the margin eps_max.

    The Newton point evaluates no T.  The callable twin's stage pays for
    its J: r 1/n, then n forward differences, one counted evaluation each
    and off the sphere, exact to rounding, so its first Newton point is
    the optimal point too, and certifies at 0.99 eps_max.
    """
    A = random_contractive(4, 0.8, 3)
    T = make_linear_map(A)
    p = np.array([1.0, 2.0, 3.0, 4.0])
    J, Tp = T.jacobian(p), T(p)
    with recorded() as seen:
        q = homotopy._newton_point(J, p, Tp, 10.0)
    assert seen == []
    np.testing.assert_allclose(q - A @ q, eps_max(A, 10.0), rtol=1e-12)
    cfg = SolverConfig(r=10.0, epsilon=0.99 * eps_max(A, 10.0))
    with recorded() as seen:
        report = find_decay_point(callable_twin(T), cfg, 4)
    assert report.success and report.iterations == len(seen) == 6
    assert all(np.sum(point) > 10.0 for point in seen[1:5])  # the differences
    q = report.s_star
    np.testing.assert_allclose(q - A @ q, eps_max(A, 10.0), rtol=1e-8)


@pytest.mark.parametrize("T,p", [
    # J is not finite at 0, and the model's first residual is NaN
    (make_diagonal(["t^0.5", "t"]), np.array([0.0, 10.0])),
    # J = I and T(p) = p/2: the first bordered solve, the affine system's, is singular
    (make_diagonal(["0.125*t^2", "0.125*t^2"]), np.array([4.0, 4.0])),
], ids=["infinite derivative", "singular"])
def test_the_sphere_stage_has_no_newton_point_without_a_usable_jacobian(T, p):
    assert newton_point(T, p) is None


# Maps whose every row is ``sum_j c_ij s_j^a_i`` on the piece active along the
# solve, for which the degree model is T itself.
EXACT_MODEL_MAPS = [
    ("A s^1.2", lambda: superlinear(4)),
    ("flip-flop lam=0.8", lambda: make_flipflop_map(0.8)),
    ("diag(t^2, t^0.5, t^1.5) o table", lambda: compose(
        make_diagonal(["t^2", "t^0.5", "t^1.5"]),
        make_max_preserving([[None, "0.5*t", "0.1*t"], ["0.2*t", None, "0.8*t"],
                             ["0.6*t", "0.3*t", None]]))),
]


@pytest.mark.parametrize("build", [case[1] for case in EXACT_MODEL_MAPS],
                         ids=[case[0] for case in EXACT_MODEL_MAPS])
def test_the_degree_model_lands_on_the_equal_margin_point_in_one_step(build):
    """The first Newton point from r 1/n has the same margin in every component,
    so at 0.999 of that margin the run certifies it with its second evaluation."""
    T = build()
    n = T.dimension
    q = newton_point(T, np.full(n, 10.0 / n))
    margins = q - T(q)
    assert float(np.max(margins) - np.min(margins)) <= 1e-9 * 10.0
    cfg = SolverConfig(r=10.0, epsilon=0.999 * float(np.min(margins)), max_iterations=1000)
    report = find_decay_point(T, cfg, n)
    check_success_postcondition(T, cfg, report)
    assert report.iterations == 2
    np.testing.assert_array_equal(report.s_star, q)


def affine_step(J: np.ndarray, p: np.ndarray, Tp: np.ndarray) -> np.ndarray:
    """``q - p`` for the solution q of ``q = T(p) + J (q - p) + d 1``, ``1'q = 1'p``,
    by a direct solve of the bordered system."""
    n = len(p)
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = np.eye(n) - J
    bordered[:n, n] = -1.0
    bordered[n, :n] = 1.0
    return np.linalg.solve(bordered, np.append(Tp - J @ p, np.sum(p)))[:n] - p


def test_a_model_without_a_positive_solution_falls_back_to_the_damped_affine_point():
    """Every gain is ``c t``, so the model is the active policy P, and its equal-margin
    points are ``d (I - P)^-1 1 = d (-3.75, -2.375, 2)``: none is positive.

    The point is then the affine solution, which the model's first bordered
    solve gives, with its step from p cut to nine tenths of the way to the
    orthant's boundary.  Its steps sum to 0, so it stays on the sphere.
    """
    T = make_max_preserving([[None, "2*t", None], ["0.9*t", None, None], [None, None, "0.5*t"]])
    p = np.array([3.0, 3.0, 4.0])
    step = affine_step(T.jacobian(p), p, T(p))
    assert step[2] < -p[2]  # the affine solution leaves the orthant in component 3
    np.testing.assert_allclose(newton_point(T, p), p + 0.9 * (p[2] / -step[2]) * step,
                               rtol=1e-12)


def test_an_overflow_in_the_degree_model_falls_back_without_a_warning():
    """Row 1 is ``s_2^200``, so ``k_1 = 200``, and ``(q_j/p_j)^200`` overflows on the way;
    warnings are errors here, and the call is outside the solver's errstate.

    50 steps do not reach the model's solution, so the point is the affine
    one, whose step from p no component cuts.
    """
    T = make_max_preserving([["0", "t^200"], ["0.5*t", "0"]])
    p = np.array([9.5, 0.5])
    step = affine_step(T.jacobian(p), p, T(p))
    assert np.all(step > -0.9 * p)
    np.testing.assert_allclose(newton_point(T, p), p + step, rtol=1e-12)


def test_the_callable_chain_twin_takes_newton_steps_with_a_difference_jacobian():
    """The sphere stage certifies the twin from r 1/n in one Newton step: r 1/n, its
    3 differences and the Newton point."""
    T = make_chain_map(3)
    cfg = SolverConfig(r=10.0, epsilon=0.1, max_iterations=100_000)
    report = find_decay_point(callable_twin(T), cfg, 3)
    check_success_postcondition(T, cfg, report)
    assert report.iterations == 5


# Failures pinned at r=10: the reason, the evaluation count and the point
# where the covering failed (compared to 1e-12 as in GOLDEN_WALKS).  Each is
# the policy step's one evaluation: the sphere point of the Perron vector of
# A where rho >= 1, else the optimal point of GOLDEN_WALKS.  eps is
# 0.05 * r / (2n) unless given.
GOLDEN_FAILURES = [
    ("n=3 rho=1.2 seed 0", 3, 1.2, 0, None, 100_000, "label_none", 1,
     [1.442748219662789, 4.588954794944646, 3.968296985392564]),
    ("n=4 rho=1.0 seed 1", 4, 1.0, 1, None, 100_000, "label_none", 1,
     [3.082599190677814, 2.3512971989641356, 2.3127097032199084, 2.2533939071381415]),
    ("n=5 rho=1.2 seed 2", 5, 1.2, 2, None, 100_000, "label_none", 1,
     [1.7602466956037803, 1.6420180601891612, 1.9392736836440505, 2.2596419136206833,
      2.3988196469423246]),
]


NEAR_UNIT_FAILURES = [
    ("n=6 rho=0.99 seed 6 at 1.01 eps_max", 6, 0.99, 6, 0.016889707693908906, 100_000,
     "label_none", 1,
     [1.8548089295300352, 1.5782894693704732, 1.5390268638913054, 1.5730061141496752,
      1.6367913725267569, 1.8180772505317537]),
    # on the callable twin, the sphere stage's best point ends this run in 15
    # evaluations at rho = 0.999
    ("n=6 rho=0.999 seed 0 at 1.01 eps_max", 6, 0.999, 0, 0.0016952335741928556, 100_000,
     "label_none", 1,
     [1.4657885394762817, 1.9583983598212653, 1.7270998635731958, 1.2209180853740211,
      2.21179556856608, 1.415999583189157]),
    ("n=6 rho=0.999 seed 1 at 1.01 eps_max", 6, 0.999, 1, 0.0016944665834030671, 100_000,
     "label_none", 1,
     [1.7335610681506628, 1.6668699148723831, 1.2519657216181816, 1.5512901159696284,
      1.9200309690340724, 1.8762822103550711]),
    ("n=6 rho=0.999 seed 2 at 1.01 eps_max", 6, 0.999, 2, 0.0016646993876464316, 100_000,
     "label_none", 1,
     [1.659830746707118, 1.0815164575115725, 2.0830560302952987, 1.7833334195048187,
      1.3875885307588973, 2.0046748152222946]),
    ("n=6 rho=0.999 seed 3 at 1.01 eps_max", 6, 0.999, 3, 0.0016417314886780334, 100_000,
     "label_none", 1,
     [1.3794669894293927, 1.5072980722746132, 2.126882496078768, 1.3612694824755043,
      1.9244109079276817, 1.700672051814041]),
]


@pytest.mark.parametrize("name,n,rho,seed,eps,cap,reason,iterations,point",
                         GOLDEN_FAILURES + NEAR_UNIT_FAILURES,
                         ids=[case[0] for case in GOLDEN_FAILURES + NEAR_UNIT_FAILURES])
def test_golden_failure(name, n, rho, seed, eps, cap, reason, iterations, point):
    T = make_linear_map(random_contractive(n, rho, seed))
    eps = 0.05 * 10.0 / (2 * n) if eps is None else eps
    report = find_decay_point(T, SolverConfig(r=10.0, epsilon=eps, max_iterations=cap), n)
    assert not report.success
    assert report.failure_reason == reason
    assert report.iterations == iterations
    if point is None:
        assert report.failure_point is None
    else:
        np.testing.assert_allclose(report.failure_point, point, rtol=1e-12, atol=0.0)


# SHA-256 of every point the solver evaluates, pre-phase iterates included,
# each once in order of first evaluation, over every golden case that ends
# before its cap, on the maps as built, and then over the plain walk of the
# chain map at n = 2..5 (eps = 0.1).
# It pins the path itself, not only where the path ends.  Points are hashed
# to 10 significant digits, so that the last bits of matrix arithmetic (see
# GOLDEN_WALKS) do not move the digest.
GOLDEN_PATH_SHA256 = "ec984a5e305541006b32910b7148f1181ee6b43ac27e499ded3727a2ba1f1060"


def test_golden_path():
    runs = [(find_decay_point, build(), eps or 0.1, 100_000)
            for _, build, eps, _, _ in GOLDEN_WALKS]
    runs += [
        (find_decay_point, make_linear_map(random_contractive(n, rho, seed)),
         0.05 * 10.0 / (2 * n) if eps is None else eps, cap)
        for _, n, rho, seed, eps, cap, reason, _, _ in GOLDEN_FAILURES
        if reason != "iteration_cap"
    ]
    runs += [(plain_walk, make_chain_map(n), 0.1, 100_000) for n in range(2, 6)]
    digest = hashlib.sha256()
    for solve, T, eps, cap in runs:
        with recorded() as seen:
            solve(T, SolverConfig(r=10.0, epsilon=eps, max_iterations=cap), T.dimension)
        for point in dict.fromkeys(repr([float(f"{x:.10g}") for x in s]) for s in seen):
            digest.update(point.encode())
    assert digest.hexdigest() == GOLDEN_PATH_SHA256


def superlinear(n: int) -> MonotoneMap:
    """``A s^1.2`` with ``A = random_contractive(n, 0.8, 0)``: not subhomogeneous."""
    return compose(make_linear_map(random_contractive(n, 0.8, 0)), make_diagonal(["t^1.2"] * n))


def superlinear_fixed() -> MonotoneMap:
    """``A s^1.2`` for a fixed positive 4-by-4 A, whose sphere stage's best margin at r = 10
    is 0.2547."""
    A = [[0.1, 0.5, 0.1, 0.1], [0.2, 0.1, 0.3, 0.1], [0.1, 0.1, 0.1, 0.5], [0.4, 0.1, 0.1, 0.1]]
    return compose(make_linear_map(A), make_diagonal(["t^1.2"] * 4))


# One map for each way the solver evaluates T: the sphere stage's differences
# on the callable twins of a linear map, of a max-times table that is not
# linear (cycle mean 0.97, at 0.9 of its eps_max) and of the chain map (5
# evaluations), the sphere stage's Newton steps with a proven Jacobian on the
# chain map (2), and the sphere stage of A s^1.2.
CAP_CASES = [
    ("linear n=3 rho=0.8 seed 0 at 0.9 eps_max",
     lambda: callable_twin(make_linear_map(random_contractive(3, 0.8, 0))), 0.6387007034997124),
    ("max-times n=3", lambda: callable_twin(make_max_preserving(
        [[None, "1.642*t", "1.581*t"], ["0.527*t", None, None], [None, "1.095*t", "0.649*t"]])),
     0.0844),
    ("chain n=3", lambda: make_chain_map(3), 0.1),
    ("chain n=3 twin", lambda: callable_twin(make_chain_map(3)), 0.1),
    ("A s^1.2 n=4", lambda: superlinear(4), 0.1),
]


@pytest.mark.parametrize("name,build,eps", CAP_CASES, ids=[case[0] for case in CAP_CASES])
def test_every_cap_below_the_uncapped_count_is_spent_exactly(name, build, eps):
    # each of the first k calls of T, a difference or not, counts, and the (k+1)-th is refused
    T = build()
    with recorded() as seen:
        uncapped = find_decay_point(T, SolverConfig(r=10.0, epsilon=eps, max_iterations=100_000),
                                    T.dimension).iterations
    assert len(seen) == uncapped > 1
    for k in range(1, uncapped):
        with recorded() as seen:
            report = find_decay_point(T, SolverConfig(r=10.0, epsilon=eps, max_iterations=k),
                                      T.dimension)
        assert (report.failure_reason, report.iterations, len(seen)) == ("iteration_cap", k, k)


def first_step_across(A: np.ndarray, r: float) -> float:
    """The eps at which the pre-phase's first step, from ``eps 1`` to ``eps (A1 + 1)``,
    crosses the sphere halfway, so that the norm rule fires at once."""
    return r / (len(A) + 0.5 * float(np.sum(A)))


# Runs that the norm rule proves infeasible: (name, build, eps, r).  No map
# has degree one (the linear ones are callable twins), so no policy step
# answers one, and the sphere stage is a no-op, as its best point would end
# each run; at these eps the first step crosses the sphere, so the norm rule
# fires at once.
BOX_POINT_CASES = [
    *[(name, lambda n=n, rho=rho, seed=seed: callable_twin(
        make_linear_map(random_contractive(n, rho, seed))),
       first_step_across(random_contractive(n, rho, seed), 10.0), 10.0)
      for name, n, rho, seed, *_ in GOLDEN_FAILURES],
    ("A s^1.2 n=4 eps=0.4", lambda: superlinear(4), 0.4, 10.0),
    ("A s^1.2 n=6 eps=0.4", lambda: superlinear(6), 0.4, 10.0),
    ("sqrt and square", lambda: MonotoneMap(
        2, lambda s: np.array([np.sqrt(s[0]), s[0] ** 2]), "superlinear"), 8.0, 100.0),
]


@pytest.mark.parametrize("name,build,eps,r", BOX_POINT_CASES,
                         ids=[case[0] for case in BOX_POINT_CASES])
def test_proved_infeasible_run_ends_at_an_unevaluated_box_point(name, build, eps, r):
    # the norm rule's last step crosses the sphere strictly inside its box
    # [w_k, w_k+1], so monotonicity alone proves the crossing point has no label
    T = build()
    with recorded() as seen:
        report = without_sphere_stage(T, SolverConfig(r=r, epsilon=eps, max_iterations=10_000),
                                      T.dimension)
    assert report.failure_reason == "label_none"
    q = report.failure_point
    assert abs(float(np.sum(q)) - r) <= 1e-9 * r
    assert np.all(q - T(q) < eps)
    assert len(seen) == report.iterations
    assert not any(np.array_equal(q, point) for point in seen)


def test_lower_end_is_tested_at_most_once():
    # A rule whose kind says linear, though it is 1.5 s only below (1, 4.95)
    # and flat above.  Its iterates grow by 1.5 along the ray of (1, 1), whose
    # sphere point (5, 5) has a label in component 1, margin 0.05 < eps.  For
    # a linear map that ray would bound w* from below; the solver draws no
    # conclusion from it.  (5, 5) is the sphere stage's first point, tested
    # once, and the flat differences give J = 0, so one Newton step lands on
    # T(5, 5) + d 1 = (3.025, 6.975), which certifies
    T = MonotoneMap(2, lambda s: np.minimum(1.5 * s, [1.0, 4.95]), "linear")
    with recorded() as seen:
        report = find_decay_point(T, SolverConfig(r=10.0, epsilon=0.1, max_iterations=1000), 2)
    assert report.success
    assert report.iterations == len(seen) == 4
    on_sphere = [abs(float(np.sum(s)) - 10.0) <= 1e-8 for s in seen]
    assert on_sphere == [True, False, False, True]
    np.testing.assert_allclose(report.s_star, [3.025, 6.975], rtol=1e-12)


def test_lower_end_does_not_end_a_nonlinear_run():
    # Monotone with T(0) = 0, and (5, 5) decays with margin above 2.  At w0 the
    # lower Collatz-Wielandt ratio is min(10, 1.1) >= 1, and the sphere point
    # of the first step, about (9.009, 0.991), has no label: for a linear map
    # that would prove infeasibility, here it proves nothing.  The solver
    # never tests it: the sphere stage's first point (5, 5) is a certificate.
    # A map built from a callable has no degree whatever kind it names,
    # so the kind "linear" changes nothing
    def fn(s):
        return np.array([max(math.sqrt(s[0]), s[0] ** 2 / 9.0), min(1.1 * s[1], 1.0)])

    lower_point = 10.0 * np.array([0.1, 0.011]) / 0.111  # the first step d0, on the sphere
    cfg = SolverConfig(r=10.0, epsilon=0.01, max_iterations=100_000)
    for kind in ("mixed", "linear"):
        with recorded() as seen:
            report = find_decay_point(MonotoneMap(2, fn, kind), cfg, 2)
        assert report.success, kind
        assert report.iterations == len(seen) == 1
        assert report.s_star.tolist() == [5.0, 5.0]
        assert not any(np.allclose(s, lower_point) for s in seen)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_sphere_stage_answers_a_superlinear_map(n):
    # the sphere stage's first point r 1/n fails; the walk alone takes 560-3,175 (WALK_SET)
    T = superlinear(n)
    cfg = SolverConfig(r=10.0, epsilon=0.1, max_iterations=100_000)
    report = find_decay_point(T, cfg, n)
    check_success_postcondition(T, cfg, report)
    assert report.iterations <= 6


@pytest.mark.parametrize("build,eps", [
    *[pytest.param(lambda n=n: superlinear(n), eps, id=f"{n}-{eps}")
      for n, eps in ((6, 0.16), (6, 0.17), (6, 0.18), (8, 0.17), (8, 0.18), (8, 0.19), (8, 0.20))],
    pytest.param(superlinear_fixed, 0.2, id="fixed A-0.2"),
])
def test_sphere_stage_finds_near_limit_points(build, eps):
    # the walk alone spends the whole 100k cap on each of superlinear(n)'s; the
    # sphere stage's first Newton point certifies each
    T = build()
    cfg = SolverConfig(r=10.0, epsilon=eps, max_iterations=100_000)
    report = find_decay_point(T, cfg, T.dimension)
    check_success_postcondition(T, cfg, report)
    assert report.iterations == 2


@pytest.mark.parametrize("build, eps, counts", [
    (lambda: compose(make_diagonal(["t^1.5"] * 5), make_linear_map(random_contractive(5, 0.8, 0))),
     0.1, (6, 31)),
    (superlinear_fixed, 0.5, (3, 11)),
], ids=["diag(t^1.5) o A", "fixed A s^1.2"])
def test_the_sphere_stage_ends_the_run_at_its_best_point_without_a_label(build, eps, counts):
    """``diag(t^1.5) o A`` at eps = 0.1: the stage's margin grows to 0.0389 < eps, and
    its best point has no label, so the run ends there in ``label_none``, in 6
    evaluations, and in 31 on the callable twin.  The 6th point gains a margin
    within rounding (2.8e-12), which ends the stage without a further step.

    ``superlinear_fixed()`` at eps = 0.5, above its best margin 0.2547, ends
    alike in 3 evaluations, and in 11 on the twin."""
    T = build()
    n = T.dimension
    cfg = SolverConfig(r=10.0, epsilon=eps, max_iterations=100_000)
    for M, count in zip((T, callable_twin(T)), counts):
        with recorded() as seen:
            report = find_decay_point(M, cfg, n)
        assert (report.failure_reason, report.iterations) == ("label_none", count)
        on_sphere = [s for s in seen if abs(float(np.sum(s)) - 10.0) <= 1e-9 * 10.0]
        margins = [float(np.min(s - T(s))) for s in on_sphere]
        p = report.failure_point
        assert np.array_equal(p, on_sphere[int(np.argmax(margins))])
        assert max(margins) < eps
        assert label_index(p, T(p), eps) is None



def test_a_gain_within_rounding_does_not_end_the_stage_below_an_eps_within_rounding():
    """``eps_max (1 - 1e-13)`` for a linear map: the policy step's point misses eps by
    rounding, and the stage's first Newton point by 5e-15.

    Its next point gains margin within rounding, but eps is within rounding
    of the margin too, so the stage keeps stepping, and its third Newton
    point certifies at the 5th evaluation.  A stop at the first gain within
    rounding spends the cap.
    """
    A = random_contractive(3, 0.999, 0)
    T = make_linear_map(A)
    cfg = SolverConfig(r=10.0, epsilon=eps_max(A, 10.0) * (1.0 - 1e-13), max_iterations=5_000)
    report = find_decay_point(T, cfg, 3)
    check_success_postcondition(T, cfg, report)
    assert report.iterations == 5

# Counts at random_contractive(n, 0.8, seed), seeds 0..2, at half and 0.9 of
# eps_max.  The map itself is answered by the policy step's one evaluation,
# before the sphere stage.  Its callable twin has no policy step: the sphere
# stage evaluates r 1/n and its n differences, and its first Newton point is
# the optimal point, which passes, so each count is n + 2.
LINEAR_COUNTS = {
    0.5: {2: [4, 4, 4], 4: [6, 6, 6], 6: [8, 8, 8], 8: [10, 10, 10], 10: [12, 12, 12]},
    0.9: {2: [4, 4, 4], 4: [6, 6, 6], 6: [8, 8, 8], 8: [10, 10, 10], 10: [12, 12, 12]},
}


@pytest.mark.parametrize("fraction", sorted(LINEAR_COUNTS))
def test_linear_counts_skip_the_sphere_stage(fraction):
    for n, counts in LINEAR_COUNTS[fraction].items():
        for seed, count in enumerate(counts):
            A = random_contractive(n, 0.8, seed)
            cfg = SolverConfig(r=10.0, epsilon=fraction * eps_max(A, 10.0),
                               max_iterations=100_000)
            for T, expected in ((callable_twin(make_linear_map(A)), count),
                                (make_linear_map(A), 1)):
                report = find_decay_point(T, cfg, n)
                check_success_postcondition(T, cfg, report)
                assert report.iterations == expected, (n, seed, T.kind)


def test_sphere_stage_successes_are_certificates():
    """Every success on ``A s^a``, sub- or superlinear, passes the direct re-check, and
    every ``label_none`` failure names a sphere point without a label, the sphere
    stage's own exits included.

    Each map is run as built and as its callable twin, whose sphere stage
    takes Newton steps with a difference Jacobian.  Every evaluation of the
    twin, a difference or not, is counted.
    """
    reasons = []
    stage_ends = []

    def sphere_stage(ev):  # the solver's, recording the reports it ends the run with
        try:
            homotopy._sphere_stage(ev)
        except homotopy._Finished as finished:
            stage_ends.append(finished.report)
            raise

    stages = (homotopy._policy_step, sphere_stage, homotopy._pre_phase, homotopy._walk)

    @st.composite
    def power_maps(draw):
        n = draw(st.integers(2, 8))
        entries = st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n)
        A = np.array(draw(entries)).reshape(n, n)
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho > 0.0:
            A *= draw(st.floats(0.05, 0.9)) / rho
        exponents = draw(st.lists(st.floats(0.7, 1.5), min_size=n, max_size=n))
        return compose(make_linear_map(A), make_diagonal([f"t^{a!r}" for a in exponents]))

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(power_maps(), st.floats(1e-3, 1.0))
    def check(T, eps):
        cfg = SolverConfig(r=10.0, epsilon=eps, max_iterations=1000)
        for M in (T, callable_twin(T)):
            with recorded() as seen:
                report = homotopy._solve(M, cfg, T.dimension, stages)
            if M is not T:
                assert len(seen) == report.iterations
            by_stage = any(report is end for end in stage_ends)
            reasons.append((M is T, report.failure_reason, by_stage))
            if report.success:
                check_success_postcondition(T, cfg, report)
            else:
                assert report.failure_reason in ("label_none", "iteration_cap")
            if report.failure_reason == "label_none":
                p = report.failure_point
                assert abs(float(np.sum(p)) - cfg.r) <= 1e-9 * cfg.r
                assert label_index(p, T(p), eps) is None
                if by_stage:  # the stage ends only at a point it evaluated
                    assert any(np.array_equal(p, point) for point in seen)

    check()
    for built in (True, False):
        assert (built, "label_none", True) in reasons


@pytest.mark.parametrize("n", [7, 8])
def test_label_lookups_per_lattice_point(monkeypatch, n):
    """The walk carries its cells' labels, so it looks a point up about once per visit.

    The chain map runs the plain method, so the walk is the whole run.  At
    n = 7 and 8 it looks up 45 and 60 labels at 39 and 54 lattice points.
    """
    search_cls = homotopy.CompleteCellSearch
    calls = 0
    points = set()

    def counting_search(m, dim, label_of):
        def counted(z):
            nonlocal calls
            calls += 1
            points.add(tuple(c / m for c in z))  # exact: m is a power of two
            return label_of(z)

        return search_cls(m, dim, counted)

    monkeypatch.setattr(homotopy, "CompleteCellSearch", counting_search)
    cfg = SolverConfig(r=10.0, epsilon=0.05, max_iterations=100_000)
    report = plain_walk(make_chain_map(n), cfg, n)
    assert report.success
    assert len(points) > 2 * n  # the walk ran
    assert calls <= 2 * len(points)
