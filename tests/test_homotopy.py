import hashlib
from itertools import product

import numpy as np
import pytest

from decaycert import homotopy
from decaycert.homotopy import SolveReport, SolverConfig, complete_subsets, find_decay_point
from decaycert.labeling import LabeledVertexSet
from decaycert.linear import random_contractive
from decaycert.maps import (
    MonotoneMap,
    compose,
    make_chain_map,
    make_diagonal,
    make_linear_map,
)


def vertex_set(labels, scale=1.0):
    """n+1 generic distinct vertices carrying the given labels."""
    k = len(labels)
    verts = [scale * (np.arange(k) == i).astype(float) + 0.01 * i for i in range(k)]
    return LabeledVertexSet(verts, list(labels))


class TestCompleteSubsets:
    def test_one_duplicate_gives_two_subsets(self):
        tau = vertex_set([1, 2, 2])
        subs = complete_subsets(tau, 2)
        assert len(subs) == 2
        # each subset drops one of the two label-2 vertices
        kept = [frozenset(map(tuple, s.vertices)) for s in subs]
        assert kept[0] != kept[1]
        for s in subs:
            assert sorted(s.labels) == [1, 2]

    def test_missing_label_gives_none(self):
        assert complete_subsets(vertex_set([1, 1, 1]), 2) == []

    def test_three_dimensional_duplicate(self):
        subs = complete_subsets(vertex_set([1, 2, 3, 2]), 3)
        assert len(subs) == 2

    def test_wrong_cardinality(self):
        with pytest.raises(ValueError):
            complete_subsets(vertex_set([1, 2, 3]), 3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_zero_or_two(self, n):
        for labels in product(range(1, n + 1), repeat=n + 1):
            subs = complete_subsets(vertex_set(labels), n)
            assert len(subs) in (0, 2), labels
            if len(subs) == 2:
                # the dropped vertices are exactly the duplicated-label pair
                dup = [lab for lab in set(labels) if labels.count(lab) == 2]
                assert len(dup) == 1
                positions = [i for i, lab in enumerate(labels) if lab == dup[0]]
                tau = vertex_set(labels)
                dropped = [
                    set(map(tuple, tau.vertices)) - set(map(tuple, s.vertices)) for s in subs
                ]
                expected = [{tuple(tau.vertices[p])} for p in positions]
                assert sorted(map(sorted, dropped)) == sorted(map(sorted, expected))


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
        T = make_chain_map(3)
        cfg = SolverConfig(r=10.0, epsilon=0.1, max_iterations=3)
        report = find_decay_point(T, cfg, 3)
        assert not report.success
        assert report.failure_reason == "iteration_cap"
        assert report.iterations == 3

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
        # the pre-phase evaluates w0 = (0.1, 0.1), then tests its candidate (5, 5)
        T = MonotoneMap(2, lambda s: np.full(2, bad) if s[0] > 4 else 0.5 * s, "partial")
        for candidate in (T, compose(make_linear_map(0.5 * np.eye(2)), T)):
            report = find_decay_point(candidate, SolverConfig(r=10.0, epsilon=0.1), 2)
            assert not report.success
            assert report.failure_reason == "nonfinite"
            assert report.iterations == 2
            assert report.failure_point.tolist() == [5.0, 5.0]

    def test_pre_phase_evaluations_count_toward_the_cap(self, monkeypatch):
        # this case needs 8 evaluations, the first 7 of them pre-phase steps
        def no_walk(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(homotopy, "CompleteCellSearch", no_walk)
        A = random_contractive(3, 0.8, 0)
        calls = 0

        def counting(s):
            nonlocal calls
            calls += 1
            return A @ s

        T = MonotoneMap(3, counting, "linear")
        cfg = SolverConfig(r=10.0, epsilon=0.6387007034997124, max_iterations=3)
        report = find_decay_point(T, cfg, 3)
        assert report.failure_reason == "iteration_cap"
        assert report.iterations == calls == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_pre_phase_iterate_is_named(self, bad):
        # w0 = (0.1, 0.1) gives no candidate at r = 0.5, so the second step
        # evaluates the iterate w1 = 0.9 w0 + 0.1 = (0.19, 0.19)
        T = MonotoneMap(2, lambda s: np.full(2, bad) if s[0] > 0.15 else 0.9 * s, "partial")
        report = find_decay_point(T, SolverConfig(r=0.5, epsilon=0.1), 2)
        assert report.failure_reason == "nonfinite"
        assert report.iterations == 2
        np.testing.assert_allclose(report.failure_point, [0.19, 0.19], rtol=1e-15)

    def test_proved_infeasible_point_with_a_label_walks_only_the_final_rung(self, monkeypatch):
        # no decay point: s1 >= sqrt(s1) + 8 forces s2 >= s1^2 + 8 > 143 > r.
        # T is not subhomogeneous, and the pre-phase's sphere point has a label
        search_cls = homotopy.CompleteCellSearch
        rungs = 0

        def counting_search(m, dim, label_of):
            nonlocal rungs
            rungs += m == 1
            return search_cls(m, dim, label_of)

        monkeypatch.setattr(homotopy, "CompleteCellSearch", counting_search)
        T = MonotoneMap(2, lambda s: np.array([np.sqrt(s[0]), s[0] ** 2]), "superlinear")
        cfg = SolverConfig(r=100.0, epsilon=8.0, max_iterations=10_000)
        report = find_decay_point(T, cfg, 2)
        assert report.failure_reason == "label_none"
        assert rungs == 1 < len(homotopy._slack_ladder(8.0, 100.0, 2))
        p = report.failure_point
        assert not np.any(T(p) + 8.0 <= p)
        assert abs(float(np.sum(p)) - 100.0) <= 1e-9 * 100.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_label_none_point_is_on_the_sphere_when_the_iterate_norm_overflows(self):
        # w0 = (100, 100) maps to (1e308, 1e308), whose 1-norm overflows to inf
        T = make_linear_map([[0.0, 1e306], [1e306, 0.0]])
        report = find_decay_point(T, SolverConfig(r=10.0, epsilon=100.0), 2)
        assert report.failure_reason == "label_none"
        assert report.failure_point.tolist() == [5.0, 5.0]

    def test_dimension_checks(self):
        T = make_chain_map(3)
        with pytest.raises(ValueError):
            find_decay_point(T, SolverConfig(r=1.0), 2)
        with pytest.raises(ValueError):
            find_decay_point(make_linear_map([[0.5]]), SolverConfig(r=1.0), 1)


# Evaluation counts and decay points pinned at r=10, cap 100 000, eps=0.1
# unless given.  A change to the pre-phase, the labeling, the pivot walk or
# the slack ladder moves these.  The chain maps' candidates fail, so their
# points are lattice points of the walk; the linear ones are pre-phase
# candidates, products of matrix arithmetic whose last bits may depend on
# the BLAS kernel, and are compared to 1e-12.
GOLDEN_WALKS = [
    ("chain n=2", lambda: make_chain_map(2), None, 5, [7.5, 2.5]),
    ("chain n=3", lambda: make_chain_map(3), None, 16, [6.25, 2.5, 1.25]),
    ("chain n=4", lambda: make_chain_map(4), None, 12, [6.25, 1.25, 1.25, 1.25]),
    ("chain n=5", lambda: make_chain_map(5), None, 14, [6.0, 1.0, 1.0, 1.0, 1.0]),
    ("linear n=6 seed 0", lambda: make_linear_map(random_contractive(6, 0.8, 0)), None, 3,
     [1.5625762201636155, 1.784146270600348, 1.6825451008792094, 1.4457098471192324,
      1.9438228231111778, 1.5811997381264176]),
    ("linear n=3 rho=0.8 seed 0 at 0.9 eps_max",
     lambda: make_linear_map(random_contractive(3, 0.8, 0)), 0.6387007034997124, 8,
     [2.109192901464323, 4.056464009443661, 3.834343089092016]),
]


@pytest.mark.parametrize("name,build,eps,iterations,s_star", GOLDEN_WALKS,
                         ids=[case[0] for case in GOLDEN_WALKS])
def test_golden_walk(name, build, eps, iterations, s_star):
    T = build()
    report = find_decay_point(
        T, SolverConfig(r=10.0, epsilon=eps or 0.1, max_iterations=100_000), T.dimension
    )
    assert report.success
    assert report.iterations == iterations
    np.testing.assert_allclose(report.s_star, s_star, rtol=1e-12, atol=0.0)


# Failures pinned at r=10: the reason, the evaluation count and the point
# where the covering failed (the pre-phase's last iterate scaled to the
# sphere, compared to 1e-12 as in GOLDEN_WALKS).  eps is 0.05 * r / (2n)
# unless given.
GOLDEN_FAILURES = [
    ("n=3 rho=1.2 seed 0", 3, 1.2, 0, None, 100_000, "label_none", 13,
     [1.508247000719773, 4.532573562932066, 3.95917943634816]),
    ("n=4 rho=1.0 seed 1", 4, 1.0, 1, None, 100_000, "label_none", 40,
     [3.0688970212779587, 2.3554281323558284, 2.3157116891308998, 2.2599631572353145]),
    ("n=5 rho=1.2 seed 2", 5, 1.2, 2, None, 100_000, "label_none", 13,
     [1.7640869222274378, 1.6483021814920875, 1.9395430570871515, 2.2573601279486586,
      2.390707711244665]),
]


@pytest.mark.parametrize("name,n,rho,seed,eps,cap,reason,iterations,point", GOLDEN_FAILURES,
                         ids=[case[0] for case in GOLDEN_FAILURES])
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
# before its cap.  It pins the path itself, not only where the path ends.
# Points are hashed to 10 significant digits, so that the last bits of
# matrix arithmetic (see GOLDEN_WALKS) do not move the digest.
GOLDEN_PATH_SHA256 = "2c8387d8cb2b65e4f0a798c3d1b5ab9164195c0467c060d39c56b3ab4e0b8cdb"


def test_golden_path():
    cases = [(build(), eps or 0.1, 100_000) for _, build, eps, _, _ in GOLDEN_WALKS]
    cases += [
        (make_linear_map(random_contractive(n, rho, seed)),
         0.05 * 10.0 / (2 * n) if eps is None else eps, cap)
        for _, n, rho, seed, eps, cap, reason, _, _ in GOLDEN_FAILURES
        if reason != "iteration_cap"
    ]
    digest = hashlib.sha256()
    for T, eps, cap in cases:
        first_seen: dict[str, None] = {}

        def recording(s, T=T, first_seen=first_seen):
            first_seen.setdefault(repr([float(f"{x:.10g}") for x in s]))
            return T(s)

        find_decay_point(MonotoneMap(T.dimension, recording, T.kind),
                         SolverConfig(r=10.0, epsilon=eps, max_iterations=cap), T.dimension)
        for point in first_seen:
            digest.update(point.encode())
    assert digest.hexdigest() == GOLDEN_PATH_SHA256


@pytest.mark.parametrize("n", [6, 8, 10])
def test_label_lookups_per_lattice_point(monkeypatch, n):
    """The walk carries its cells' labels, so it looks a point up about once per visit.

    The map ``A s^1.2`` is superlinear, so the pre-phase's candidate fails
    and the walk runs through hundreds of lattice points.
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
    T = compose(make_linear_map(random_contractive(n, 0.8, 0)), make_diagonal(["t^1.2"] * n))
    report = find_decay_point(T, SolverConfig(r=10.0, epsilon=0.1, max_iterations=100_000), n)
    assert report.success
    assert len(points) > 2 * n  # the walk ran
    assert calls <= 2 * len(points)
