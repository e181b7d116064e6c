from itertools import product

import numpy as np
import pytest

from decaycert.homotopy import SolveReport, SolverConfig, complete_subsets, find_decay_point
from decaycert.labeling import LabeledVertexSet
from decaycert.linear import random_contractive
from decaycert.maps import make_chain_map, make_linear_map


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

    def test_dimension_checks(self):
        T = make_chain_map(3)
        with pytest.raises(ValueError):
            find_decay_point(T, SolverConfig(r=1.0), 2)
        with pytest.raises(ValueError):
            find_decay_point(make_linear_map([[0.5]]), SolverConfig(r=1.0), 1)


# Walk lengths and decay points pinned at r=10, eps=0.1, cap 100 000.  A
# change to the labeling, the pivot walk or the slack ladder moves these.
GOLDEN_WALKS = [
    ("chain n=2", lambda: make_chain_map(2), 5, [7.5, 2.5]),
    ("chain n=3", lambda: make_chain_map(3), 13, [6.25, 2.5, 1.25]),
    ("chain n=4", lambda: make_chain_map(4), 9, [6.25, 1.25, 1.25, 1.25]),
    ("chain n=5", lambda: make_chain_map(5), 11, [6.0, 1.0, 1.0, 1.0, 1.0]),
    ("linear n=6 seed 0", lambda: make_linear_map(random_contractive(6, 0.8, 0)), 111,
     [1.25, 2.5, 1.875, 1.25, 1.875, 1.25]),
]


@pytest.mark.parametrize("name,build,iterations,s_star", GOLDEN_WALKS,
                         ids=[case[0] for case in GOLDEN_WALKS])
def test_golden_walk(name, build, iterations, s_star):
    T = build()
    report = find_decay_point(
        T, SolverConfig(r=10.0, epsilon=0.1, max_iterations=100_000), T.dimension
    )
    assert report.success
    assert report.iterations == iterations
    assert report.s_star.tolist() == s_star
