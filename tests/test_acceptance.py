"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are pinned here, not configurable.
"""

import contextlib
import json
import time
from itertools import product

import numpy as np
import pytest

from decaycert.cli import main as cli_main
from decaycert.dynamics import iterate, ordering_check, solve_problem1
from decaycert.homotopy import SolverConfig, find_decay_point
from decaycert.labeling import LabeledVertexSet, complete_subsets, label_eps, omega_membership
from decaycert.linear import neumann_inverse, perron_direction, random_contractive, spectral_radius
from decaycert.maps import (
    compose,
    make_chain_map,
    make_diagonal,
    make_flipflop_map,
    make_linear_map,
    make_max_preserving,
)
from decaycert.maxpreserving import GainTable, cycle_condition, cycle_grid, path_q, reparametrize_path
from decaycert.order import OrderRelation, compare

R = 10.0
CAP = 100_000
WALL_LIMIT_S = 300.0
# fixed fixture for the linear-equivalence harness; dimensions cycle 2..8
EQUIV_SEED_BASE = 24300


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {title}")


def margin_of(T, s):
    return float(np.min(s - T(s)))


def test_criterion_1_chain_sweep():
    with criterion(1, "chain-map sweep succeeds across (n, epsilon)"):
        start = time.perf_counter()
        grid = list(product((2, 3, 4, 5), (1e-1, 1e-2))) + [(10, 1e-1)]
        for n, eps in grid:
            T = make_chain_map(n)
            report = find_decay_point(T, SolverConfig(r=R, epsilon=eps, max_iterations=CAP), n)
            assert report.success, (n, eps, report.failure_reason)
            assert margin_of(T, report.s_star) >= eps, (n, eps)
            assert abs(float(np.sum(report.s_star)) - R) <= 1e-8, (n, eps)
        assert time.perf_counter() - start < WALL_LIMIT_S


def test_criterion_2_linear_random_sweep():
    with criterion(2, "seeded linear sweep (rho=0.8) 100% success"):
        start = time.perf_counter()
        for n in range(2, 11):
            for seed in range(10):
                A = random_contractive(n, 0.8, seed)
                assert abs(spectral_radius(A) - 0.8) <= 0.8 * 1e-6
                T = make_linear_map(A)
                report = find_decay_point(
                    T, SolverConfig(r=R, epsilon=1e-1, max_iterations=CAP), n
                )
                assert report.success, (n, seed, report.failure_reason)
                assert margin_of(T, report.s_star) >= 1e-1, (n, seed)
        assert time.perf_counter() - start < WALL_LIMIT_S


def test_criterion_3_full_certification():
    with criterion(3, "decay point plus trajectory certifies [0, s*]"):
        cases = [(make_chain_map(n), n, 1e-2) for n in (2, 3, 4, 5)]
        cases += [
            (make_linear_map(random_contractive(n, 0.8, seed)), n, 1e-1)
            for n in range(2, 11)
            for seed in range(10)
        ]
        for T, n, eps in cases:
            cert = solve_problem1(
                T, SolverConfig(r=R, epsilon=eps, max_iterations=CAP), n,
                stop_tol=1e-6, k_max=10_000,
            )
            assert cert.problem1_satisfied, (T.kind, n)
            traj = cert.trajectory
            assert traj.converged and traj.final_sup_norm < 1e-6
            assert traj.steps_used <= 10_000
            for prev, cur in zip(traj.states, traj.states[1:]):
                assert np.all(cur <= prev + 1e-15), (T.kind, n)


def test_criterion_4_theorem_two_exhaustive():
    with criterion(4, "every (n+1)-set has 0 or 2 complete subsets, exhaustively"):
        start = time.perf_counter()
        for n in (2, 3, 4):
            verts = [
                np.eye(n + 1)[i][:n] + 0.01 * (i + 1) for i in range(n + 1)
            ]
            for labels in product(range(1, n + 1), repeat=n + 1):
                tau = LabeledVertexSet(list(verts), list(labels))
                assert len(complete_subsets(tau, n)) in (0, 2), labels
        assert time.perf_counter() - start < 1.0


def test_criterion_5_flipflop_iteration_vs_homotopy(tmp_path):
    with criterion(5, "pure iteration never decays strictly, the search still certifies"):
        rng = np.random.default_rng(99)
        for lam in (0.25, 0.5, 0.9):
            T = make_flipflop_map(lam)
            tested = 0
            while tested < 100:
                x = rng.random(2) * 10 + 1e-12
                if compare(T(x), x) is OrderRelation.LL:
                    continue
                tested += 1
                cur = x
                for _ in range(50):
                    nxt = T(cur)
                    assert compare(T(nxt), nxt) is not OrderRelation.LL, (lam, x)
                    cur = nxt
            spec_path = tmp_path / f"flipflop_{lam}.json"
            spec_path.write_text(json.dumps({"kind": "flipflop", "lambda": lam}))
            code = cli_main([
                "verify", "--map", str(spec_path), "-r", "1", "--epsilon", "1e-3",
                "--max-iterations", str(CAP),
            ])
            assert code == 0, lam


def test_criterion_6_linear_equivalences():
    with criterion(6, "solver, series inverse and dominant direction agree"):
        ns = list(range(2, 9))
        for rho_t in (0.5, 0.8, 0.95):
            for k in range(50):
                n = ns[k % len(ns)]
                A = random_contractive(n, rho_t, seed=EQUIV_SEED_BASE + k)
                eps = (1.0 - rho_t) * R / (2 * n)
                T = make_linear_map(A)
                report = find_decay_point(
                    T, SolverConfig(r=R, epsilon=eps, max_iterations=CAP), n
                )
                assert report.success, (rho_t, k)
                assert margin_of(T, report.s_star) >= eps - 1e-12
                M = neumann_inverse(A, tol=1e-6)
                assert float(np.max(np.abs((np.eye(n) - A) @ M - np.eye(n)))) < 1e-5
                assert np.all(M >= 0.0)
                v = perron_direction(A)
                w = R * v
                assert margin_of(T, w) >= eps, (rho_t, k, n)
        for rho_t in (1.0, 1.2):
            for k in range(20):
                n = ns[k % len(ns)]
                A = random_contractive(n, rho_t, seed=EQUIV_SEED_BASE + k)
                eps = 0.05 * R / (2 * n)
                report = find_decay_point(
                    make_linear_map(A), SolverConfig(r=R, epsilon=eps, max_iterations=CAP), n
                )
                assert not report.success, (rho_t, k)
                with pytest.raises(ValueError):
                    neumann_inverse(A, tol=1e-6)


def test_criterion_7_max_preserving_consistency():
    with criterion(7, "cycle condition, almost-solution path and solver agree"):
        for n in (2, 3):
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                rows[i][(i + 1) % n] = "0.5*t"
            g = GainTable(rows)
            ok, witness = cycle_condition(g)
            assert ok and witness is None
            T = g.to_map()
            for t in cycle_grid():
                q = path_q(g, t)
                assert np.all(T(q) <= q)
            q_tilde = reparametrize_path(g, R, tol=1e-9)
            assert abs(float(np.sum(q_tilde)) - R) <= 1e-8
            report = find_decay_point(
                T, SolverConfig(r=R, epsilon=1e-2, max_iterations=CAP), n
            )
            assert report.success
        bad = GainTable([[None, "2*t"], ["t", None]])
        ok, witness = cycle_condition(bad)
        assert not ok
        cycle, t = witness
        assert cycle == (1, 2)
        assert bad.gain(1, 2)(bad.gain(2, 1)(t)) >= t
        report = find_decay_point(
            bad.to_map(), SolverConfig(r=R, epsilon=1e-2, max_iterations=10_000), 2
        )
        assert not report.success


def _property_zoo(rng, max_dim=6):
    zoo = []
    for n in range(2, max_dim + 1):
        A = rng.random((n, n))
        gains = [[None if i == j else "0.5*t" for j in range(n)] for i in range(n)]
        zoo += [
            (make_linear_map(A), n),
            (make_chain_map(n), n),
            (make_max_preserving(gains), n),
            (make_diagonal(["t^2"] * n), n),
            (compose(make_diagonal(["2*t"] * n), make_linear_map(A)), n),
        ]
    zoo.append((make_flipflop_map(0.5), 2))
    return zoo


def test_criterion_8_property_suites():
    with criterion(8, "order algebra, monotonicity, labeling and ordering properties"):
        rng = np.random.default_rng(2718)

        # order-relation algebra
        flipped = {OrderRelation.LL: OrderRelation.GG, OrderRelation.LT: OrderRelation.GT,
                   OrderRelation.GG: OrderRelation.LL, OrderRelation.GT: OrderRelation.LT,
                   OrderRelation.EQ: OrderRelation.EQ,
                   OrderRelation.INCOMPARABLE: OrderRelation.INCOMPARABLE}
        leq = {OrderRelation.LL, OrderRelation.LT, OrderRelation.EQ}
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            x, y, z = rng.random(n) * 4, rng.random(n) * 4, rng.random(n) * 4
            assert compare(y, x) is flipped[compare(x, y)]
            if compare(x, y) in leq and compare(y, z) in leq:
                assert compare(x, z) in leq

        # monotonicity sampling: 1000 ordered pairs per family instance
        for T, n in _property_zoo(rng):
            for _ in range(1000):
                x = rng.random(n) * 3
                y = x + rng.random(n) * 3
                assert np.all(T(x) <= T(y)), T.kind

        # labeling: eps-monotonicity and max-of-covering consistency
        for _ in range(300):
            n = int(rng.integers(2, 6))
            T = make_linear_map(rng.random((n, n)))
            s = rng.random(n) * 10 + 1e-6
            labels = [label_eps(T, s, eps) for eps in (1e-2, 1e-4, 1e-8)]
            for coarse, fine in zip(labels, labels[1:]):
                if coarse is not None:
                    assert fine is not None and fine >= coarse
            omega = omega_membership(T, s)
            if labels[-1] is not None:
                assert labels[-1] in omega
            if np.min(np.abs(np.asarray(s) - T(s))) > 1e-8:
                assert labels[-1] == (max(omega) if omega else None)

        # ordering-of-solutions principle on 500 random ordered pairs
        # (starts in the unit box keep 25 chain-map steps finite)
        zoo = _property_zoo(rng)
        for i in range(500):
            T, n = zoo[i % len(zoo)]
            s0 = rng.random(n) * 0.5
            v0 = s0 + rng.random(n) * 0.5
            assert ordering_check(T, s0, v0, 25), T.kind
