import numpy as np
import pytest

from decaycert.dynamics import iterate, ordering_check, solve_problem1
from decaycert.homotopy import SolverConfig
from decaycert.linear import random_contractive
from decaycert.maps import (
    MonotoneMap,
    chain_feasible_point,
    make_chain_map,
    make_flipflop_map,
    make_linear_map,
    make_max_preserving,
)
from stages import recorded

SWAP_HALF = make_linear_map([[0, 0.5], [0.5, 0]])


class TestIterate:
    def test_geometric_decay_hits_tolerance_at_step_23(self):
        # closed form: state at step k is 5*2^-k*(1,1); 5*2^-k < 1e-6 first at k=23
        report = iterate(SWAP_HALF, [5, 5], k_max=100, stop_tol=1e-6)
        assert report.converged
        assert report.steps_used == 23
        assert report.final_sup_norm == pytest.approx(5 * 2.0 ** -23)
        for k, state in zip(report.steps, report.states):
            np.testing.assert_allclose(state, 5 * 2.0 ** -k * np.ones(2))

    def test_zero_initial_condition_converges_immediately(self):
        report = iterate(SWAP_HALF, [0, 0], k_max=10, stop_tol=1e-6)
        assert report.converged
        assert report.steps_used == 0
        assert len(report.states) == 1

    def test_flipflop_trajectory_dies_out(self):
        report = iterate(make_flipflop_map(0.5), [1, 1], k_max=10_000, stop_tol=1e-6)
        assert report.converged
        assert report.final_sup_norm < 1e-6

    def test_states_chain_under_the_map(self):
        report = iterate(SWAP_HALF, [3, 7], k_max=50, stop_tol=1e-12)
        for (k0, s0), (k1, s1) in zip(
            zip(report.steps, report.states), zip(report.steps[1:], report.states[1:])
        ):
            if k1 == k0 + 1:
                np.testing.assert_allclose(s1, SWAP_HALF(s0))

    def test_decimation_after_dense_prefix(self):
        slow = make_linear_map([[1.0 - 1e-4]])
        report = iterate(slow, [1.0], k_max=500, stop_tol=1e-9)
        assert not report.converged
        assert report.steps[:101] == list(range(101))
        assert all(k % 10 == 0 for k in report.steps[101:-1])
        assert report.steps[-1] == 500

    def test_monotone_decay_when_started_below_a_decay_point(self):
        for T, s0 in [
            (make_chain_map(2), chain_feasible_point(2, 10.0)),
            (SWAP_HALF, np.array([5.0, 5.0])),
            (make_max_preserving([[None, "0.5*t"], ["0.5*t", None]]), np.array([2.0, 2.0])),
        ]:
            report = iterate(T, s0, k_max=200, stop_tol=1e-9)
            for prev, cur in zip(report.states, report.states[1:]):
                assert np.all(cur <= prev + 1e-15)

    def test_stops_unconverged_at_a_non_finite_state(self):
        # 2^1024 overflows, and the map cannot take the infinite state as input
        report = iterate(make_linear_map(2.0 * np.eye(2)), [1, 1], k_max=2000)
        assert not report.converged
        assert report.steps_used == 1024
        assert report.steps[-1] == 1024
        assert np.all(np.isinf(report.states[-1]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            iterate(SWAP_HALF, [1, 1], k_max=0)
        for stop_tol in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="stop_tol"):
                iterate(SWAP_HALF, [1, 1], stop_tol=stop_tol)


    @pytest.mark.parametrize("k_max", [2.5, True, "10"])
    def test_k_max_must_be_an_int(self, k_max):
        with pytest.raises(ValueError, match="k_max must be an int"):
            iterate(SWAP_HALF, [1, 1], k_max=k_max)


class TestVerifyAttraction:
    """The trajectory half of the certificate: ``iterate(T, s*).converged``."""

    def test_chain_feasible_point(self):
        report = iterate(make_chain_map(2), chain_feasible_point(2, 10.0))
        assert report.converged

    def test_identity_fixed_point_is_not_attracted(self):
        report = iterate(make_linear_map(np.eye(2)), [1, 1], k_max=100)
        assert not report.converged
        np.testing.assert_allclose(report.states[-1], [1, 1])

    def test_linear_geometric(self):
        assert iterate(SWAP_HALF, [5, 5]).converged


class TestSolveProblem1:
    def test_chain_maps_certify(self):
        for n in (2, 3):
            cert = solve_problem1(
                make_chain_map(n), SolverConfig(r=10.0, epsilon=1e-2, max_iterations=100000), n
            )
            assert cert.problem1_satisfied
            assert cert.solve.success and cert.trajectory.converged

    def test_identity_fails_at_the_search_step(self):
        cert = solve_problem1(make_linear_map(np.eye(2)), SolverConfig(r=1.0), 2)
        assert not cert.problem1_satisfied
        assert not cert.solve.success
        assert cert.trajectory is None

    def test_random_contractive_certifies(self):
        A = random_contractive(5, 0.8, seed=3)
        cert = solve_problem1(
            make_linear_map(A), SolverConfig(r=10.0, epsilon=0.1, max_iterations=100000), 5
        )
        assert cert.problem1_satisfied

    @pytest.mark.parametrize("limits", [{"k_max": 0}, {"stop_tol": float("nan")},
                                        {"stop_tol": 0.0}])
    def test_bad_trajectory_limits_cost_no_evaluation(self, limits):
        with recorded() as seen, pytest.raises(ValueError):
            solve_problem1(make_chain_map(5), SolverConfig(r=10.0, epsilon=0.1), 5, **limits)
        assert seen == []

    def test_certificate_soundness_recheck(self):
        cfg = SolverConfig(r=10.0, epsilon=0.1, max_iterations=100000)
        T = make_chain_map(4)
        cert = solve_problem1(T, cfg, 4)
        assert cert.problem1_satisfied
        s = cert.solve.s_star
        assert float(np.min(s - T(s))) >= cfg.epsilon - 1e-12
        assert abs(float(np.sum(s)) - cfg.r) <= 1e-9 * cfg.r
        assert cert.trajectory.final_sup_norm < 1e-6


class TestOrderingCheck:
    def test_equal_starts(self):
        assert ordering_check(make_chain_map(2), [1, 1], [1, 1], 10)

    def test_chain_ordered_starts(self):
        assert ordering_check(make_chain_map(2), [1, 1], [2, 2], 20)

    def test_zero_below_anything(self):
        assert ordering_check(SWAP_HALF, [0, 0], [5, 5], 10)

    def test_rejects_unordered_starts(self):
        with pytest.raises(ValueError):
            ordering_check(SWAP_HALF, [2, 0], [1, 1], 5)

    def test_an_antitone_map_breaks_the_order(self):
        # s -> 1/(1 + s) sends 0 <= 1 to 1 > 1/2 in one step
        T = MonotoneMap(1, lambda s: 1.0 / (1.0 + s), "antitone")
        assert ordering_check(T, [0.0], [1.0], 1) is False

    @pytest.mark.parametrize("k", [2.5, True, "10"])
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ValueError, match="k must be an int"):
            ordering_check(SWAP_HALF, [1, 1], [2, 2], k)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ordering_check(SWAP_HALF, [1, 1], [2, 2], 0)

    def test_holds_across_families(self):
        # starts stay in the unit box so 25 chain-map steps remain finite
        rng = np.random.default_rng(41)
        maps = [
            make_chain_map(3),
            make_linear_map(rng.random((3, 3))),
            make_max_preserving(
                [[None, "0.5*t", None], [None, None, "t^2"], ["0.25*t", None, None]]
            ),
        ]
        for T in maps:
            for _ in range(50):
                s0 = rng.random(3) * 0.5
                v0 = s0 + rng.random(3) * 0.5
                assert ordering_check(T, s0, v0, 25)
