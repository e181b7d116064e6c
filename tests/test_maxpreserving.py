import numpy as np
import pytest

from decaycert.homotopy import SolverConfig, find_decay_point
from decaycert.maxpreserving import GainTable, cycle_condition, cycle_grid, path_q, reparametrize_path


def half_id_cycle(n):
    """Gains 0.5*t around the full cycle 1 -> 2 -> ... -> n -> 1."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = "0.5*t"
    return GainTable(rows)


VIOLATING = GainTable([[None, "2*t"], ["t", None]])


class TestGainTable:
    def test_square_required(self):
        with pytest.raises(ValueError):
            GainTable([["0.5*t", None]])

    def test_gain_lookup_is_one_based(self):
        g = half_id_cycle(2)
        assert g.gain(1, 2)(4.0) == 2.0
        assert g.gain(1, 1)(4.0) == 0.0

    def test_rejects_offset_gain(self):
        from decaycert.scalarfn import Term

        with pytest.raises(ValueError, match="g\\(0\\)=0"):
            GainTable([[Term(1.0, 0.0)]])

    def test_induced_map(self):
        T = half_id_cycle(2).to_map()
        np.testing.assert_allclose(T([4, 2]), [1, 2])


class TestCycleCondition:
    def test_half_id_cycle_passes(self):
        ok, witness = cycle_condition(half_id_cycle(2))
        assert ok and witness is None

    def test_violation_with_witness(self):
        ok, witness = cycle_condition(VIOLATING)
        assert not ok
        cycle, t = witness
        assert cycle == (1, 2)
        # the composition along the witness really dominates the identity there
        comp = VIOLATING.gain(1, 2)(VIOLATING.gain(2, 1)(t))
        assert comp >= t

    def test_all_zero_gains_pass(self):
        ok, witness = cycle_condition(GainTable([[None, None], [None, None]]))
        assert ok and witness is None

    def test_identity_self_loop_fails(self):
        ok, witness = cycle_condition(GainTable([["t"]]))
        assert not ok
        assert witness[0] == (1,)

    def test_self_loop_above_identity_detected(self):
        # path 1 -> 2 is harmless, but the 1-cycle at 2 dominates id
        g = GainTable([[None, "0.5*t"], [None, "1.5*t"]])
        ok, witness = cycle_condition(g)
        assert not ok
        assert witness[0] == (2,)

    def test_path_into_a_self_loop_is_not_a_cycle(self):
        # g_12 o g_22 runs from 2 to 1, so 2*0.9*t >= t says nothing about
        # cycles; every true cycle (0.9*t and 0.2*t) stays below id
        g = GainTable([[None, "2*t"], ["0.1*t", "0.9*t"]])
        assert cycle_condition(g) == (True, None)
        report = find_decay_point(
            g.to_map(), SolverConfig(r=10.0, epsilon=0.1, max_iterations=100000), 2
        )
        assert report.success

    def test_overflowing_composition_is_a_violation(self):
        # 0.5*(0.5*t^90)^90 >= t from t ~ 1.008 on; past t ~ 1.1 the float
        # power overflows, which must read as +inf rather than raise
        g = GainTable([[None, "0.5*t^90"], ["0.5*t^90", None]])
        assert cycle_condition(g) == (False, ((1, 2), min(t for t in cycle_grid() if t > 1)))

    def test_dimension_cap(self):
        n = 13
        rows = [[None] * n for _ in range(n)]
        with pytest.raises(ValueError, match="n <= 12"):
            cycle_condition(GainTable(rows))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            cycle_condition(half_id_cycle(2), t_grid=[])


class TestPathQ:
    def test_half_id_two_dim(self):
        np.testing.assert_allclose(path_q(half_id_cycle(2), 4.0), [4.0, 4.0])

    def test_zero_gains_give_constant_vector(self):
        g = GainTable([[None] * 3 for _ in range(3)])
        np.testing.assert_allclose(path_q(g, 2.5), [2.5, 2.5, 2.5])

    def test_three_cycle(self):
        np.testing.assert_allclose(path_q(half_id_cycle(3), 8.0), [8.0, 8.0, 8.0])

    def test_nondecreasing_in_t(self):
        g = GainTable([[None, "t^2"], ["0.5*t", None]])
        ts = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        values = [path_q(g, t) for t in ts]
        for a, b in zip(values, values[1:]):
            assert np.all(a <= b)

    def test_dominates_map_image_when_cycles_pass(self):
        tables = [half_id_cycle(2), half_id_cycle(3),
                  GainTable([[None, "0.5*t"], ["0.25*t", None]])]
        for g in tables:
            ok, _ = cycle_condition(g)
            assert ok
            T = g.to_map()
            for t in cycle_grid():
                q = path_q(g, t)
                assert np.all(T(q) <= q), (g, t)


class TestReparametrize:
    def test_half_id_hits_target_norm(self):
        q = reparametrize_path(half_id_cycle(2), 10.0, tol=1e-10)
        np.testing.assert_allclose(q, [5.0, 5.0], atol=1e-9)

    def test_zero_gains(self):
        g = GainTable([[None] * 3 for _ in range(3)])
        np.testing.assert_allclose(reparametrize_path(g, 6.0, tol=1e-10), [2, 2, 2], atol=1e-9)

    def test_asymmetric_gains(self):
        g = GainTable([[None, "0.5*t"], ["0.25*t", None]])
        np.testing.assert_allclose(reparametrize_path(g, 10.0, tol=1e-10), [5.0, 5.0], atol=1e-9)

    def test_result_is_almost_decaying(self):
        g = half_id_cycle(3)
        q = reparametrize_path(g, 7.0, tol=1e-9)
        assert abs(float(np.sum(q)) - 7.0) <= 1e-8
        T = g.to_map()
        assert np.all(T(q) <= q)


class TestSolverConsistency:
    def test_decaying_tables_admit_decay_points(self):
        for n in (2, 3):
            g = half_id_cycle(n)
            ok, _ = cycle_condition(g)
            assert ok
            report = find_decay_point(
                g.to_map(), SolverConfig(r=10.0, epsilon=1e-2, max_iterations=100000), n
            )
            assert report.success

    def test_violating_table_defeats_the_solver(self):
        ok, witness = cycle_condition(VIOLATING)
        assert not ok and witness[0] == (1, 2)
        report = find_decay_point(
            VIOLATING.to_map(), SolverConfig(r=10.0, epsilon=1e-2, max_iterations=5000), 2
        )
        assert not report.success
