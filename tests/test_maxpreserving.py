import warnings
from itertools import combinations, permutations

import numpy as np
import pytest

from decaycert.homotopy import SolverConfig, find_decay_point
from decaycert import maxpreserving
from decaycert.maxpreserving import GainTable, cycle_condition, cycle_grid, path_q, reparametrize_path
from decaycert.scalarfn import Term


def half_id_cycle(n):
    """Gains 0.5*t around the full cycle 1 -> 2 -> ... -> n -> 1."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = "0.5*t"
    return GainTable(rows)


VIOLATING = GainTable([[None, "2*t"], ["t", None]])


def compose_walk(table, walk, t):
    """g_{w1 w2} o g_{w2 w3} o ... o g_{wk w1} at t for a 1-based closed walk."""
    closed = walk + walk[:1]
    value = t
    for a in range(len(walk) - 1, -1, -1):
        value = table.gain(closed[a], closed[a + 1])(value)
    return value


def enumerate_simple_cycles(table, grid):
    """Reference oracle: every simple cycle, tested only from its smallest index.

    Returns ``(True, None)`` or ``(False, (cycle, t))`` like cycle_condition.
    """
    n = table.n
    for k in range(1, n + 1):
        for combo in combinations(range(1, n + 1), k):
            for rest in permutations(combo[1:]):
                cycle = combo[:1] + rest
                for t in grid:
                    if compose_walk(table, cycle, t) >= t:
                        return False, (cycle, t)
    return True, None


def random_gain(rng, power):
    """c*t^power, alone or with a term that dominates at large or at small t."""
    c = float(rng.uniform(0.5, 1.3))
    d = float(rng.uniform(0.001, 0.05))
    form = int(rng.integers(3))
    if form == 0:
        return f"{c!r}*t^{power!r}"
    if form == 1:
        return f"max({c!r}*t^{power!r}, {d!r}*t^{2 * power!r})"
    return f"{c / 2!r}*t^{power!r} + {d!r}*t^{power / 2!r}"


FREE_POWERS = [0.5, 0.7, 1.0, 1.2, 1.3, 2.0]


def random_table(seed, free=False):
    """Random table whose gain g_ij has power p_i / p_j with p in {1/2, 1, 2}.

    Without the extra terms every cycle composes to a multiple of t; the
    extra terms make the verdict depend on t and on the rotation.  With
    ``free`` each gain draws its own power from FREE_POWERS, so cycles
    compose to other powers of t.
    """
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    p = rng.choice([0.5, 1.0, 2.0], n)
    density = [[0.15 if i == j else 0.6 for j in range(n)] for i in range(n)]
    return GainTable([[random_gain(rng, float(rng.choice(FREE_POWERS) if free else p[i] / p[j]))
                       if rng.random() < density[i][j] else None
                       for j in range(n)] for i in range(n)])


ENUMERATED = [pytest.param(random_table(seed), id=str(seed)) for seed in range(120)] + [
    pytest.param(random_table(seed, free=True), id=f"free{seed}") for seed in range(60)
]


def cycle_mean(C):
    """Largest geometric cycle mean of a max-times matrix, from its first n powers."""
    power, best = C.copy(), 0.0
    for k in range(1, C.shape[0] + 1):
        best = max(best, float(np.max(np.diag(power))) ** (1.0 / k))
        power = np.max(power[:, :, None] * C[None, :, :], axis=1)
    return best


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

    def test_gain_calls_do_not_grow_with_the_grid(self, monkeypatch):
        n = 6
        table = half_id_cycle(n)  # built first: building checks every gain on a grid
        calls = 0
        call = Term.__call__

        def counting(self, t):
            nonlocal calls
            calls += 1
            return call(self, t)

        monkeypatch.setattr(Term, "__call__", counting)
        ok, witness = cycle_condition(table)
        assert ok and witness is None
        assert calls <= n**3

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cycle_condition(g)
        assert result == (False, ((1, 2), min(t for t in cycle_grid() if t > 1)))

    def test_missed_rotation_is_a_violation(self):
        # g_12 o g_21(t) = 5e-4*t^2 >= t only from t = 2000, off the grid, but
        # the rotation g_21 o g_12(t) = 5e-3*t^2 >= t holds from t = 200
        g = GainTable([[None, "10*t"], ["5e-05*t^2", None]])
        assert cycle_condition(g) == (False, ((2, 1), 10**2.375))

    def test_accepts_nested_lists(self):
        rows = [[None, "0.5*t^90"], ["0.5*t^90", None]]
        assert cycle_condition(rows) == cycle_condition(GainTable(rows))
        assert cycle_condition([[None, "0.5*t"], ["t", None]]) == (True, None)
        with pytest.raises(ValueError, match="square"):
            cycle_condition([["t", None]])

    @pytest.mark.parametrize("table", ENUMERATED)
    def test_agrees_with_the_cycle_enumerator(self, table):
        ok, witness = cycle_condition(table)
        ref_ok, ref_witness = enumerate_simple_cycles(table, cycle_grid())
        if not ref_ok:
            # the power test also checks this cycle (in every rotation)
            assert not ok
            assert len(witness[0]) <= len(ref_witness[0])
        if not ok:
            walk, t = witness
            assert compose_walk(table, walk, t) >= t

    @pytest.mark.parametrize("n", [12, 20])
    @pytest.mark.parametrize("mean", [0.95, 1.05])
    def test_linear_gains_against_the_cycle_mean(self, n, mean):
        # with gains c*t every cycle composes to (product of c)*t, so the
        # table passes exactly when its max-times cycle mean is below 1
        rng = np.random.default_rng(n)
        C = rng.uniform(0.05, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
        C *= mean / cycle_mean(C)
        table = GainTable([[f"{float(c)!r}*t" if c else None for c in row] for row in C])
        ok, witness = cycle_condition(table)
        if mean < 1.0:
            assert (ok, witness) == (True, None)
        else:
            walk, t = witness
            assert not ok and t == cycle_grid()[0]
            assert compose_walk(table, walk, t) >= t


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

    def test_builds_the_map_once(self, monkeypatch):
        builds = 0
        build = maxpreserving.make_max_preserving

        def counting(gains):
            nonlocal builds
            builds += 1
            return build(gains)

        monkeypatch.setattr(maxpreserving, "make_max_preserving", counting)
        reparametrize_path(half_id_cycle(6), 10.0)
        assert builds == 1

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
