import tracemalloc
import warnings
from functools import reduce
from itertools import combinations, permutations

import numpy as np
import pytest

from decaycert.homotopy import SolverConfig, find_decay_point
from decaycert import maps
from decaycert.maxpreserving import GainTable, cycle_condition, cycle_grid, path_q, reparametrize_path
from decaycert.scalarfn import Max, Sum, Term


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

    @pytest.mark.parametrize("i,j", [(0, 1), (3, 1), (1, -1)])
    def test_gain_lookup_rejects_an_index_outside_1_to_n(self, i, j):
        # index 0 would wrap to row n, and 3 would raise a bare IndexError
        with pytest.raises(ValueError, match=rf"^gain index \({i}, {j}\) lies outside 1\.\.2$"):
            half_id_cycle(2).gain(i, j)

    @pytest.mark.parametrize("i,j,message", [(1.5, 1, r"i must be an int, got 1\.5"),
                                             (True, 2, "i must be an int, got True"),
                                             (1, 2.0, r"j must be an int, got 2\.0")])
    def test_gain_lookup_rejects_an_index_that_is_not_an_int(self, i, j, message):
        # 1.5 would raise a bare TypeError, and True would read as row 1
        with pytest.raises(ValueError, match=rf"^gain index {message}$"):
            half_id_cycle(2).gain(i, j)

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

    def test_keeps_only_the_current_power(self):
        # one power array is n * n * 2 floats (6.4 kB at n = 20); keeping
        # all n + 1 of them for the backtrack peaks at 135 kB
        n = 20
        rng = np.random.default_rng(n)
        C = rng.uniform(0.05, 0.9, (n, n))
        table = GainTable([[f"{float(c)!r}*t" for c in row] for row in C])
        tracemalloc.start()
        try:
            assert cycle_condition(table) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

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
        assert result == (False, ((1, 2), 1e3))

    def test_missed_rotation_is_a_violation(self):
        # g_12 o g_21(t) = 5e-4*t^2 >= t only from t = 2000, outside the interval,
        # but the rotation g_21 o g_12(t) = 5e-3*t^2 >= t holds from t = 200
        g = GainTable([[None, "10*t"], ["5e-05*t^2", None]])
        assert cycle_condition(g) == (False, ((2, 1), 1e3))

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


def dense_grid_verdict(table: GainTable, points: int = 1201) -> bool:
    """The reference verdict: True unless some closed walk of length ``k <= n``
    through ``i`` has ``(T^k(t e_i))_i >= t`` at one of ``points`` log-spaced t
    over ``[1e-3, 1e3]``, both ends included.

    Each start is stepped on its own, every gain acting on the whole grid.
    """
    ts = np.logspace(-3.0, 3.0, points)
    n = table.n
    with np.errstate(over="ignore"):
        for i in range(n):
            w = [ts if j == i else np.zeros(points) for j in range(n)]
            for _ in range(n):
                w = [reduce(np.maximum, (table.gain(a, j + 1)(w[j]) for j in range(n)),
                            np.zeros(points)) for a in range(1, n + 1)]
                if np.any(w[i] >= ts):
                    return False
    return True


def test_the_two_end_verdict_covers_the_interval():
    """By log-log convexity the verdict at 1e-3 and 1e3 is the verdict on every
    point between them, here 1,201 of them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a zero gain two times in five: about a third of the tables pass, and the
    # others fail at either end
    terms = st.builds(Term, st.floats(-3.0, 0.0).map(lambda x: 10.0 ** x), st.floats(0.7, 1.3))
    gains = (st.none() | st.none() | terms | st.builds(Sum, st.tuples(terms, terms))
             | st.builds(Max, st.tuples(terms, terms)))

    @st.composite
    def tables(draw):
        n = draw(st.integers(1, 4))
        return GainTable([[draw(gains) for _ in range(n)] for _ in range(n)])

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(tables())
    def check(table):
        ok, witness = cycle_condition(table)
        assert ok == dense_grid_verdict(table)
        if not ok:
            walk, t = witness
            assert t in (1e-3, 1e3) and compose_walk(table, walk, t) >= t

    check()


def test_path_functions_accept_nested_lists():
    rows = [[None, "0.5*t"], ["0.25*t", None]]
    np.testing.assert_array_equal(path_q(rows, 4.0), path_q(GainTable(rows), 4.0))
    np.testing.assert_array_equal(reparametrize_path(rows, 10.0),
                                  reparametrize_path(GainTable(rows), 10.0))
    with pytest.raises(ValueError, match="square"):
        path_q([["t", None]], 1.0)
    with pytest.raises(ValueError, match="square"):
        reparametrize_path([["t", None]], 1.0)


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

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0])
    def test_rejects_a_bad_parameter(self, t):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            path_q(half_id_cycle(2), t)

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

    def test_path_norm_not_met_by_the_starting_bracket_is_bisected(self):
        # q(t) = (8t, t) has norm 9t, met at neither end of [0, r]: both ends move
        g = GainTable([[None, "8*t"], ["0.1*t", None]])
        assert cycle_condition(g) == (True, None)
        q = reparametrize_path(g, 10.0, tol=1e-10)
        np.testing.assert_allclose(q, [80.0 / 9.0, 10.0 / 9.0], atol=1e-9)
        assert np.all(g.to_map()(q) <= q)

    def test_a_path_norm_above_r_everywhere_has_no_lower_bracket(self):
        # q(t) >= 1e3*t^0.01 e stays above 10 at t = 10*2^-200, the last midpoint above q(0) = 0
        g = GainTable([[None, "1e3*t^0.01"], ["1e3*t^0.01", None]])
        with pytest.raises(RuntimeError,
                           match=r"^bisection stalled seeking path norm 10\.0 within 1e-09$"):
            reparametrize_path(g, 10.0)

    def test_builds_the_map_once(self, monkeypatch):
        builds = 0
        build = GainTable.to_map

        def counting(table):
            nonlocal builds
            builds += 1
            return build(table)

        monkeypatch.setattr(GainTable, "to_map", counting)
        reparametrize_path(half_id_cycle(6), 10.0)
        assert builds == 1

    def test_gains_are_checked_once_per_table(self, monkeypatch):
        checked = []
        check_gain = maps.check_gain

        def counting(g, where):
            checked.append(where)
            check_gain(g, where)

        monkeypatch.setattr(maps, "check_gain", counting)
        table = GainTable([[None, "0.5*t", None], [None, None, "0.5*t"], ["0.5*t", None, None]])
        assert len(checked) == 9
        for t in cycle_grid():
            path_q(table, t)
        reparametrize_path(table, 10.0)
        assert len(checked) == 9

    @pytest.mark.parametrize("r, tol", [(float("nan"), 1e-9), (float("inf"), 1e-9),
                                        (10.0, float("nan")), (10.0, float("inf"))])
    def test_rejects_non_finite_arguments(self, r, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            reparametrize_path(half_id_cycle(2), r, tol=tol)

    def test_a_point_that_does_not_almost_decay_is_refused(self):
        # the cycle g12 o g21 = 0.019 t^0.5 passes the cycle test on [1e-3, 1e3], but it
        # reaches the identity below t = 3.6e-4, and the path point of norm 1e-3 has
        # T(q)_1 - q_1 = 5.8e-5
        g = GainTable([[None, "0.37409835133347946*t"],
                       ["0.0507155593460335*t^0.5", "0.2879043623567955*t"]])
        assert cycle_condition(g) == (True, None)
        with pytest.raises(ValueError,
                           match=r"^path point of norm 0\.001 has T\(q\) > q in component 1$"):
            reparametrize_path(g, 1e-3)

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
