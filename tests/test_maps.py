import dataclasses
import math
import re

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from decaycert.maps import (
    MonotoneMap,
    compose,
    make_chain_map,
    make_diagonal,
    make_flipflop_map,
    make_linear_map,
    make_max_preserving,
)
from decaycert.order import compare, OrderRelation


class TestChainMap:
    def test_eval_n2_reference_point(self):
        # direct evaluation: (Ts)_1 = (s2^2)/4, (Ts)_2 = sqrt(s1)/4
        T = make_chain_map(2)
        s = np.array([10.0, math.sqrt(10.0)])
        np.testing.assert_allclose(T(s), [2.5, 0.25 * math.sqrt(10.0)])

    def test_eval_n5_unit_impulse(self):
        T = make_chain_map(5)
        np.testing.assert_allclose(T([0, 1, 0, 0, 0]), [0.25, 0.0, 0.25, 0.0, 0.0])

    def test_eval_n3_ones(self):
        T = make_chain_map(3)
        np.testing.assert_allclose(T([1, 1, 1]), [0.25, 0.5, 0.25])

    def test_eval_is_the_closed_form_to_the_bit(self):
        # the map evaluates through the Terms its Jacobian differentiates; the
        # factor 1/4 is exact, so they give the closed form's bits
        def slope(a, t):  # 0.25 a t^(a-1) in Term.derivative's order; inf where 0 meets a < 1
            return 0.25 * a * float(t) ** (a - 1.0) if t or a >= 1.0 else math.inf

        rng = np.random.default_rng(0)
        for n in range(2, 11):
            T = make_chain_map(n)
            for _ in range(200):
                s = rng.uniform(0.0, 10.0, n) * (rng.random(n) < 0.8)
                closed = [0.25 * ((s[i - 1] ** (1.0 / (i + 1)) if i else 0.0)
                                  + (s[i + 1] ** (i + 2) if i + 1 < n else 0.0)) for i in range(n)]
                assert T(s).tobytes() == np.array(closed).tobytes()
                J = np.zeros((n, n))
                for i in range(1, n):
                    J[i, i - 1] = slope(1.0 / (i + 1), s[i - 1])
                    J[i - 1, i] = slope(i + 1.0, s[i])
                assert T.jacobian(s).tobytes() == J.tobytes()

    def test_zero_fixed_point(self):
        for n in (2, 3, 7):
            assert np.all(make_chain_map(n)(np.zeros(n)) == 0.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_chain_map(1)

    def test_feasible_point_strictly_decays(self):
        # the point p = (r, r^(1/2!), ..., r^(1/n!)) has Tp << p
        for n in range(2, 11):
            T = make_chain_map(n)
            for r in (0.1, 1.0, 10.0, 100.0):
                p = np.array([r ** (1.0 / math.factorial(i)) for i in range(1, n + 1)])
                assert compare(T(p), p) is OrderRelation.LL, (n, r)

    def test_feasible_point_decay_values_n2(self):
        T = make_chain_map(2)
        np.testing.assert_allclose(T([10.0, 10.0 ** 0.5]), [2.5, 0.7905694150420949])
        np.testing.assert_allclose(T([1.0, 1.0]), [0.25, 0.25])


class TestFlipflop:
    def test_eval(self):
        T = make_flipflop_map(0.5)
        np.testing.assert_allclose(T([1.0, 0.25]), [0.5, 0.5])
        np.testing.assert_allclose(T([1.0, 1.0]), [1.0, 0.5])
        assert np.all(T([0.0, 0.0]) == 0.0)

    def test_square_acts_componentwise(self):
        # T^2 x = (sqrt(lam) x1, lam x2)
        lam = 0.5
        T = make_flipflop_map(lam)
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(T(T(x)), [math.sqrt(lam) * x[0], lam * x[1]])

    def test_lambda_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                make_flipflop_map(bad)


class TestLinear:
    def test_matvec(self):
        T = make_linear_map([[0, 0.5], [0.5, 0]])
        np.testing.assert_allclose(T([6, 4]), [2, 3])

    def test_zero_matrix(self):
        T = make_linear_map(np.zeros((3, 3)))
        assert np.all(T([1, 2, 3]) == 0.0)

    def test_scalar(self):
        np.testing.assert_allclose(make_linear_map([[0.8]])([10.0]), [8.0])


class TestMaxPreserving:
    def test_rowwise_max(self):
        T = make_max_preserving([[None, "0.5*t"], ["0.5*t", None]])
        np.testing.assert_allclose(T([4, 2]), [1, 2])
        assert np.all(T([0, 0]) == 0.0)

    def test_asymmetric_gains(self):
        T = make_max_preserving([[None, "2*t"], ["t", None]])
        np.testing.assert_allclose(T([1, 1]), [2, 1])

    def test_distributes_over_componentwise_max(self):
        rng = np.random.default_rng(22)
        T = make_max_preserving(
            [[None, "0.5*t", "t^2"], ["max(t, 0.5*t^2)", None, None], ["0.25*t", "t", None]]
        )
        for _ in range(300):
            s, v = rng.random(3) * 5, rng.random(3) * 5
            np.testing.assert_allclose(T(np.maximum(s, v)), np.maximum(T(s), T(v)))

    def test_rejects_raw_callables(self):
        from decaycert.scalarfn import ScalarFn

        class Identity(ScalarFn):
            def __call__(self, t):
                return t

            def render(self):
                return "t"

        # gains stay inside the serializable vocabulary, whose invariant the checks rely on
        with pytest.raises(TypeError):
            make_max_preserving([[lambda t: t]])
        with pytest.raises(TypeError, match="^cannot interpret Identity"):
            make_max_preserving([[Identity()]])

    def test_rejects_a_string_for_the_table_or_a_row(self):
        # a string is a sequence of its characters: ["t"] built a 1x1 table
        with pytest.raises(ValueError, match="^gain table row 1 must be a sequence, got the str"):
            make_max_preserving(["t"])
        with pytest.raises(ValueError, match="^gain table must be a sequence, got the string 't'$"):
            make_max_preserving("t")


class TestDiagonal:
    def test_identity(self):
        D = make_diagonal(["t", "t", "t"])
        s = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(D(s), s)

    def test_square(self):
        np.testing.assert_allclose(make_diagonal(["t^2", "t^2"])([2, 3]), [4, 9])

    def test_sum_of_identities(self):
        np.testing.assert_allclose(make_diagonal(["t + t", "t + t"])([1, 0]), [2, 0])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="Kinf"):
            make_diagonal(["0"])

    def test_rejects_no_functions(self):
        with pytest.raises(ValueError, match="^need at least one diagonal function$"):
            make_diagonal([])

    @pytest.mark.parametrize("text", ["t", "0.5*t"])
    def test_rejects_a_string_for_the_functions(self, text):
        # a string is a sequence of its characters: "t" built a 1-D map
        message = f"diagonal functions must be a sequence, got the string '{text}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_diagonal(text)


class TestCompose:
    def test_identity_composition(self):
        T = make_linear_map([[0, 0.5], [0.5, 0]])
        ident = make_diagonal(["t", "t"])
        C = compose(ident, T)
        rng = np.random.default_rng(23)
        for _ in range(20):
            s = rng.random(2) * 10
            np.testing.assert_allclose(C(s), T(s))

    def test_diagonal_then_linear(self):
        D = make_diagonal(["2*t", "2*t"])
        T = make_linear_map([[0, 0.5], [0.5, 0]])
        np.testing.assert_allclose(compose(D, T)([6, 4]), [4, 6])

    def test_order_matters(self):
        D = make_diagonal(["2*t", "t"])
        T = make_linear_map([[0, 1], [0.25, 0]])
        s = np.array([4.0, 1.0])
        np.testing.assert_allclose(compose(D, T)(s), [2, 1])
        np.testing.assert_allclose(compose(T, D)(s), [1, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(make_chain_map(2), make_chain_map(3))

    def test_rejects_no_maps(self):
        with pytest.raises(ValueError, match="^compose needs at least one map$"):
            compose()


@pytest.mark.parametrize("dimension", [2.5, True, "3", 2.0])
def test_map_dimension_must_be_an_int(dimension):
    with pytest.raises(ValueError, match="dimension must be an int"):
        MonotoneMap(dimension, lambda s: s, "identity")


def test_chain_map_rejects_a_fractional_n():
    with pytest.raises(ValueError, match="dimension must be an int"):
        make_chain_map(2.5)


def test_a_value_of_the_wrong_shape_is_rejected():
    T = MonotoneMap(2, lambda s: s[:1], "truncating")
    with pytest.raises(ValueError, match=r"^map returned shape \(1,\), expected \(2,\)$"):
        T([1.0, 2.0])


def test_a_negative_value_is_rejected():
    T = MonotoneMap(2, lambda s: s - 1.5, "shifted")
    with pytest.raises(ValueError, match="^map produced a negative component"):
        T([1.0, 2.0])


class TestDegree:
    """Each constructor proves ``degree = (lo, hi)``: ``l^lo T(s) <= T(l s) <= l^hi T(s)``
    for ``l >= 1``.  The policy step reads ``(1, 1)``; a map built from a callable has None."""

    SWAP = [[0.0, 0.5], [0.5, 0.0]]

    @pytest.mark.parametrize("T,expected", [
        (make_linear_map(SWAP), (1.0, 1.0)),
        *[(make_chain_map(n), (1.0 / n, float(n))) for n in range(2, 6)],
        (make_flipflop_map(0.5), (0.5, 2.0)),
        (MonotoneMap(2, lambda s: 0.5 * s, "scaled"), None),
        (make_max_preserving([[None, "0.5*t"], ["max(t, 2*t)", "0"]]), (1.0, 1.0)),
        (make_max_preserving([[None, "0.5*t"], ["t^2", None]]), (1.0, 2.0)),
        (make_max_preserving([[None, "0.2*t + 0.01*t^2"], ["max(0.25*t, 0.01*t^2)", None]]),
         (1.0, 2.0)),
        (make_max_preserving([["1e-4*t^0.5", None], [None, "1e-4*t^0.5"]]), (0.5, 0.5)),
        (make_max_preserving([["0", None], [None, None]]), (1.0, 1.0)),
        (compose(make_diagonal(["t^1.5", "t^1.5"]), make_linear_map(SWAP)), (1.5, 1.5)),
        # (A s^0.5)^2: homogeneous of degree one, though not piecewise linear
        (compose(make_diagonal(["t^2", "t^2"]), make_linear_map(SWAP),
                 make_diagonal(["t^0.5", "t^0.5"])), (1.0, 1.0)),
        (compose(make_linear_map(SWAP), MonotoneMap(2, lambda s: 0.5 * s, "scaled")), None),
    ], ids=["linear", "chain-2", "chain-3", "chain-4", "chain-5", "flipflop", "direct",
            "degree-one table", "t^2 table", "sublinear table", "sqrt table", "all-zero table",
            "diag(t^1.5) o A", "diag(t^2) o A o diag(t^0.5)", "composition with a direct part"])
    def test_each_constructor_proves_its_degree(self, T, expected):
        assert T.degree == expected

    @pytest.mark.parametrize("functions,expected", [
        (["2*t", "2*t"], (1.0, 1.0)),
        (["2*t", "t + 0.5*t"], (1.0, 1.0)),
        (["t^1.2", "t^1.2"], (1.2, 1.2)),
        (["2*t", "t^1.2"], (1.0, 1.2)),
    ])
    def test_a_composition_multiplies_its_parts_ends(self, functions, expected):
        assert make_diagonal(functions).degree == expected
        T = compose(make_linear_map(self.SWAP), make_diagonal(functions))
        assert T.degree == expected
        assert compose(T, make_chain_map(2)).degree == (expected[0] * 0.5, expected[1] * 2.0)

    def test_the_degree_is_read_only(self):
        T = make_linear_map(self.SWAP)
        with pytest.raises(dataclasses.FrozenInstanceError):
            T.degree = (2.0, 2.0)
        assert T.degree == (1.0, 1.0)


def test_the_degree_bounds_how_the_map_scales():
    """``l^lo T(s) <= T(l s) <= l^hi T(s)`` to 1e-12 relative, for l in [1, 10], on random
    tables, diagonals, chain maps and compositions of them over the gain vocabulary."""
    gains = ["0.5*t", "0.3*t^0.5", "t^2", "0.2*t + 0.01*t^2", "max(0.25*t, 0.01*t^2)",
             "max(t^0.5, 0.3*t)", "0.1*t^1.5 + 0.2*t^0.8"]
    entries = st.sampled_from([None, "0", *gains])  # absent and zero entries too

    @st.composite
    def built_maps(draw, n, outer=True):
        kind = draw(st.sampled_from(["table", "diagonal", "chain", "composition"]))
        if kind == "table":
            return make_max_preserving([[draw(entries) for _ in range(n)] for _ in range(n)])
        if kind == "diagonal":
            return make_diagonal([draw(st.sampled_from(gains)) for _ in range(n)])
        if kind == "chain" or not outer:
            return make_chain_map(n)
        return compose(draw(built_maps(n, False)), draw(built_maps(n, False)))

    @st.composite
    def maps_and_points(draw):
        n = draw(st.integers(2, 4))
        components = st.just(0.0) | st.floats(1e-3, 10.0)  # no underflow to 0 below 1e-3
        return draw(built_maps(n)), np.array([draw(components) for _ in range(n)])

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(maps_and_points(), st.floats(1.0, 10.0))
    def check(T_s, lam):
        T, s = T_s
        lo, hi = T.degree
        Ts, Tls = T(s), T(lam * s)
        assert np.all(lam**lo * Ts <= Tls * (1.0 + 1e-12))
        assert np.all(Tls <= lam**hi * Ts * (1.0 + 1e-12))

    check()


class TestTable:
    """A homogeneous map's Jacobian is the matrix its constructor knows: ``A`` where
    ``T(s) = A s``, and where ``T(s)_i = max_j C_ij s_j`` the entry ``C_ij`` of each row's
    first active j, so that ``J(s) s = T(s)``.  No map has a ``table`` attribute."""

    SWAP = [[0.0, 0.5], [0.5, 0.0]]

    @staticmethod
    def check_agrees(T, how, C):
        """``T.jacobian(s)`` is C's at s = 1 and at random points, where C gives T's values."""
        assert not hasattr(T, "table")
        C = np.array(C)
        rng = np.random.default_rng(5)
        for s in [np.ones(T.dimension)] + [10.0 * rng.random(T.dimension) for _ in range(20)]:
            if how == "sum":
                J, expected = C, C @ s
            else:
                J = np.zeros_like(C)
                rows, active = np.arange(len(C)), np.argmax(C * s, axis=1)
                J[rows, active] = C[rows, active]
                expected = np.max(C * s, axis=1)
            np.testing.assert_array_equal(T.jacobian(s), J)
            np.testing.assert_allclose(T(s), expected, rtol=1e-14, atol=0.0)

    def test_a_linear_map_records_its_matrix(self):
        self.check_agrees(make_linear_map(self.SWAP), "sum", self.SWAP)

    def test_a_max_times_table_records_its_gains_at_one(self):
        T = make_max_preserving([[None, "0.5*t"], ["max(t, 2*t)", "t + 0.25*t"]])
        self.check_agrees(T, "max", [[0.0, 0.5], [2.0, 1.25]])

    def test_a_diagonal_records_a_diagonal_sum_table(self):
        self.check_agrees(make_diagonal(["2*t", "t + 0.5*t"]), "sum", [[2.0, 0.0], [0.0, 1.5]])

    def test_a_scaled_linear_map_records_the_product(self):
        # diag(c t) o A, as in mapspecs/scaled_swap.json
        T = compose(make_diagonal(["2*t", "t"]), make_linear_map([[0.0, 1.0], [0.25, 0.0]]))
        self.check_agrees(T, "sum", [[0.0, 2.0], [0.25, 0.0]])

    @pytest.mark.parametrize("T", [
        compose(make_max_preserving([[None, "0.5*t"], ["0.5*t", None]]), make_linear_map(SWAP)),
        compose(make_max_preserving([["t", None], [None, "t"]])),
        make_max_preserving([[None, "0.5*t"], ["t^2", None]]),
        make_diagonal(["2*t", "t^1.2"]),
        make_chain_map(3),
        MonotoneMap(2, lambda s: 0.5 * s, "scaled"),
    ], ids=["max o linear", "composed max", "t^2 gain", "t^1.2 diagonal", "chain", "direct"])
    def test_other_maps_have_none(self, T):
        assert not hasattr(T, "table")
