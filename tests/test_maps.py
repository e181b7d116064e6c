import math
import re

import numpy as np
import pytest

from decaycert.maps import (
    MonotoneMap,
    chain_feasible_point,
    compose,
    make_chain_map,
    make_diagonal,
    make_flipflop_map,
    make_linear_map,
    make_max_preserving,
)
from decaycert.order import compare, OrderRelation


def random_ordered_pair(rng, n, scale=10.0):
    x = rng.random(n) * scale
    return x, x + rng.random(n) * scale


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
        rng = np.random.default_rng(0)
        for n in range(2, 11):
            T = make_chain_map(n)
            for _ in range(200):
                s = rng.uniform(0.0, 10.0, n) * (rng.random(n) < 0.8)
                closed = [0.25 * ((s[i - 1] ** (1.0 / (i + 1)) if i else 0.0)
                                  + (s[i + 1] ** (i + 2) if i + 1 < n else 0.0)) for i in range(n)]
                assert T(s).tobytes() == np.array(closed).tobytes()

    def test_zero_fixed_point(self):
        for n in (2, 3, 7):
            assert np.all(make_chain_map(n)(np.zeros(n)) == 0.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_chain_map(1)

    def test_feasible_point_values(self):
        np.testing.assert_allclose(
            chain_feasible_point(2, 10.0), [10.0, math.sqrt(10.0)]
        )
        np.testing.assert_allclose(
            chain_feasible_point(3, 10.0), [10.0, 10.0 ** 0.5, 10.0 ** (1.0 / 6.0)]
        )
        np.testing.assert_allclose(chain_feasible_point(2, 1.0), [1.0, 1.0])

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 0.0])
    def test_feasible_point_rejects_a_bad_radius(self, r):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            chain_feasible_point(3, r)

    def test_feasible_point_strictly_decays(self):
        for n in range(2, 11):
            T = make_chain_map(n)
            for r in (0.1, 1.0, 10.0, 100.0):
                p = chain_feasible_point(n, r)
                assert compare(T(p), p) is OrderRelation.LL, (n, r)

    def test_feasible_point_decay_values_n2(self):
        T = make_chain_map(2)
        np.testing.assert_allclose(T(chain_feasible_point(2, 10.0)), [2.5, 0.7905694150420949])
        np.testing.assert_allclose(T(chain_feasible_point(2, 1.0)), [0.25, 0.25])


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

    def test_iteration_never_produces_strict_decay(self):
        # if Tx is not << x, then no iterate satisfies T^{k+1}x << T^k x
        rng = np.random.default_rng(21)
        for lam in (0.25, 0.5, 0.9):
            T = make_flipflop_map(lam)
            tested = 0
            for _ in range(200):
                x = rng.random(2) * 10 + 1e-9
                if compare(T(x), x) is OrderRelation.LL:
                    continue
                tested += 1
                cur = x
                for _ in range(50):
                    nxt = T(cur)
                    assert compare(T(nxt), nxt) is not OrderRelation.LL, (lam, x)
                    cur = nxt
                if tested >= 100:
                    break
            assert tested >= 100


class TestLinear:
    def test_matvec(self):
        T = make_linear_map([[0, 0.5], [0.5, 0]])
        np.testing.assert_allclose(T([6, 4]), [2, 3])

    def test_zero_matrix(self):
        T = make_linear_map(np.zeros((3, 3)))
        assert np.all(T([1, 2, 3]) == 0.0)

    def test_scalar(self):
        np.testing.assert_allclose(make_linear_map([[0.8]])([10.0]), [8.0])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative entry"):
            make_linear_map([[-1.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match=r"non-finite entry at \(1,2\)"):
            make_linear_map([[0.0, bad], [0.5, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            make_linear_map([[1.0, 2.0]])

    def test_rejects_a_bool_or_a_string_entry(self):
        # numpy reads True as 1.0 and "0.5" as 0.5, so this built T(2, 4) = (4, 0)
        with pytest.raises(ValueError, match=r"^matrix entry at \(1,1\) is not a number: True$"):
            make_linear_map([[True, "0.5"], [0, 0]])
        with pytest.raises(ValueError, match=r"^matrix entry at \(1,2\) is not a number: '0\.5'$"):
            make_linear_map([[1.0, "0.5"], [0, 0]])
        with pytest.raises(ValueError, match=r"^matrix entry at \(1,1\) is not a number: True$"):
            make_linear_map(np.eye(2, dtype=bool))


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

    def test_rejects_gain_with_offset(self):
        from decaycert.scalarfn import Term

        # c*t^0 is the constant c, which cannot vanish at zero, however small c is
        for build in (lambda: make_max_preserving([[Term(1.0, 0.0)]]),
                      lambda: make_max_preserving([["1e-13*t^0", "0.5*t"], ["0.5*t", None]]),
                      lambda: make_diagonal(["t + 1e-13*t^0"])):
            with pytest.raises(ValueError, match="g\\(0\\)=0"):
                build()

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

    def test_rejects_a_decreasing_gain(self):
        from decaycert.scalarfn import Term

        # -0.5*t vanishes at zero; its negative coefficient is refused when the Term is built
        with pytest.raises(ValueError, match=r"^Term coefficient must be real, finite and >= 0"):
            make_max_preserving([[None, Term(-0.5)], ["0.5*t", None]])


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


def _family_zoo(rng):
    """One representative per family and dimension up to 6."""
    zoo = []
    for n in range(2, 7):
        A = rng.random((n, n))
        zoo.append((f"linear-{n}", make_linear_map(A), n))
        zoo.append((f"chain-{n}", make_chain_map(n), n))
        gains = [
            [None if i == j else "0.5*t" for j in range(n)] for i in range(n)
        ]
        zoo.append((f"maxpreserving-{n}", make_max_preserving(gains), n))
        zoo.append((f"diagonal-{n}", make_diagonal(["t^2"] * n), n))
        zoo.append(
            (f"composition-{n}", compose(make_diagonal(["2*t"] * n), make_linear_map(A)), n)
        )
    zoo.append(("flipflop", make_flipflop_map(0.5), 2))
    return zoo


class TestFamilyInvariants:
    def test_monotone_on_sampled_ordered_pairs(self):
        rng = np.random.default_rng(24)
        for name, T, n in _family_zoo(rng):
            for _ in range(200):
                x, y = random_ordered_pair(rng, n, scale=3.0)
                assert np.all(T(x) <= T(y)), name

    def test_zero_maps_to_zero_exactly(self):
        rng = np.random.default_rng(25)
        for name, T, n in _family_zoo(rng):
            assert np.all(T(np.zeros(n)) == 0.0), name

    def test_orthant_preserved(self):
        rng = np.random.default_rng(26)
        for name, T, n in _family_zoo(rng):
            for _ in range(50):
                assert np.all(T(rng.random(n) * 10) >= 0.0), name


class TestHomogeneousFlag:
    """Only the family constructors set ``homogeneous``, and only for degree-one maps."""

    SWAP = [[0.0, 0.5], [0.5, 0.0]]

    def test_linear_maps_are_homogeneous(self):
        assert make_linear_map(self.SWAP).homogeneous

    @pytest.mark.parametrize("T", [make_chain_map(3), make_flipflop_map(0.5),
                                   MonotoneMap(2, lambda s: 0.5 * s, "scaled")],
                             ids=["chain", "flipflop", "direct"])
    def test_other_maps_are_not(self, T):
        assert not T.homogeneous

    @pytest.mark.parametrize("gains,expected", [
        ([[None, "0.5*t"], ["max(t, 2*t)", "0"]], True),
        ([[None, "0.5*t"], ["t^2", None]], False),
    ])
    def test_max_preserving_tables_of_degree_one_gains(self, gains, expected):
        assert make_max_preserving(gains).homogeneous is expected

    @pytest.mark.parametrize("functions,expected", [
        (["2*t", "2*t"], True),
        (["2*t", "t + 0.5*t"], True),
        (["t^1.2", "t^1.2"], False),
        (["2*t", "t^1.2"], False),
    ])
    def test_compositions_are_homogeneous_when_every_factor_is(self, functions, expected):
        assert make_diagonal(functions).homogeneous is expected
        T = compose(make_linear_map(self.SWAP), make_diagonal(functions))
        assert T.homogeneous is expected
        assert compose(T, make_chain_map(2)).homogeneous is False

    def test_the_flag_is_read_only(self):
        T = make_linear_map(self.SWAP)
        with pytest.raises(AttributeError):
            T.homogeneous = False


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
