import math

import numpy as np
import pytest

from decaycert.maps import (
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

        # Term(c, 0) is the constant c, which cannot vanish at zero
        with pytest.raises(ValueError, match="g\\(0\\)=0"):
            make_max_preserving([[Term(1.0, 0.0)]])

    def test_rejects_raw_callables(self):
        # gains stay inside the serializable vocabulary
        with pytest.raises(TypeError):
            make_max_preserving([[lambda t: t]])


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
