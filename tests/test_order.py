import numpy as np
import pytest

from decaycert.maps import make_linear_map
from decaycert.order import OrderRelation, as_point, compare

R = OrderRelation


class TestCompare:
    def test_strict_componentwise(self):
        assert compare([1, 1], [2, 2]) is R.LL

    def test_weak_when_some_component_ties(self):
        assert compare([1, 2], [1, 3]) is R.LT

    def test_incomparable(self):
        assert compare([2, 1], [1, 2]) is R.INCOMPARABLE

    def test_equal(self):
        assert compare([3, 4], [3, 4]) is R.EQ

    def test_reversed_relations(self):
        assert compare([2, 2], [1, 1]) is R.GG
        assert compare([1, 3], [1, 2]) is R.GT

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare([1, 2], [1, 2, 3])

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            compare([-1, 0], [0, 0])


class TestCompareProperties:
    def test_antisymmetry_on_random_pairs(self):
        flipped = {R.LL: R.GG, R.LT: R.GT, R.GG: R.LL, R.GT: R.LT,
                   R.EQ: R.EQ, R.INCOMPARABLE: R.INCOMPARABLE}
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = rng.integers(1, 6)
            x = rng.random(n) * 10
            y = rng.random(n) * 10
            if rng.random() < 0.2:
                y = x.copy()
            assert compare(y, x) is flipped[compare(x, y)]

    def test_eq_is_the_only_self_relation(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.random(rng.integers(1, 6)) * 5
            assert compare(x, x) is R.EQ

    def test_transitivity_brute_force(self):
        leq = {R.LL, R.LT, R.EQ}
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(3000):
            n = rng.integers(1, 5)
            x, y, z = rng.random(n) * 4, rng.random(n) * 4, rng.random(n) * 4
            if compare(x, y) in leq and compare(y, z) in leq:
                assert compare(x, z) in leq
                assert np.all(x <= z)
                checked += 1
        assert checked > 50


class TestAsPoint:
    def test_read_only(self):
        p = as_point([1.0, 2.0])
        with pytest.raises(ValueError):
            p[0] = 3.0

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            as_point([[1.0, 2.0]])
        with pytest.raises(ValueError):
            as_point([])
        with pytest.raises(ValueError):
            as_point([1.0, 2.0], dim=3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_components(self, bad):
        with pytest.raises(ValueError, match="non-finite component at index 0"):
            as_point([bad, 1.0])

    @pytest.mark.parametrize("x, index, entry", [
        ([True, 2.0], 0, "True"), ([1.0, np.bool_(False)], 1, repr(np.bool_(False))),
        (["1", "2"], 0, "'1'"), ([0.5, b"2"], 1, "b'2'"), (np.array(["1", "2"]), 0, "'1'"),
        (np.array([False, True]), 0, "False"),
    ], ids=["bool", "numpy-bool", "str", "bytes", "str-array", "bool-array"])
    def test_rejects_bool_and_string_components(self, x, index, entry):
        with pytest.raises(ValueError) as got:
            as_point(x)
        assert str(got.value) == f"component at index {index} is not a number: {entry}"

    def test_a_map_refuses_a_string_point(self):
        T = make_linear_map([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match=r"^component at index 0 is not a number: '1'$"):
            T(["1", "2"])
        assert T([1, 2.0]).tolist() == [1.0, 0.5]
