import pytest

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


class TestAsPoint:
    def test_read_only(self):
        p = as_point([1.0, 2.0])
        with pytest.raises(ValueError):
            p[0] = 3.0
