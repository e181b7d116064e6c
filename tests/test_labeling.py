import numpy as np
import pytest

from decaycert.labeling import LabeledVertexSet, label_eps, label_index, omega_membership
from decaycert.maps import make_linear_map


def zero_map(n=2):
    return make_linear_map(np.zeros((n, n)))


def identity_map(n=2):
    return make_linear_map(np.eye(n))


SWAP_HALF = make_linear_map([[0, 0.5], [0.5, 0]])


class TestLabelEps:
    def test_zero_map_takes_max_index(self):
        assert label_eps(zero_map(), [5, 5], 0.01) == 2

    def test_identity_map_never_labels(self):
        for s in ([5, 5], [1, 0], [0.3, 9.0]):
            assert label_eps(identity_map(), s, 0.01) is None
            assert label_eps(identity_map(), s, 1e-9) is None

    def test_swap_half_both_qualify(self):
        # Ts = (2, 3); 2.01 <= 6 and 3.01 <= 4, max index wins
        assert label_eps(SWAP_HALF, [6, 4], 0.01) == 2

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            label_eps(SWAP_HALF, [6, 4], 0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            label_eps(SWAP_HALF, [6, 4], eps)


class TestLabelIndex:
    """A label reads the difference ``s - Ts`` that the certificate ``min(s - Ts) >= eps`` reads."""

    def test_labels_and_the_certificate_agree_at_one_ulp(self):
        # 20,000 points of 3 components with p > t, each at eps = p - t of one
        # component and one ulp either side: 60,000 triples.  The sum form
        # t + eps <= p disagrees with p - t >= eps within one rounding, either way.
        rng = np.random.default_rng(0)
        draws = rng.random((20_000, 3, 2)) * 10.0
        ps, ts = draws.max(axis=2), draws.min(axis=2)
        picks = rng.integers(0, 3, size=len(ps))
        disagreements = 0
        for p, t, k in zip(ps, ts, picks):
            gap = p[k] - t[k]
            for eps in (np.nextafter(gap, 0.0), gap, np.nextafter(gap, np.inf)):
                none = label_index(p, t, eps) is None
                every = all(label_index(p[[i]], t[[i]], eps) is not None for i in range(3))
                disagreements += none != (float(np.max(p - t)) < eps)
                disagreements += every != (float(np.min(p - t)) >= eps)
        assert disagreements == 0

    def test_a_tie_has_no_label_at_any_slack(self):
        # 5 + 1e-300 rounds to 5, so a sum form 5 + 1e-300 <= 5 would label it
        assert label_index(np.array([5.0]), np.array([5.0]), 1e-300) is None


class TestOmegaMembership:
    def test_zero_map(self):
        assert omega_membership(zero_map(), [5, 5]) == {1, 2}

    def test_swap_half_axis_point(self):
        # Ts = (0, 5): 0 < 10 holds, 5 < 0 does not
        assert omega_membership(SWAP_HALF, [10, 0]) == {1}

    def test_identity_empty(self):
        assert omega_membership(identity_map(), [3, 4]) == set()


class TestLabelOmegaConsistency:
    def test_corner_labels_are_own_index_or_none(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            T = make_linear_map(rng.random((n, n)))
            i = int(rng.integers(1, n + 1))
            r = float(rng.random() * 10 + 0.1)
            s = np.zeros(n)
            s[i - 1] = r
            assert label_eps(T, s, 1e-3) in (i, None)


class TestLabeledVertexSet:
    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError, match="duplicate"):
            LabeledVertexSet([np.array([1.0, 0.0]), np.array([1.0, 0.0])], [1, 2])

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            LabeledVertexSet([np.array([1.0, 0.0])], [1, 2])

    @pytest.mark.parametrize("label, what", [(True, "an int"), ("x", "an int"), (2.0, "an int"),
                                             (0, ">= 1")])
    def test_rejects_a_label_that_is_no_index(self, label, what):
        # a bool would count as label 1, and a string would break complete_subsets
        with pytest.raises(ValueError, match=f"^label at position 0 must be {what}"):
            LabeledVertexSet([np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])],
                             [label, 2, 2])
