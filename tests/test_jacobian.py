"""Each constructor's ``MonotoneMap.jacobian`` against central differences of its own map.

A Jacobian is only a guide for the solver's sphere stage, which tests
every point it reaches on the map itself, so a wrong one costs speed, not
soundness; these tests hold the constructors to their derivatives anyway.
"""

import dataclasses

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
from decaycert.scalarfn import Max, Sum, Term

# Relative step of the central differences.  At the points drawn below their
# truncation and rounding errors stay far below the tolerance of the check.
STEP = 1e-6

terms = st.builds(Term, st.floats(0.1, 2.0), st.sampled_from([0.5, 1.0, 1.3, 2.0, 3.0]))
# Kinf gains: each is a Term, or a Sum or Max of two or three such gains
gains = st.recursive(terms, lambda parts: st.one_of(
    st.lists(parts, min_size=2, max_size=3).map(lambda ps: Sum(tuple(ps))),
    st.lists(parts, min_size=2, max_size=3).map(lambda ps: Max(tuple(ps)))), max_leaves=4)


@st.composite
def leaf_maps(draw, n):
    """A map of dimension n from one of the constructors."""
    kind = draw(st.sampled_from(["linear", "chain", "diagonal", "max-preserving"]
                                + (["flipflop"] if n == 2 else [])))
    if kind == "linear":
        return make_linear_map(np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n,
                                                      max_size=n * n))).reshape(n, n))
    if kind == "chain":
        return make_chain_map(n)
    if kind == "flipflop":
        return make_flipflop_map(draw(st.floats(0.05, 0.95)))
    if kind == "diagonal":
        return make_diagonal(draw(st.lists(gains, min_size=n, max_size=n)))
    return make_max_preserving(
        [draw(st.lists(st.one_of(st.none(), gains), min_size=n, max_size=n)) for _ in range(n)])


@st.composite
def maps_and_points(draw):
    n = draw(st.integers(2, 4))
    parts = draw(st.lists(leaf_maps(n), min_size=1, max_size=3))
    T = parts[0] if len(parts) == 1 else compose(*parts)
    s = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    return T, s


def central_differences(T: MonotoneMap, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The central differences of T at s, and the scale of T's values that their rounding
    follows; columns j, one per coordinate direction."""
    n = len(s)
    fd, scale = np.zeros((n, n)), np.zeros((n, n))
    for j in range(n):
        h = STEP * s[j]
        up, down = s.copy(), s.copy()
        up[j] += h
        down[j] -= h
        Tu, Td = T(up), T(down)
        fd[:, j] = (Tu - Td) / (up[j] - down[j])
        scale[:, j] = np.maximum(np.abs(Tu), np.abs(Td)) / h
    return fd, scale


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(maps_and_points())
def test_a_jacobian_matches_central_differences_of_its_map(case):
    T, s = case
    J = T.jacobian(s)
    assert J.shape == (len(s), len(s))
    # a max switches its active part at a kink, where T has no derivative: skip points
    # whose differences straddle one
    for j in range(len(s)):
        e = np.zeros(len(s))
        e[j] = STEP * s[j]
        hypothesis.assume(np.allclose(T.jacobian(s - e), T.jacobian(s + e), rtol=1e-3, atol=1e-9))
    fd, scale = central_differences(T, s)
    assert np.all(np.abs(fd - J) <= 1e-5 * np.abs(J) + 1e-9 * scale + 1e-12), (T, s, J, fd)


def test_closed_forms():
    s = np.array([4.0, 9.0, 2.0])
    # (Ts)_1 = s2^2/4, (Ts)_2 = (s1^(1/2) + s3^3)/4, (Ts)_3 = s2^(1/3)/4
    np.testing.assert_allclose(make_chain_map(3).jacobian(s), [
        [0.0, 0.5 * 9.0, 0.0],
        [0.25 * 0.5 / 2.0, 0.0, 0.25 * 3 * 4.0],
        [0.0, 0.25 / 3 * 9.0 ** (-2 / 3), 0.0]], rtol=1e-15)
    np.testing.assert_allclose(make_flipflop_map(0.5).jacobian(s[:2]),
                               [[0.0, 0.5 / 3.0], [0.5 * 2 * 4.0, 0.0]], rtol=1e-15)
    A = np.array([[0.0, 0.5], [0.25, 0.1]])
    assert np.array_equal(make_linear_map(A).jacobian(s[:2]), A)


def test_a_max_preserving_row_differentiates_its_active_gain():
    # row 1: max(0.5 t, t^2) at (3, 1) is 0.5 * 3 from column 1; row 2 has one gain
    T = make_max_preserving([["0.5*t", "t^2"], [None, "max(t, 2*t^2)"]])
    np.testing.assert_array_equal(T.jacobian(np.array([3.0, 1.0])), [[0.5, 0.0], [0.0, 4.0]])
    np.testing.assert_array_equal(T.jacobian(np.array([3.0, 2.0])), [[0.0, 4.0], [0.0, 8.0]])


def test_a_tied_row_differentiates_its_first_nonzero_gain():
    # row 1 is max(0, 0.5 * 0) = 0 at (1, 0): its only nonzero gain is the active one, not
    # the absent entry in column 1, and an empty row has a zero Jacobian row
    T = make_max_preserving([[None, "0.5*t"], ["t", None]])
    np.testing.assert_array_equal(T.jacobian(np.array([1.0, 0.0])), [[0.0, 0.5], [1.0, 0.0]])
    T = make_max_preserving([["t^2", "0.5*t", "t"], [None] * 3, [None, "t^0.5", None]])
    np.testing.assert_array_equal(T.jacobian(np.zeros(3)),
                                  [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, np.inf, 0.0]])


def test_a_fractional_power_at_zero_has_an_infinite_derivative():
    assert make_chain_map(2).jacobian(np.array([0.0, 1.0]))[1, 0] == np.inf
    assert make_flipflop_map(0.5).jacobian(np.array([1.0, 0.0]))[0, 1] == np.inf
    assert make_diagonal(["t^0.5", "t"]).jacobian(np.array([0.0, 1.0])).tolist() == [
        [np.inf, 0.0], [0.0, 1.0]]
    # the chain rule's product keeps the inf; the solver skips a J that is not finite
    J = compose(make_linear_map(np.eye(2)), make_diagonal(["t^0.5", "t"])).jacobian(
        np.array([0.0, 1.0]))
    assert not np.isfinite(J[0, 0])


@pytest.mark.parametrize("point", [[0.0, 0.0], [0.0, 1.0]])
def test_a_composition_takes_zero_times_inf_as_zero(point):
    # diag(t^0.25, t) has the derivative diag(inf, 1) at both points; a product seeded
    # with the identity matrix would read inf * 0 as NaN: [[inf, nan], [nan, nan]]
    T = compose(make_linear_map([[0.5, 0], [0, 1]]), make_diagonal(["t^0.25", "t"]))
    assert T.jacobian(np.array(point)).tolist() == [[np.inf, 0.0], [0.0, 1.0]]


@st.composite
def finite_compositions(draw):
    n = draw(st.integers(2, 4))
    parts = draw(st.lists(leaf_maps(n), min_size=2, max_size=4))
    s = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    return parts, s


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(finite_compositions())
def test_a_finite_composition_is_the_plain_product(case):
    parts, s = case
    J, point = np.eye(len(s)), s
    with np.errstate(all="ignore"):  # a zero value gives t^0.5 an infinite derivative
        for m in reversed(parts):
            J = m.jacobian(point) @ J
            point = m(point)
    hypothesis.assume(np.all(np.isfinite(J)))
    assert compose(*parts).jacobian(s).tobytes() == J.tobytes()


def test_a_map_from_a_callable_has_none():
    T = MonotoneMap(2, lambda s: 0.5 * s, "scaled")
    assert T.jacobian is None
    assert compose(make_linear_map(np.eye(2)), T).jacobian is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        make_chain_map(2).jacobian = None


def test_a_jacobian_never_calls_a_map(monkeypatch):
    """An evaluation is a call of ``MonotoneMap.__call__``; a Jacobian must not make one,
    even through a composition of compositions."""
    inner = compose(make_linear_map([[0.5, 0.25], [0.0, 0.5]]), make_diagonal(["t^1.2", "t"]))
    T = compose(make_chain_map(2), inner, make_max_preserving([["t", None], [None, "t^2"]]))
    s = np.array([0.7, 1.3])
    expected = T(s)

    def refuse(self, s):
        raise AssertionError("a map was called")

    monkeypatch.setattr(MonotoneMap, "__call__", refuse)
    assert np.all(np.isfinite(T.jacobian(s)))
    np.testing.assert_array_equal(T.fn(s), expected)
