import pytest

from decaycert.maps import check_gain, check_kinf
from decaycert.maxpreserving import cycle_grid
from decaycert.scalarfn import (
    Max,
    ScalarFn,
    ScalarFnParseError,
    Sum,
    Term,
    degree,
    parse_scalar_fn,
    span,
)


class TestParse:
    @pytest.mark.parametrize(
        "text,at,expected",
        [
            ("0.5*t", 4.0, 2.0),
            ("t", 3.5, 3.5),
            ("t^2", 3.0, 9.0),
            ("2*t^0.5", 4.0, 4.0),
            ("t + 0.25*t^3", 2.0, 4.0),
            ("max(t, 2*t^2)", 0.25, 0.25),
            ("max(t, 2*t^2)", 1.0, 2.0),
            ("0", 7.0, 0.0),
        ],
    )
    def test_evaluation(self, text, at, expected):
        assert parse_scalar_fn(text)(at) == pytest.approx(expected)

    def test_fractional_power_of_zero_is_zero(self):
        assert parse_scalar_fn("t^0.5")(0.0) == 0.0
        assert parse_scalar_fn("2*t^0.2")(0.0) == 0.0

    def test_ast_shapes(self):
        assert parse_scalar_fn("0.5*t") == Term(0.5, 1.0)
        assert parse_scalar_fn("t + t") == Sum((Term(1.0), Term(1.0)))
        assert parse_scalar_fn("max(t, t^2)") == Max((Term(1.0), Term(1.0, 2.0)))

    @pytest.mark.parametrize("bad", ["1.5", "t t", "max(t)", "0.5 t", "q", "t^", "t +"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ScalarFnParseError):
            parse_scalar_fn(bad)

    @pytest.mark.parametrize("text", ["t^1e400", "1e400*t"])
    def test_rejects_a_number_that_overflows(self, text):
        # float("1e400") is inf, and "t^inf" would render to text that does not parse
        with pytest.raises(ScalarFnParseError, match="overflows"):
            parse_scalar_fn(text)

    def test_render_round_trip(self):
        for text in ["0.5*t", "t^2", "2*t^0.5", "t + 0.25*t^3", "max(t, 2*t^2, t^3)", "0"]:
            fn = parse_scalar_fn(text)
            assert parse_scalar_fn(fn.render()) == fn


class TestChecks:
    def test_zero_at_zero(self):
        check_gain(parse_scalar_fn("t + t^2"), "g")
        # exact, with no tolerance: a constant part is refused however small it is
        with pytest.raises(ValueError, match=r"^g violates g\(0\)=0: got 1e-13$"):
            check_gain(Term(1e-13, 0.0), "g")

    def test_nondecreasing(self):
        # every tree is nondecreasing by construction, so a gain needs no sampled check
        check_gain(parse_scalar_fn("max(t, t^2)"), "g")
        check_gain(Term(0.0), "g")
        for combination in (Sum, Max):
            with pytest.raises(TypeError, match=r"^(Sum|Max) parts must be Term, Sum or Max: <"):
                combination((Term(1.0), lambda t: -t))

    @pytest.mark.parametrize("combination,parts", [(Sum, ()), (Max, ()), (Max, (Term(1.0),))],
                             ids=["Sum()", "Max()", "Max(t)"])
    def test_a_combination_of_fewer_than_two_parts_is_refused(self, combination, parts):
        # as the parser refuses "max(t)": every tree renders to text that parses back
        with pytest.raises(ValueError, match=rf"^{combination.__name__} needs at least two "
                                             rf"parts, got {len(parts)}$"):
            combination(parts)

    @pytest.mark.parametrize("args", [(-0.5,), (float("nan"),), (1.0, float("inf")),
                                      (10**400, 1.0), (1.0, -10**400)],
                             ids=["negative-coefficient", "nan-coefficient", "inf-exponent",
                                  "huge-int-coefficient", "huge-int-exponent"])
    def test_a_term_outside_its_invariant_is_refused(self, args):
        with pytest.raises(ValueError, match=r"^Term (coefficient|exponent) must be real, finite"):
            Term(*args)

    def test_a_term_that_overflows_is_infinite(self):
        # a Python float ** raises OverflowError where numpy returns inf
        assert Term(1.0, 2.0)(1e200) == float("inf")

    def test_kinf_excludes_constants_and_zero(self):
        check_kinf(parse_scalar_fn("2*t"), "rho")
        check_kinf(parse_scalar_fn("t^2"), "rho")
        with pytest.raises(ValueError, match=r"^rho is zero, so not class Kinf$"):
            check_kinf(Term(0.0), "rho")
        with pytest.raises(ValueError, match=r"^rho violates g\(0\)=0: got 2.0$"):
            check_kinf(Term(2.0, 0.0), "rho")

    def test_grid_shape(self):
        grid = cycle_grid()
        assert len(grid) == 49
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e3)
        assert grid == sorted(set(grid))


# Degree one, g(l t) = l g(t): what lets the solver read T(w) off T at w's sphere point.
# The zero gain has no degree of its own; it scales as every degree does.
@pytest.mark.parametrize("text,expected", [
    ("t", (1.0, 1.0)), ("0.5*t", (1.0, 1.0)), ("0", None), ("t + 0.25*t", (1.0, 1.0)),
    ("max(t, 2*t)", (1.0, 1.0)),
], ids=["t", "0.5*t", "0", "t + 0.25*t", "max(t, 2*t)"])
def test_degree_one_gains(text, expected):
    g = parse_scalar_fn(text)
    assert degree(g) == expected
    assert g(3.0 * 0.7) == pytest.approx(3.0 * g(0.7), rel=1e-15)


@pytest.mark.parametrize("text,expected", [
    ("t^2", (2.0, 2.0)), ("t^1.0001", (1.0001, 1.0001)), ("0.5*t + t^2", (1.0, 2.0)),
    ("max(t, t^0.5)", (0.5, 1.0)),
], ids=["t^2", "t^1.0001", "0.5*t + t^2", "max(t, t^0.5)"])
def test_gains_of_another_degree(text, expected):
    assert degree(parse_scalar_fn(text)) == expected


def test_a_degree_spans_the_nonzero_terms_of_every_part():
    assert degree(parse_scalar_fn("max(0.3*t^0.5 + 0*t^9, t^2) + 0.1*t^1.5")) == (0.5, 2.0)
    assert degree(Sum((Term(0.0), Term(0.0, 3.0)))) is None
    assert span([None, (2.0, 2.0), (0.5, 1.0)]) == (0.5, 2.0)
    assert span([None]) is None and span([]) is None


def test_every_rendered_tree_parses_back_to_itself():
    """``parse_scalar_fn(fn.render())`` renders as ``fn`` does and agrees with it on the grid.

    The trees have the parser's shapes: a Sum's parts are never Sums (its
    ``+`` chain is flat), so the values agree exactly, not up to rounding.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    terms = st.builds(Term, st.floats(0.0, 1e6) | st.sampled_from([0.0, 1.0]),
                      st.floats(0.0, 8.0) | st.sampled_from([0.0, 1.0, 2.0]))

    def some(parts):
        return st.tuples(parts, parts) | st.tuples(parts, parts, parts)

    def trees(depth):
        if depth == 0:
            return terms
        inner = trees(depth - 1)
        not_sums = terms | st.builds(Max, some(inner))
        return terms | st.builds(Sum, some(not_sums)) | st.builds(Max, some(inner))

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(trees(3))
    def check(fn):
        text = fn.render()
        parsed = parse_scalar_fn(text)
        assert parsed.render() == text
        grid = [0.0] + cycle_grid()
        assert [parsed(t) for t in grid] == [fn(t) for t in grid]

    check()


def test_any_text_parses_or_raises_the_parse_error():
    """Text over the grammar's tokens and stray characters either parses or raises
    ScalarFnParseError, never another exception: the command line reports
    a bad gain with exit code 2 and no traceback."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tokens = ["t", "max", "(", ")", ",", "+", "*", "^", "0", "1", "2.5", ".5", "3.", "1e3",
              "1e400", " ", "\t", "q", "-", ".", "e", "m", "ma", " "]

    @hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(st.sampled_from(tokens), max_size=14).map("".join))
    def check(text):
        try:
            fn = parse_scalar_fn(text)
        except ScalarFnParseError:
            return
        assert isinstance(fn, ScalarFn)

    check()
