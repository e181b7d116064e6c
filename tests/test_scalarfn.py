import pytest

from decaycert.maps import make_diagonal
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

    @pytest.mark.parametrize("text,message", [
        ("t^1e400", "Term exponent must be real, finite and >= 0, got inf in 't^1e400'"),
        ("1e400*t", "Term coefficient must be real, finite and >= 0, got inf in '1e400*t'"),
    ])
    def test_rejects_a_number_that_overflows(self, text, message):
        # float("1e400") is inf, and "t^inf" would render to text that does not parse
        with pytest.raises(ScalarFnParseError) as got:
            parse_scalar_fn(text)
        assert str(got.value) == message

    def test_render_round_trip(self):
        for text in ["0.5*t", "t^2", "2*t^0.5", "t + 0.25*t^3", "max(t, 2*t^2, t^3)", "0"]:
            fn = parse_scalar_fn(text)
            assert parse_scalar_fn(fn.render()) == fn


class TestChecks:
    def test_zero_at_zero(self):
        assert parse_scalar_fn("t + t^2")(0.0) == 0.0
        # exact, with no tolerance: a constant term is refused however small it is
        with pytest.raises(ValueError,
                           match=r"^Term 1e-13\*t\^0 is a constant, which violates g\(0\)=0$"):
            Term(1e-13, 0.0)

    def test_nondecreasing(self):
        # every tree is nondecreasing by construction, so a gain needs no sampled check
        assert Term(0.0, 0.0)(0.0) == 0.0  # exponent 0 is a constant only with a coefficient > 0
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
        assert make_diagonal(["2*t", "t^2"])([1.0, 3.0]).tolist() == [2.0, 9.0]
        with pytest.raises(ValueError, match=r"^diagonal function 2 is zero, so not class Kinf$"):
            make_diagonal(["t", Term(0.0)])
        with pytest.raises(ValueError, match=r"^Term 2\.0\*t\^0 is a constant, which violates"):
            Term(2.0, 0.0)

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


@pytest.mark.parametrize("c", [5e-324, 1e-13, 1.0])
def test_a_constant_term_is_refused(c):
    with pytest.raises(ValueError, match=r"g\(0\)=0"):
        Term(c, 0.0)


# "0*t^1e400" too: a zero term is checked as written, as t^inf renders to text that does not parse
@pytest.mark.parametrize("text", ["0.5", "t^0", "1e-13*t^0", "t + 1e-13*t^0", "max(t, 0.5)",
                                  "max(t)", "1e400*t", "t^1e400", "0*t^1e400"])
def test_a_refusal_of_the_constructors_is_a_parse_error_naming_the_text(text):
    with pytest.raises(ScalarFnParseError) as got:
        parse_scalar_fn(text)
    assert str(got.value).endswith(f" in {text!r}")


def test_zero_terms_parse_to_the_one_zero_term():
    assert parse_scalar_fn("0") == parse_scalar_fn("0*t^0") == parse_scalar_fn("0*t^3") == Term(0.0)


def parser_trees(depth: int = 3):
    """Hypothesis strategy for trees of the parser's shapes, ``depth`` levels deep.

    A Sum's parts are never Sums (its ``+`` chain is flat), and no Term is
    a constant (exponent 0 with a nonzero coefficient), which Term refuses.
    """
    st = pytest.importorskip("hypothesis").strategies
    terms = st.tuples(st.floats(0.0, 1e6) | st.sampled_from([0.0, 1.0]),
                      st.floats(0.0, 8.0) | st.sampled_from([0.0, 1.0, 2.0])
                      ).filter(lambda ca: ca[0] == 0.0 or ca[1] > 0.0).map(lambda ca: Term(*ca))

    def some(parts):
        return st.tuples(parts, parts) | st.tuples(parts, parts, parts)

    def trees(depth):
        if depth == 0:
            return terms
        inner = trees(depth - 1)
        not_sums = terms | st.builds(Max, some(inner))
        return terms | st.builds(Sum, some(not_sums)) | st.builds(Max, some(inner))

    return trees(depth)


def test_every_tree_vanishes_at_zero_and_is_nondecreasing():
    """What makes every tree a gain, ``g(0) = 0`` exactly and g nondecreasing,
    holds by construction: no gain check is left to make."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(parser_trees())
    def check(fn):
        values = [fn(t) for t in [0.0] + cycle_grid()]
        assert values[0] == 0.0
        assert all(a <= b for a, b in zip(values, values[1:]))

    check()


def test_every_rendered_tree_parses_back_to_itself():
    """``parse_scalar_fn(fn.render())`` renders as ``fn`` does and agrees with it on the grid.

    The trees have the parser's shapes (:func:`parser_trees`), so the values
    agree exactly, not up to rounding.
    """
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(parser_trees())
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
