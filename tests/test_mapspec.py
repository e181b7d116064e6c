import json
import sys

import numpy as np
import pytest

from decaycert import maps
from decaycert.mapspec import (
    MapSpec,
    MapSpecError,
    MapSpecParseError,
    parse_map_spec,
    serialize_map_spec,
)
from decaycert.scalarfn import Term


class TestParse:
    def test_linear(self):
        spec = parse_map_spec('{"kind": "linear", "matrix": [[0, 0.5], [0.5, 0]]}')
        assert spec.kind == "linear"
        assert spec.build().dimension == 2
        np.testing.assert_allclose(spec.build()([6, 4]), [2, 3])

    def test_chain(self):
        spec = parse_map_spec('{"kind": "chain", "n": 5}')
        assert spec == MapSpec("chain", 5)
        assert spec.build().dimension == 5

    def test_flipflop(self):
        spec = parse_map_spec('{"kind": "flipflop", "lambda": 0.5}')
        np.testing.assert_allclose(spec.build()([1.0, 0.25]), [0.5, 0.5])

    def test_maxpreserving_with_nulls(self):
        spec = parse_map_spec(
            '{"kind": "maxpreserving", "gains": [[null, "0.5*t"], ["0.5*t", null]]}'
        )
        np.testing.assert_allclose(spec.build()([4, 2]), [1, 2])

    def test_sumtable_adds_each_row(self):
        gains = '[[null, "0.5*t", "t^2"], ["0.25*t", null, null], ["t", "t", "t"]]'
        spec = parse_map_spec(f'{{"kind": "sumtable", "gains": {gains}}}')
        assert spec.build()([4, 2, 1]).tolist() == [2.0, 1.0, 7.0]
        assert spec.build().kind == "sum-table"
        # the same gains under the max rule: one parse, another row rule
        maxed = parse_map_spec(f'{{"kind": "maxpreserving", "gains": {gains}}}')
        assert maxed.data == spec.data and maxed != spec

    def test_diagonal(self):
        spec = parse_map_spec('{"kind": "diagonal", "functions": ["t^2", "2*t"]}')
        np.testing.assert_allclose(spec.build()([2, 3]), [4, 6])

    def test_composition_right_to_left(self):
        text = """
        {"kind": "composition", "maps": [
            {"kind": "diagonal", "functions": ["2*t", "2*t"]},
            {"kind": "linear", "matrix": [[0, 0.5], [0.5, 0]]}
        ]}
        """
        spec = parse_map_spec(text)
        np.testing.assert_allclose(spec.build()([6, 4]), [4, 6])


class TestErrors:
    def test_syntax_error_reports_position(self):
        with pytest.raises(MapSpecParseError, match="line 1, column"):
            parse_map_spec('{"kind": "linear", "matrix": [[0 0.5]]}')

    def test_an_integer_past_the_digit_limit_is_a_parse_error(self):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        text = '{"kind": "flipflop", "lambda": 1' + "0" * 5000 + "}"
        with pytest.raises(MapSpecParseError) as got:
            parse_map_spec(text)
        assert str(got.value) == (
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits")

    def test_negative_entry_is_semantic(self):
        with pytest.raises(MapSpecError, match="negative entry"):
            parse_map_spec('{"kind": "linear", "matrix": [[-1]]}')

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_entry_is_semantic(self, literal):
        # Python's json module accepts these literals
        with pytest.raises(MapSpecError, match="non-finite entry"):
            parse_map_spec('{"kind": "linear", "matrix": [[0, %s], [0.5, 0]]}' % literal)

    def test_unknown_kind(self):
        with pytest.raises(MapSpecParseError, match="unknown map kind"):
            parse_map_spec('{"kind": "affine", "matrix": [[1]]}')

    def test_ragged_matrix(self):
        with pytest.raises(MapSpecParseError, match="row 2"):
            parse_map_spec('{"kind": "linear", "matrix": [[1, 0], [1]]}')

    def test_lambda_range(self):
        with pytest.raises(MapSpecError, match="lambda"):
            parse_map_spec('{"kind": "flipflop", "lambda": 1.5}')

    def test_bad_gain_text(self):
        with pytest.raises(MapSpecParseError, match="gain \\(1,2\\)"):
            parse_map_spec('{"kind": "maxpreserving", "gains": [[null, "what"], [null, null]]}')

    def test_gain_invariant_violation(self):
        with pytest.raises(MapSpecError, match="Kinf"):
            parse_map_spec('{"kind": "diagonal", "functions": ["0"]}')

    def test_composition_dimension_mismatch(self):
        with pytest.raises(MapSpecError, match="mismatched dimensions"):
            parse_map_spec(
                '{"kind": "composition", "maps": ['
                '{"kind": "chain", "n": 2}, {"kind": "chain", "n": 3}]}'
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(MapSpecParseError, match="unknown fields"):
            parse_map_spec('{"kind": "chain", "n": 3, "extra": 1}')

    @pytest.mark.parametrize("text, construct", [
        pytest.param('{"kind": "chain", "n": 1}', lambda: maps.make_chain_map(1), id="chain n=1"),
        pytest.param('{"kind": "flipflop", "lambda": 1.5}', lambda: maps.make_flipflop_map(1.5),
                     id="lambda=1.5"),
        pytest.param('{"kind": "linear", "matrix": [[-1]]}', lambda: maps.make_linear_map([[-1]]),
                     id="negative entry"),
        pytest.param('{"kind": "diagonal", "functions": ["0"]}', lambda: maps.make_diagonal(["0"]),
                     id="diagonal 0"),
        pytest.param('{"kind": "composition", "maps": ['
                     '{"kind": "chain", "n": 2}, {"kind": "chain", "n": 3}]}',
                     lambda: maps.compose(maps.make_chain_map(2), maps.make_chain_map(3)),
                     id="chain 2 after chain 3"),
    ])
    def test_invariant_error_is_the_constructors(self, text, construct):
        with pytest.raises(ValueError) as expected:
            construct()
        with pytest.raises(MapSpecError) as got:
            parse_map_spec(text)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("obj, message", [
        ({"kind": "linear"}, "linear spec is missing the 'matrix' field"),
        ({"kind": "chain"}, "chain spec is missing the 'n' field"),
        ({"kind": "flipflop"}, "flipflop spec is missing the 'lambda' field"),
        ({"kind": "maxpreserving"}, "maxpreserving spec is missing the 'gains' field"),
        ({"kind": "diagonal"}, "diagonal spec is missing the 'functions' field"),
        ({"kind": "composition"}, "composition spec is missing the 'maps' field"),
        ({"kind": "linear", "matrix": [[0]], "x": 1}, "unknown fields in map spec: ['x']"),
        ({"kind": "chain", "n": 3, "x": 1}, "unknown fields in map spec: ['x']"),
        ({"kind": "flipflop", "lambda": 0.5, "x": 1}, "unknown fields in map spec: ['x']"),
        ({"kind": "maxpreserving", "gains": [[None]], "x": 1}, "unknown fields in map spec: ['x']"),
        ({"kind": "diagonal", "functions": ["t"], "x": 1}, "unknown fields in map spec: ['x']"),
        ({"kind": "composition", "maps": [], "b": 1, "a": 2},
         "unknown fields in map spec: ['a', 'b']"),
        ({"kind": "linear", "y": 1}, "unknown fields in map spec: ['y']"),
        ([1, 2], "map spec must be a JSON object, got list"),
        (3, "map spec must be a JSON object, got int"),
        ({"kind": "affine"}, "unknown map kind 'affine'; expected one of ('linear', 'chain', "
                             "'flipflop', 'maxpreserving', 'sumtable', 'diagonal', "
                             "'composition')"),
        ({"kind": ["linear"]}, "unknown map kind ['linear']; expected one of ('linear', 'chain', "
                               "'flipflop', 'maxpreserving', 'sumtable', 'diagonal', "
                               "'composition')"),
        ({"kind": "linear", "matrix": 5}, "matrix must be a nonempty list of rows"),
        ({"kind": "linear", "matrix": []}, "matrix must be a nonempty list of rows"),
        ({"kind": "maxpreserving", "gains": "x"}, "gains must be a nonempty list of rows"),
        ({"kind": "maxpreserving", "gains": [1, 2]}, "gains must be a nonempty list of rows"),
        ({"kind": "maxpreserving", "gains": [[None, None], [None]]},
         "gains row 2 has 1 entries, expected 2"),
        ({"kind": "linear", "matrix": [[0, "a"], [0]]},
         "matrix entry (1,2) must be a number, got 'a'"),
        ({"kind": "linear", "matrix": [[0, 0], [True, 0]]},
         "matrix entry (2,1) must be a number, got True"),
        ({"kind": "chain", "n": True}, "chain n must be an integer, got True"),
        ({"kind": "chain", "n": 3.0}, "chain n must be an integer, got 3.0"),
        ({"kind": "flipflop", "lambda": "x"}, "lambda must be a number, got 'x'"),
        ({"kind": "diagonal", "functions": ["t", 1]}, "function 2 must be a string or null, got 1"),
        ({"kind": "maxpreserving", "gains": [[None, 2], [None, None]]},
         "gain (1,2) must be a string or null, got 2"),
        ({"kind": "diagonal", "functions": "t"}, "functions must be a nonempty list of strings"),
        ({"kind": "composition", "maps": [{"kind": "chain", "n": 2}]},
         "composition needs a list of at least two child specs"),
        ({"kind": "composition", "maps": [{"kind": "chain", "n": 2}, {"kind": "chain"}]},
         "chain spec is missing the 'n' field"),
        # a constant term is gain text that does not parse, as Term refuses it
        ({"kind": "maxpreserving", "gains": [["t^0"]]},
         "gain (1,1): Term 1.0*t^0 is a constant, which violates g(0)=0 in 't^0'"),
        ({"kind": "sumtable", "gains": [[None, "t^0"], [None, None]]},
         "gain (1,2): Term 1.0*t^0 is a constant, which violates g(0)=0 in 't^0'"),
    ])
    def test_format_error_message(self, obj, message):
        with pytest.raises(MapSpecParseError) as got:
            parse_map_spec(json.dumps(obj))
        assert str(got.value) == message

    def test_format_error_comes_before_an_earlier_invariant_error(self):
        with pytest.raises(MapSpecParseError, match="unknown fields"):
            parse_map_spec(
                '{"kind": "composition", "maps": ['
                '{"kind": "chain", "n": 1}, {"kind": "chain", "n": 3, "extra": 1}]}'
            )


class TestRoundTrip:
    CASES = [
        '{"kind": "linear", "matrix": [[0, 0.5], [0.5, 0]]}',
        '{"kind": "chain", "n": 4}',
        '{"kind": "flipflop", "lambda": 0.25}',
        '{"kind": "maxpreserving", "gains": [["0", "0.50*t"], ["t + 0.5*t^2", "0"]]}',
        '{"kind": "sumtable", "gains": [[null, "0.3*t", "0.1*t^2"], ["0.4*t", null, null],'
        ' [null, "0.2*t + 0.05*t^2", null]]}',
        '{"kind": "diagonal", "functions": ["2*t", "max(t, t^2)"]}',
        '{"kind": "composition", "maps": ['
        ' {"kind": "diagonal", "functions": ["2*t", "2*t"]},'
        ' {"kind": "linear", "matrix": [[0, 1], [0.25, 0]]}]}',
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_serialize_then_parse_is_identity(self, text):
        spec = parse_map_spec(text)
        assert parse_map_spec(serialize_map_spec(spec)) == spec

    def test_a_null_gain_stays_absent_and_serializes_back_as_null(self):
        text = '{"kind": "maxpreserving", "gains": [[null, "0.5*t"], ["t^2", null]]}'
        spec = parse_map_spec(text)
        assert spec.data == ((None, Term(0.5)), (Term(1.0, 2.0), None))
        assert json.loads(serialize_map_spec(spec)) == json.loads(text)
        zeros = parse_map_spec(text.replace("null", '"0"'))
        assert zeros.data != spec.data
        assert maps.GainTable(zeros.data) == maps.GainTable(spec.data)
        assert zeros.build()([3.0, 2.0]).tobytes() == spec.build()([3.0, 2.0]).tobytes()

    def test_a_null_diagonal_function_is_refused_as_not_kinf(self):
        with pytest.raises(MapSpecError, match="^diagonal function 2 is zero, so not class Kinf$"):
            parse_map_spec('{"kind": "diagonal", "functions": ["t", null]}')

    def test_repo_example_specs_round_trip(self):
        from pathlib import Path

        spec_dir = Path(__file__).resolve().parents[1] / "mapspecs"
        files = sorted(spec_dir.glob("*.json"))
        assert files, "expected example specs in mapspecs/"
        for path in files:
            spec = parse_map_spec(path.read_text())
            assert parse_map_spec(serialize_map_spec(spec)) == spec


@pytest.mark.parametrize("name,expected", [
    ("chain5", (0.2, 5.0)), ("flipflop", (0.5, 2.0)), ("maxgain_half", (1.0, 1.0)),
    ("scaled_swap", (1.0, 1.0)), ("swap_half", (1.0, 1.0)),
    # out of the top level: the benchmark's certify workload runs every top-level
    # example through an oracle that has no sum tables
    ("sum/sumtable", (1.0, 2.0)),
], ids=["chain5", "flipflop", "maxgain_half", "scaled_swap", "swap_half", "sumtable"])
def test_example_specs_build_maps_that_know_their_degree(name, expected):
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "mapspecs" / f"{name}.json"
    assert parse_map_spec(path.read_text()).build().degree == expected

