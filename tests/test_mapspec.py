import numpy as np
import pytest

from decaycert.mapspec import (
    MapSpec,
    MapSpecError,
    MapSpecParseError,
    parse_map_spec,
    serialize_map_spec,
)


class TestParse:
    def test_linear(self):
        spec = parse_map_spec('{"kind": "linear", "matrix": [[0, 0.5], [0.5, 0]]}')
        assert spec.kind == "linear"
        assert spec.dimension == 2
        np.testing.assert_allclose(spec.build()([6, 4]), [2, 3])

    def test_chain(self):
        spec = parse_map_spec('{"kind": "chain", "n": 5}')
        assert spec == MapSpec("chain", n=5)
        assert spec.dimension == 5

    def test_flipflop(self):
        spec = parse_map_spec('{"kind": "flipflop", "lambda": 0.5}')
        np.testing.assert_allclose(spec.build()([1.0, 0.25]), [0.5, 0.5])

    def test_maxpreserving_with_nulls(self):
        spec = parse_map_spec(
            '{"kind": "maxpreserving", "gains": [[null, "0.5*t"], ["0.5*t", null]]}'
        )
        np.testing.assert_allclose(spec.build()([4, 2]), [1, 2])

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


class TestRoundTrip:
    CASES = [
        '{"kind": "linear", "matrix": [[0, 0.5], [0.5, 0]]}',
        '{"kind": "chain", "n": 4}',
        '{"kind": "flipflop", "lambda": 0.25}',
        '{"kind": "maxpreserving", "gains": [["0", "0.50*t"], ["t + 0.5*t^2", "0"]]}',
        '{"kind": "diagonal", "functions": ["2*t", "max(t, t^2)"]}',
        '{"kind": "composition", "maps": ['
        ' {"kind": "diagonal", "functions": ["2*t", "2*t"]},'
        ' {"kind": "linear", "matrix": [[0, 1], [0.25, 0]]}]}',
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_serialize_then_parse_is_identity(self, text):
        spec = parse_map_spec(text)
        assert parse_map_spec(serialize_map_spec(spec)) == spec

    def test_repo_example_specs_round_trip(self):
        from pathlib import Path

        spec_dir = Path(__file__).resolve().parents[1] / "mapspecs"
        files = sorted(spec_dir.glob("*.json"))
        assert files, "expected example specs in mapspecs/"
        for path in files:
            spec = parse_map_spec(path.read_text())
            assert parse_map_spec(serialize_map_spec(spec)) == spec
