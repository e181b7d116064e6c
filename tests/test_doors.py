"""Every door that takes a point or a matrix refuses an entry that is not a number.

A number is an int or a float, numpy's included, never a bool, and never
an int too large to convert to a float (``order.is_number``).  Each refusal is a ValueError that names the
entry's position; numpy's own TypeError, a ComplexWarning (an error under
this suite's warning filter) or a silently dropped imaginary part never
reaches the caller.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from decaycert import (LabeledVertexSet, compare, iterate, label_eps, make_linear_map,
                       neumann_inverse, omega_membership, perron_direction, spectral_radius)
from decaycert.dynamics import ordering_check
from decaycert.linear import eps_max
from decaycert.order import as_point, is_number

SRC = Path(__file__).resolve().parents[1] / "src" / "decaycert"
FLOAT_END = 2**1024 - 2**970  # the least int that float() cannot convert
T = make_linear_map([[0.5, 0.0], [0.0, 0.5]])

POINT_DOORS = {
    "MonotoneMap.__call__": lambda s: T(s),
    "iterate": lambda s: iterate(T, s),
    "ordering_check s0": lambda s: ordering_check(T, s, [5.0, 5.0], 1),
    "ordering_check v0": lambda s: ordering_check(T, [0.0, 0.0], s, 1),
    "label_eps": lambda s: label_eps(T, s, 0.1),
    "omega_membership": lambda s: omega_membership(T, s),
    "compare": lambda s: compare(s, [1.0, 1.0]),
    "LabeledVertexSet": lambda s: LabeledVertexSet((s, [1.0, 1.0]), (1, 2)),
}
MATRIX_DOORS = {
    "make_linear_map": make_linear_map,
    "spectral_radius": spectral_radius,
    "perron_direction": perron_direction,
    "neumann_inverse": neumann_inverse,
    "eps_max": lambda A: eps_max(A, 1.0),
}
# each entry sits first: at index 0 of a point, at (1,1) of a matrix
ENTRIES = {
    "complex": 1 + 2j,
    "None": None,
    "dict": {},
    "list": [1.0],  # a row within a row: numpy reads the point or matrix as ragged
    "string": "abc",
    "huge-int": 10**400,  # float() would raise OverflowError
    "negative-huge-int": -10**400,
}
ZERO_D = {"dict": {}, "None": None, "string": "abc", "complex": 1j}


class Count(int):
    """An int subclass: ``is_number`` applies the int range to it too."""


def bad_points():
    for name, entry in ENTRIES.items():
        yield pytest.param([entry, 1.0], entry, id=name)
    yield pytest.param(np.array([1 + 2j, 1.0]), 1 + 2j, id="complex-ndarray")


def bad_matrices():
    for name, entry in ENTRIES.items():
        yield pytest.param([[entry, 0.0], [0.0, 0.5]], entry, id=name)
    yield pytest.param(np.array([[0.5 + 1j, 0.0], [0.0, 0.5]]), 0.5 + 1j, id="complex-ndarray")


@pytest.mark.parametrize("door", POINT_DOORS.values(), ids=POINT_DOORS.keys())
class TestPointDoors:
    @pytest.mark.parametrize("s, entry", bad_points())
    def test_a_non_number_component_is_named_by_its_index(self, door, s, entry):
        with pytest.raises(ValueError) as got:
            door(s)
        assert str(got.value) == f"component at index 0 is not a number: {entry!r}"

    @pytest.mark.parametrize("s", ZERO_D.values(), ids=ZERO_D.keys())
    def test_a_zero_dimensional_non_number_is_refused(self, door, s):
        with pytest.raises(ValueError, match=r"^expected a 1-D point, got array of shape \(\)$"):
            door(s)


@pytest.mark.parametrize("door", MATRIX_DOORS.values(), ids=MATRIX_DOORS.keys())
class TestMatrixDoors:
    @pytest.mark.parametrize("A, entry", bad_matrices())
    def test_a_non_number_entry_is_named_by_its_position(self, door, A, entry):
        with pytest.raises(ValueError) as got:
            door(A)
        assert str(got.value) == f"matrix entry at (1,1) is not a number: {entry!r}"

    @pytest.mark.parametrize("A", ZERO_D.values(), ids=ZERO_D.keys())
    def test_a_zero_dimensional_non_number_is_refused(self, door, A):
        with pytest.raises(ValueError, match=r"^matrix entry at \(\) is not a number: "):
            door(A)

    def test_a_ragged_row_is_named_by_its_row(self, door):
        with pytest.raises(ValueError) as got:
            door([[0.5, 0.0], [0.5]])
        assert str(got.value) == "matrix entry at (1) is not a number: [0.5, 0.0]"


@pytest.mark.parametrize("call, message", [
    (lambda: as_point([[1.0, 2.0]]), "expected a 1-D point, got array of shape (1, 2)"),
    (lambda: as_point([]), "a point needs at least one component"),
    (lambda: as_point([True, 2.0], dim=3), "expected dimension 3, got 2"),
    (lambda: as_point([1.0, -1.0]), "negative component at index 1: -1.0"),
    (lambda: as_point([1.0, math.nan]), "non-finite component at index 1: nan"),
    (lambda: as_point(np.array([math.inf, 1.0])), "non-finite component at index 0: inf"),
    (lambda: make_linear_map([[1.0, 2.0]]), "expected a square matrix, got shape (1, 2)"),
    (lambda: make_linear_map([[True, 1.0]]), "matrix entry at (1,1) is not a number: True"),
    (lambda: make_linear_map([[0.5, -1.0], [0, 0]]), "negative entry at (1,2): -1.0"),
    (lambda: make_linear_map(np.array([[0.5, 0], [math.inf, 0]])),
     "non-finite entry at (2,1): inf"),
], ids=["shape", "empty", "dimension-first", "negative", "nan", "inf", "square", "number-first",
        "matrix-negative", "matrix-inf"])
def test_the_named_messages_keep_their_text_and_order(call, message):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message


class TestIsNumber:
    @pytest.mark.parametrize("value", [0, -3, 2.5, math.inf, math.nan, np.int8(1), np.uint64(7),
                                       np.float32(0.5), np.float64(1.0), FLOAT_END - 1,
                                       1 - FLOAT_END, Count(FLOAT_END - 1)])
    def test_ints_and_floats_are_numbers(self, value):
        assert is_number(value)
        float(value)

    @pytest.mark.parametrize("value", [True, np.bool_(False), "1", b"1", None, 1j,
                                       np.complex128(1.0), Fraction(1, 2), [1.0], {},
                                       np.array(1.0), FLOAT_END, -FLOAT_END, 10**400,
                                       Count(FLOAT_END)])
    def test_nothing_else_is(self, value):
        assert not is_number(value)

    def test_an_integer_is_an_int(self):
        assert is_number(3, integer=True) and is_number(np.int64(3), integer=True)
        assert not is_number(3.0, integer=True) and not is_number(False, integer=True)
        assert is_number(FLOAT_END - 1, integer=True)
        assert not is_number(FLOAT_END, integer=True) and not is_number(-10**400, integer=True)

    def test_the_end_is_where_float_overflows(self):
        assert float(FLOAT_END - 1) == np.finfo(float).max
        with pytest.raises(OverflowError):
            float(FLOAT_END)


def test_a_numeric_array_is_not_searched(monkeypatch):
    from decaycert import order

    def refuse(value, integer=False):
        raise AssertionError("searched")

    monkeypatch.setattr(order, "is_number", refuse)
    for dtype in (np.float64, np.int64, np.uint8):
        assert as_point(np.array([1, 2], dtype=dtype)).tolist() == [1.0, 2.0]
    assert order.as_nonnegative_matrix(np.eye(2, dtype=np.float32)).tolist() == [[1, 0], [0, 1]]


def test_maps_imports_nothing_from_linear():
    tree = ast.parse((SRC / "maps.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "linear" not in imported and "decaycert.linear" not in imported


NUMBER_TYPES = {"bool", "int", "float", "Real", "Integral", "Number", "integer", "floating",
                "bool_"}


def test_the_number_test_is_written_once():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                names = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node.args[1])}
                if names & NUMBER_TYPES:
                    found.append((path.name, node.lineno))
    assert {name for name, _ in found} == {"order.py"}, found
