"""Declarative JSON descriptions of the built-in map families.

A map spec file is a single JSON object with a ``kind`` field and the one
field that kind names.  The schema (documented in the README) is
deliberately small: matrices are nested number lists, gain and diagonal
functions use the textual form of :mod:`decaycert.scalarfn`, and
compositions nest specs.  The kinds ``maxpreserving`` and ``sumtable``
are one gain table under its two row rules, max and sum
(:class:`decaycert.maps.GainTable`), and share one parse and one render.
Parsing checks the format of the whole document first (JSON syntax, an
integer within Python's digit limit, JSON shapes, square rows, gain text
that parses, which a constant term such as ``"t^0"`` does not, as
:class:`decaycert.scalarfn.Term` refuses it), then checks the spec by
building its map.  Numbers and counts are kept as given, and the build
refuses a bad one: :mod:`decaycert.order` is the package's one door for
them, and the :mod:`decaycert.maps` constructors hold the family
invariants.  A constructor's ``ValueError`` is re-raised as
:class:`MapSpecError` with the same message.  Functions are stored as
parsed ScalarFn trees, and a null gain as None, an absent gain that
renders back as null, so serialize-then-parse reproduces an identical
spec.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from . import maps
from .maps import MonotoneMap
from .scalarfn import ScalarFn, ScalarFnParseError, parse_scalar_fn

__all__ = [
    "MapSpec",
    "MapSpecError",
    "MapSpecParseError",
    "parse_map_spec",
    "serialize_map_spec",
]


class MapSpecParseError(ValueError):
    """The document is not well-formed (JSON syntax, wrong value shapes)."""


class MapSpecError(ValueError):
    """The document is well-formed, but its map's constructor refuses it.

    The message is the constructor's: a bad number or count, or a
    violated family invariant.
    """


@dataclass(frozen=True)
class MapSpec:
    """Serializable description of one monotone map: its kind and one payload.

    ``data`` is the parsed value of the kind's one JSON field: matrix rows,
    ``n``, ``lambda``, gain rows, functions or child specs.
    ``parse_map_spec`` returns only specs whose map builds; on an invalid
    spec made by hand, ``build`` raises.  Maps are immutable, so a spec
    builds its map once and then returns the same one: the map that
    ``parse_map_spec`` checked is the map callers get.
    """

    kind: str
    data: Any

    def build(self) -> MonotoneMap:
        built = self.__dict__.get("_built")
        if built is None:
            built = _KINDS[self.kind].build(self.data)
            object.__setattr__(self, "_built", built)  # not a field: eq and hash ignore it
        return built

    def to_obj(self) -> dict:
        entry = _KINDS[self.kind]
        return {"kind": self.kind, entry.field: entry.render(self.data)}


def _scalar_fn(text, where: str, *at: int) -> ScalarFn | None:
    """Parse a gain or diagonal function; null stays None, an absent gain."""
    if text is None:
        return None
    if not isinstance(text, str):
        raise MapSpecParseError(f"{where.format(*at)} must be a string or null, got {text!r}")
    try:
        return parse_scalar_fn(text)
    except ScalarFnParseError as exc:
        raise MapSpecParseError(f"{where.format(*at)}: {exc}") from exc


def _square_rows(raw, name: str) -> tuple:
    """Rows of a nonempty square table, each a tuple of its entries as given."""
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise MapSpecParseError(f"{name} must be a nonempty list of rows")
    for i, row in enumerate(raw, 1):
        if len(row) != len(raw):
            raise MapSpecParseError(f"{name} row {i} has {len(row)} entries, expected {len(raw)}")
    return tuple(tuple(row) for row in raw)


def _gains(raw) -> tuple:
    return tuple(tuple(_scalar_fn(g, "gain ({0},{1})", i, j) for j, g in enumerate(row, 1))
                 for i, row in enumerate(_square_rows(raw, "gains"), 1))


def _functions(raw) -> tuple[ScalarFn, ...]:
    if not isinstance(raw, list) or not raw:
        raise MapSpecParseError("functions must be a nonempty list of strings")
    return tuple(_scalar_fn(text, "function {0}", i) for i, text in enumerate(raw, 1))


def _children(raw) -> tuple[MapSpec, ...]:
    if not isinstance(raw, list) or len(raw) < 2:
        raise MapSpecParseError("composition needs a list of at least two child specs")
    return tuple(_from_obj(child) for child in raw)


class _Kind(NamedTuple):
    field: str  # the kind's one JSON field besides "kind"
    parse: Callable[[Any], Any]  # JSON value -> MapSpec.data, format checks only
    build: Callable[[Any], MonotoneMap]
    render: Callable[[Any], Any]  # MapSpec.data -> JSON value


# a gain table, max or sum: one parse and one render, and a build for each row rule
_TABLE = _Kind("gains", _gains, maps.make_max_preserving,
               lambda rows: [[g and g.render() for g in row] for row in rows])
_KINDS = {
    "linear": _Kind("matrix", lambda raw: _square_rows(raw, "matrix"), maps.make_linear_map,
                    lambda rows: rows),
    "chain": _Kind("n", lambda n: n, maps.make_chain_map, lambda n: n),
    "flipflop": _Kind("lambda", lambda lam: lam, maps.make_flipflop_map, lambda lam: lam),
    "maxpreserving": _TABLE,
    "sumtable": _TABLE._replace(build=lambda rows: maps.GainTable(rows, "sum").to_map()),
    "diagonal": _Kind("functions", _functions, maps.make_diagonal,
                      lambda fns: [f.render() for f in fns]),
    "composition": _Kind("maps", _children, lambda kids: maps.compose(*(k.build() for k in kids)),
                         lambda kids: [k.to_obj() for k in kids]),
}


def _from_obj(obj) -> MapSpec:
    """Spec of a decoded document, with format checks only."""
    if not isinstance(obj, dict):
        raise MapSpecParseError(f"map spec must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise MapSpecParseError(f"unknown map kind {kind!r}; expected one of {tuple(_KINDS)}")
    entry = _KINDS[kind]
    extras = set(obj) - {"kind", entry.field}
    if extras:
        raise MapSpecParseError(f"unknown fields in map spec: {sorted(extras)}")
    if entry.field not in obj:
        raise MapSpecParseError(f"{kind} spec is missing the {entry.field!r} field")
    return MapSpec(kind, entry.parse(obj[entry.field]))


def parse_map_spec(text: str) -> MapSpec:
    """Parse a JSON map spec document and check it by building its map."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapSpecParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # the only other one: an int literal beyond Python's digit limit
        raise MapSpecParseError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    spec = _from_obj(obj)
    try:
        spec.build()
    except ValueError as exc:
        raise MapSpecError(str(exc)) from exc
    return spec


def serialize_map_spec(spec: MapSpec) -> str:
    """Canonical JSON text for a spec; parsing it back yields an equal spec."""
    return json.dumps(spec.to_obj(), indent=2) + "\n"
