"""Declarative JSON descriptions of the built-in map families.

A map spec file is a single JSON object with a ``kind`` field.  The
schema (documented in the README) is deliberately small: matrices are
nested number lists, gain and diagonal functions use the textual form of
:mod:`decaycert.scalarfn`, and compositions nest specs.  Parsing checks
the format of the whole document first (JSON shapes, numbers, square
rows, gain text that parses), then checks the spec by building its map:
the :mod:`decaycert.maps` constructors hold the family invariants, and
their ``ValueError`` is re-raised as :class:`MapSpecError` with the same
message.  Functions are stored as parsed ScalarFn trees, so
serialize-then-parse reproduces an identical spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import maps
from .maps import MonotoneMap
from .scalarfn import ScalarFn, ScalarFnParseError, parse_scalar_fn, zero_fn

__all__ = [
    "MapSpec",
    "MapSpecError",
    "MapSpecParseError",
    "parse_map_spec",
    "serialize_map_spec",
]

KINDS = ("linear", "chain", "flipflop", "maxpreserving", "diagonal", "composition")


class MapSpecParseError(ValueError):
    """The document is not well-formed (JSON syntax, wrong value shapes)."""


class MapSpecError(ValueError):
    """The document is well-formed but violates a family invariant."""


@dataclass(frozen=True)
class MapSpec:
    """Serializable description of one monotone map.

    ``parse_map_spec`` returns only specs whose map builds; on an invalid
    spec made by hand, ``build`` and ``dimension`` raise ``ValueError``.
    Maps are immutable, so a spec builds its map once and then returns the
    same one: the map that ``parse_map_spec`` checked is the map callers get.
    """

    kind: str
    matrix: tuple[tuple[float, ...], ...] | None = None
    n: int | None = None
    lam: float | None = None
    gains: tuple[tuple[ScalarFn, ...], ...] | None = None
    functions: tuple[ScalarFn, ...] | None = None
    children: tuple["MapSpec", ...] | None = None

    @property
    def dimension(self) -> int:
        return self.build().dimension

    def build(self) -> MonotoneMap:
        built = self.__dict__.get("_built")
        if built is None:
            built = self._construct()
            object.__setattr__(self, "_built", built)  # not a field: eq and hash ignore it
        return built

    def _construct(self) -> MonotoneMap:
        if self.kind == "linear":
            return maps.make_linear_map([list(row) for row in self.matrix])
        if self.kind == "chain":
            return maps.make_chain_map(self.n)
        if self.kind == "flipflop":
            return maps.make_flipflop_map(self.lam)
        if self.kind == "maxpreserving":
            return maps.make_max_preserving([list(row) for row in self.gains])
        if self.kind == "diagonal":
            return maps.make_diagonal(list(self.functions))
        return maps.compose(*(child.build() for child in self.children))

    def to_obj(self) -> dict:
        if self.kind == "linear":
            return {"kind": "linear", "matrix": [list(row) for row in self.matrix]}
        if self.kind == "chain":
            return {"kind": "chain", "n": self.n}
        if self.kind == "flipflop":
            return {"kind": "flipflop", "lambda": self.lam}
        if self.kind == "maxpreserving":
            return {"kind": "maxpreserving",
                    "gains": [[g.render() for g in row] for row in self.gains]}
        if self.kind == "diagonal":
            return {"kind": "diagonal", "functions": [f.render() for f in self.functions]}
        return {"kind": "composition", "maps": [child.to_obj() for child in self.children]}


def _require(obj: dict, key: str, kind: str):
    if key not in obj:
        raise MapSpecParseError(f"{kind} spec is missing the {key!r} field")
    return obj[key]


def _reject_extras(obj: dict, allowed: set[str]):
    extras = set(obj) - allowed
    if extras:
        raise MapSpecParseError(f"unknown fields in map spec: {sorted(extras)}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MapSpecParseError(f"{where} must be a number, got {value!r}")
    return float(value)


def _scalar_fn(text, where: str) -> ScalarFn:
    """Parse a gain or diagonal function; null is the zero gain."""
    if text is None:
        return zero_fn()
    if not isinstance(text, str):
        raise MapSpecParseError(f"{where} must be a string or null, got {text!r}")
    try:
        return parse_scalar_fn(text)
    except ScalarFnParseError as exc:
        raise MapSpecParseError(f"{where}: {exc}") from exc


def _from_obj(obj) -> MapSpec:
    """Spec of a decoded document, with format checks only."""
    if not isinstance(obj, dict):
        raise MapSpecParseError(f"map spec must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise MapSpecParseError(f"unknown map kind {kind!r}; expected one of {KINDS}")

    if kind == "linear":
        _reject_extras(obj, {"kind", "matrix"})
        raw = _require(obj, "matrix", kind)
        if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
            raise MapSpecParseError("matrix must be a nonempty list of rows")
        n = len(raw)
        rows = []
        for i, row in enumerate(raw):
            if len(row) != n:
                raise MapSpecParseError(f"matrix row {i + 1} has {len(row)} entries, expected {n}")
            rows.append(tuple(_number(v, f"matrix[{i + 1}]") for v in row))
        return MapSpec("linear", matrix=tuple(rows))

    if kind == "chain":
        _reject_extras(obj, {"kind", "n"})
        n = _require(obj, "n", kind)
        if isinstance(n, bool) or not isinstance(n, int):
            raise MapSpecParseError(f"chain n must be an integer, got {n!r}")
        return MapSpec("chain", n=n)

    if kind == "flipflop":
        _reject_extras(obj, {"kind", "lambda"})
        return MapSpec("flipflop", lam=_number(_require(obj, "lambda", kind), "lambda"))

    if kind == "maxpreserving":
        _reject_extras(obj, {"kind", "gains"})
        raw = _require(obj, "gains", kind)
        if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
            raise MapSpecParseError("gains must be a nonempty list of rows")
        n = len(raw)
        rows = []
        for i, row in enumerate(raw):
            if len(row) != n:
                raise MapSpecParseError(f"gains row {i + 1} has {len(row)} entries, expected {n}")
            rows.append(tuple(_scalar_fn(g, f"gain ({i + 1},{j + 1})") for j, g in enumerate(row)))
        return MapSpec("maxpreserving", gains=tuple(rows))

    if kind == "diagonal":
        _reject_extras(obj, {"kind", "functions"})
        raw = _require(obj, "functions", kind)
        if not isinstance(raw, list) or not raw:
            raise MapSpecParseError("functions must be a nonempty list of strings")
        fns = tuple(_scalar_fn(text, f"function {i + 1}") for i, text in enumerate(raw))
        return MapSpec("diagonal", functions=fns)

    _reject_extras(obj, {"kind", "maps"})
    raw = _require(obj, "maps", kind)
    if not isinstance(raw, list) or len(raw) < 2:
        raise MapSpecParseError("composition needs a list of at least two child specs")
    return MapSpec("composition", children=tuple(_from_obj(child) for child in raw))


def parse_map_spec(text: str) -> MapSpec:
    """Parse a JSON map spec document and check it by building its map."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapSpecParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
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
