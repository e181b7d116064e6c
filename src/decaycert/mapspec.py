"""Declarative JSON descriptions of the built-in map families.

A map spec file is a single JSON object with a ``kind`` field.  The
schema (documented in the README) is deliberately small: matrices are
nested number lists, gain and diagonal functions use the textual form of
:mod:`decaycert.scalarfn`, and compositions nest specs.  Parsing
validates every family invariant up front and stores functions in
canonical form, so serialize-then-parse reproduces an identical spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import maps
from .linear import as_nonnegative_matrix
from .maps import MonotoneMap
from .scalarfn import ScalarFnParseError, parse_scalar_fn

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
    """Validated, serializable description of one monotone map."""

    kind: str
    matrix: tuple[tuple[float, ...], ...] | None = None
    n: int | None = None
    lam: float | None = None
    gains: tuple[tuple[str, ...], ...] | None = None
    functions: tuple[str, ...] | None = None
    children: tuple["MapSpec", ...] | None = None

    @property
    def dimension(self) -> int:
        if self.kind == "linear":
            return len(self.matrix)
        if self.kind == "chain":
            return self.n
        if self.kind == "flipflop":
            return 2
        if self.kind == "maxpreserving":
            return len(self.gains)
        if self.kind == "diagonal":
            return len(self.functions)
        return self.children[0].dimension

    def build(self) -> MonotoneMap:
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
        built = [child.build() for child in self.children]
        out = built[-1]
        for inner in reversed(built[:-1]):
            out = maps.compose(inner, out)
        return out

    def to_obj(self) -> dict:
        if self.kind == "linear":
            return {"kind": "linear", "matrix": [list(row) for row in self.matrix]}
        if self.kind == "chain":
            return {"kind": "chain", "n": self.n}
        if self.kind == "flipflop":
            return {"kind": "flipflop", "lambda": self.lam}
        if self.kind == "maxpreserving":
            return {"kind": "maxpreserving", "gains": [list(row) for row in self.gains]}
        if self.kind == "diagonal":
            return {"kind": "diagonal", "functions": list(self.functions)}
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


def _semantic(check, *args) -> None:
    """Run a family-invariant check, re-raising its ValueError as a MapSpecError."""
    try:
        check(*args)
    except ValueError as exc:
        raise MapSpecError(str(exc)) from exc


def _canonical_fn(text, where: str, check) -> str:
    """Parse a gain or diagonal function, validate it with ``check``, render it."""
    if text is None:
        text = "0"
    if not isinstance(text, str):
        raise MapSpecParseError(f"{where} must be a string or null, got {text!r}")
    try:
        fn = parse_scalar_fn(text)
    except ScalarFnParseError as exc:
        raise MapSpecParseError(f"{where}: {exc}") from exc
    _semantic(check, fn, where)
    return fn.render()


def from_obj(obj) -> MapSpec:
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
        _semantic(as_nonnegative_matrix, rows)
        return MapSpec("linear", matrix=tuple(rows))

    if kind == "chain":
        _reject_extras(obj, {"kind", "n"})
        n = _require(obj, "n", kind)
        if isinstance(n, bool) or not isinstance(n, int):
            raise MapSpecParseError(f"chain n must be an integer, got {n!r}")
        if n < 2:
            raise MapSpecError(f"chain map needs n >= 2, got {n}")
        return MapSpec("chain", n=n)

    if kind == "flipflop":
        _reject_extras(obj, {"kind", "lambda"})
        lam = _number(_require(obj, "lambda", kind), "lambda")
        if not 0.0 < lam < 1.0:
            raise MapSpecError(f"flipflop lambda must lie in (0, 1), got {lam}")
        return MapSpec("flipflop", lam=lam)

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
            rows.append(tuple(
                _canonical_fn(g, f"gain ({i + 1},{j + 1})", maps.check_gain)
                for j, g in enumerate(row)
            ))
        return MapSpec("maxpreserving", gains=tuple(rows))

    if kind == "diagonal":
        _reject_extras(obj, {"kind", "functions"})
        raw = _require(obj, "functions", kind)
        if not isinstance(raw, list) or not raw:
            raise MapSpecParseError("functions must be a nonempty list of strings")
        rendered = tuple(
            _canonical_fn(text, f"function {i + 1}", maps.check_kinf) for i, text in enumerate(raw)
        )
        return MapSpec("diagonal", functions=rendered)

    _reject_extras(obj, {"kind", "maps"})
    raw = _require(obj, "maps", kind)
    if not isinstance(raw, list) or len(raw) < 2:
        raise MapSpecParseError("composition needs a list of at least two child specs")
    children = tuple(from_obj(child) for child in raw)
    dims = {child.dimension for child in children}
    if len(dims) != 1:
        raise MapSpecError(f"composition children have mismatched dimensions {sorted(dims)}")
    return MapSpec("composition", children=children)


def parse_map_spec(text: str) -> MapSpec:
    """Parse and validate a JSON map spec document."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapSpecParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return from_obj(obj)


def serialize_map_spec(spec: MapSpec) -> str:
    """Canonical JSON text for a spec; parsing it back yields an equal spec."""
    return json.dumps(spec.to_obj(), indent=2) + "\n"
