"""A small closed vocabulary of scalar gain functions on the half line.

Gain tables and diagonal scalings are built from terms ``c*t^a`` combined
by pointwise sums and maxima.  Keeping the vocabulary closed (instead of
accepting arbitrary callables) makes map descriptions serializable and
auditable: every function that enters a certificate can be printed back
out exactly as it was parsed.

Grammar of the textual form::

    expr   := term ('+' term)*
    term   := 'max(' expr (',' expr)+ ')' | product
    product:= NUMBER ['*' power] | power
    power  := 't' ['^' NUMBER]

Examples: ``"0.5*t"``, ``"t^2"``, ``"2*t^0.5"``, ``"t + 0.25*t^3"``,
``"max(t, 2*t^2)"``, ``"0"``.  Fractional powers of zero evaluate to zero
(positive real branch).  Every function also acts elementwise on a numpy
array; a scalar argument still goes through the scalar ``t**a``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "ScalarFn",
    "Term",
    "Sum",
    "Max",
    "parse_scalar_fn",
    "zero_fn",
    "is_zero_at_zero",
    "is_nondecreasing_on",
    "is_kinf_on",
    "validation_grid",
]


class ScalarFn:
    """Base class; subclasses implement ``__call__`` and ``render``."""

    def __call__(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def render(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()!r})"


@dataclass(frozen=True, repr=False)
class Term(ScalarFn):
    """The monomial ``coeff * t**exponent``."""

    coeff: float
    exponent: float = 1.0

    def __call__(self, t: float) -> float:
        if self.coeff == 0.0:
            return 0.0
        try:
            return self.coeff * t**self.exponent
        except OverflowError:  # float ** raises where numpy would return inf
            return self.coeff * math.inf

    def render(self) -> str:
        if self.coeff == 0.0:
            return "0"
        pow_part = "t" if self.exponent == 1.0 else f"t^{_num(self.exponent)}"
        if self.coeff == 1.0:
            return pow_part
        return f"{_num(self.coeff)}*{pow_part}"


@dataclass(frozen=True, repr=False)
class Sum(ScalarFn):
    parts: tuple[ScalarFn, ...]

    def __call__(self, t: float) -> float:
        return sum(p(t) for p in self.parts)

    def render(self) -> str:
        return " + ".join(p.render() for p in self.parts)


@dataclass(frozen=True, repr=False)
class Max(ScalarFn):
    parts: tuple[ScalarFn, ...]

    def __call__(self, t: float) -> float:
        return reduce(np.maximum, [p(t) for p in self.parts])

    def render(self) -> str:
        inner = ", ".join(p.render() for p in self.parts)
        return f"max({inner})"


def zero_fn() -> ScalarFn:
    return Term(0.0)


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")


def _num(x: float) -> str:
    # Render floats compactly but losslessly (repr round-trips in Python).
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


class ScalarFnParseError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+*^(),":
            tokens.append(ch)
            i += 1
            continue
        if text.startswith("max", i):
            tokens.append("max")
            i += 3
            continue
        if ch == "t":
            tokens.append("t")
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(m.group(0))
            i = m.end()
            continue
        raise ScalarFnParseError(f"unexpected character {ch!r} at position {i} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ScalarFnParseError(f"unexpected end of input in {self.source!r}")
        if expected is not None and tok != expected:
            raise ScalarFnParseError(f"expected {expected!r}, got {tok!r} in {self.source!r}")
        self.pos += 1
        return tok

    def parse_expr(self) -> ScalarFn:
        parts = [self.parse_term()]
        while self.peek() == "+":
            self.take("+")
            parts.append(self.parse_term())
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def parse_term(self) -> ScalarFn:
        if self.peek() == "max":
            self.take("max")
            self.take("(")
            parts = [self.parse_expr()]
            while self.peek() == ",":
                self.take(",")
                parts.append(self.parse_expr())
            self.take(")")
            if len(parts) < 2:
                raise ScalarFnParseError(f"max() needs at least two arguments in {self.source!r}")
            return Max(tuple(parts))
        return self.parse_product()

    def parse_product(self) -> ScalarFn:
        tok = self.peek()
        if tok == "t":
            coeff = 1.0
        else:
            coeff = self._number()
            if self.peek() != "*":
                if self.peek() == "t":
                    raise ScalarFnParseError(
                        f"missing '*' between coefficient and t in {self.source!r}"
                    )
                if coeff != 0.0:
                    raise ScalarFnParseError(
                        f"bare constant {coeff} is not a valid gain (must vanish at 0) "
                        f"in {self.source!r}"
                    )
                return Term(0.0)
            self.take("*")
        exponent = self._power()
        return Term(coeff, exponent)

    def _power(self) -> float:
        self.take("t")
        if self.peek() == "^":
            self.take("^")
            return self._number()
        return 1.0

    def _number(self) -> float:
        tok = self.take()
        if not _NUMBER.fullmatch(tok):
            raise ScalarFnParseError(f"expected a number, got {tok!r} in {self.source!r}")
        return float(tok)


def parse_scalar_fn(text: str) -> ScalarFn:
    """Parse the textual gain-function form into its AST."""
    parser = _Parser(_tokenize(text), text)
    fn = parser.parse_expr()
    if parser.peek() is not None:
        raise ScalarFnParseError(f"trailing input {parser.peek()!r} in {text!r}")
    return fn


def validation_grid(n_points: int = 25) -> list[float]:
    """Log-spaced sample grid {0} U [1e-3, 1e3] used by the property checks."""
    step = 6.0 / (n_points - 1)
    return [0.0] + [10.0 ** (-3.0 + k * step) for k in range(n_points)]


def is_zero_at_zero(fn, tol: float = 1e-12) -> bool:
    return abs(fn(0.0)) <= tol


def is_nondecreasing_on(fn, grid) -> bool:
    values = [fn(t) for t in grid]
    return all(b >= a for a, b in zip(values, values[1:]))


def is_kinf_on(fn, grid) -> bool:
    """Sampled stand-in for class-Kinf: strictly increasing along the grid.

    Unboundedness is semidecidable from point values; strict growth across
    a grid reaching 1e3 is the documented surrogate.
    """
    values = [fn(t) for t in grid]
    return all(b > a for a, b in zip(values, values[1:]))
