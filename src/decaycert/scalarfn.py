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

A bare NUMBER c is the term ``c*t^0``, and only ``"0"`` is a gain: any
other constant is refused, as every term ``c*t^0`` with ``c > 0`` is.
Examples: ``"0.5*t"``, ``"t^2"``, ``"2*t^0.5"``, ``"t + 0.25*t^3"``,
``"max(t, 2*t^2)"``, ``"0"``.  Fractional powers of zero evaluate to zero
(positive real branch).  Every function also acts elementwise on a numpy
array; a scalar argument still goes through the scalar ``t**a``.
``derivative(t)`` is the derivative at a scalar ``t >= 0`` (inf where a
fractional power's is, at 0); a Max takes the derivative of its active
part.  The map constructors of :mod:`decaycert.maps` build Jacobians
from it.

A :class:`Term`'s coefficient and exponent are real, finite and ``>= 0``,
and not a constant (exponent 0 with a nonzero coefficient), and a Sum or
Max has two or more parts, each a Term, Sum or Max.  These constructors
are the only gain checks: every tree that exists is a gain, continuous
and nondecreasing on ``t >= 0`` with ``g(0) = 0`` exactly, and renders
to text that parses back.  The parser reports a constructor's refusal as
a :class:`ScalarFnParseError` that names the text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .order import is_number

__all__ = [
    "ScalarFn",
    "Term",
    "Sum",
    "Max",
    "parse_scalar_fn",
    "degree",
    "span",
]


class ScalarFn:
    """Base class; subclasses implement ``__call__``, ``derivative`` and ``render``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()!r})"


@dataclass(frozen=True, repr=False)
class Term(ScalarFn):
    """The monomial ``coeff * t**exponent``; both numbers are real, finite and >= 0.

    A constant, exponent 0 with a nonzero coefficient, is refused: it is
    the one way a tree could fail ``g(0) = 0``.
    """

    coeff: float
    exponent: float = 1.0

    def __post_init__(self):
        for name, value in (("coefficient", self.coeff), ("exponent", self.exponent)):
            if not (is_number(value) and 0.0 <= value < math.inf):
                raise ValueError(f"Term {name} must be real, finite and >= 0, got {value!r}")
        if self.exponent == 0.0 and self.coeff != 0.0:
            raise ValueError(f"Term {self.coeff!r}*t^0 is a constant, which violates g(0)=0")

    def __call__(self, t: float) -> float:
        if self.coeff == 0.0:
            return 0.0
        try:
            return self.coeff * t**self.exponent
        except OverflowError:  # float ** raises where numpy would return inf
            return self.coeff * math.inf

    def derivative(self, t: float) -> float:
        """``coeff * exponent * t**(exponent - 1)`` at a scalar t; inf where that power is."""
        if self.coeff == 0.0:
            return 0.0
        try:
            return self.coeff * self.exponent * float(t) ** (self.exponent - 1.0)
        except (ZeroDivisionError, OverflowError):  # 0 to a negative power, or too large
            return math.inf

    def render(self) -> str:
        if self.coeff == 0.0:
            return "0"
        pow_part = "t" if self.exponent == 1.0 else f"t^{_num(self.exponent)}"
        if self.coeff == 1.0:
            return pow_part
        return f"{_num(self.coeff)}*{pow_part}"


@dataclass(frozen=True, repr=False)
class _Combination(ScalarFn):
    """A Sum or Max of two or more parts, each a Term, Sum or Max, never a foreign callable.

    Two parts at least, as the parser builds, so that every tree renders to
    text that parses back.
    """

    parts: tuple[ScalarFn, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two parts, "
                             f"got {len(self.parts)}")
        for part in self.parts:
            if not isinstance(part, (Term, _Combination)):
                raise TypeError(f"{type(self).__name__} parts must be Term, Sum or Max: {part!r}")


class Sum(_Combination):
    def __call__(self, t: float) -> float:
        return sum(p(t) for p in self.parts)

    def derivative(self, t: float) -> float:
        return sum(p.derivative(t) for p in self.parts)

    def render(self) -> str:
        return " + ".join(p.render() for p in self.parts)


class Max(_Combination):
    def __call__(self, t: float) -> float:
        return reduce(np.maximum, [p(t) for p in self.parts])

    def derivative(self, t: float) -> float:
        """The derivative of the active part, the first part whose value at t is largest."""
        return max(self.parts, key=lambda p: p(t)).derivative(t)

    def render(self) -> str:
        inner = ", ".join(p.render() for p in self.parts)
        return f"max({inner})"


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_TOKEN = re.compile(rf"\s*(max|[t+*^(),]|{_NUMBER.pattern})")


def _num(x: float) -> str:
    # Render floats compactly but losslessly (repr round-trips in Python).
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


class ScalarFnParseError(ValueError):
    pass


def parse_scalar_fn(text: str) -> ScalarFn:
    """Parse the textual gain-function form into its AST.

    Every refusal, the parser's own or a constructor's (a constant term,
    ``max`` of one argument, a number past float range), is raised here as a
    :class:`ScalarFnParseError` that ends `` in '<text>'``.
    """
    try:
        return _parse(text)
    except ValueError as exc:
        raise ScalarFnParseError(f"{exc} in {text!r}") from exc


def _parse(text: str) -> ScalarFn:
    tokens, pos = [], 0
    while m := _TOKEN.match(text, pos):
        tokens.append(m.group(1))
        pos = m.end()
    if text[pos:].strip():
        i = len(text) - len(text[pos:].lstrip())
        raise ValueError(f"unexpected character {text[i]!r} at position {i}")
    tokens = [None, *reversed(tokens)]  # popped from the end, down to the None that ends it

    def take(expected: str | None = None) -> str:
        if tokens[-1] is None:
            raise ValueError("unexpected end of input")
        if expected is not None and tokens[-1] != expected:
            raise ValueError(f"expected {expected!r}, got {tokens[-1]!r}")
        return tokens.pop()

    def number() -> float:
        tok = take()
        if not _NUMBER.fullmatch(tok):
            raise ValueError(f"expected a number, got {tok!r}")
        return float(tok)

    def expr() -> ScalarFn:
        parts = [term()]
        while tokens[-1] == "+":
            tokens.pop()
            parts.append(term())
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term() -> ScalarFn:
        if tokens[-1] == "max":
            tokens.pop()
            take("(")
            parts = [expr()]
            while tokens[-1] == ",":
                tokens.pop()
                parts.append(expr())
            take(")")
            return Max(tuple(parts))
        if tokens[-1] == "t":
            coeff = 1.0
        else:
            coeff = number()
            if tokens[-1] != "*":
                if tokens[-1] == "t":
                    raise ValueError("missing '*' between coefficient and t")
                return Term(coeff, 0.0) if coeff != 0.0 else Term(0.0)  # c is the term c*t^0
            tokens.pop()
        take("t")
        exponent = 1.0
        if tokens[-1] == "^":
            tokens.pop()
            exponent = number()
        fn = Term(coeff, exponent)  # checked even where it is zero, as t^inf is refused
        return fn if coeff != 0.0 else Term(0.0)  # every zero term renders as "0"

    fn = expr()
    if tokens[-1] is not None:
        raise ValueError(f"trailing input {tokens[-1]!r}")
    return fn


def degree(fn: ScalarFn) -> tuple[float, float] | None:
    """``(lo, hi)``, the least and the greatest exponent of fn's nonzero terms; None if it has none.

    A term ``c*t^a`` with ``c > 0`` has degree ``(a, a)``, a zero term none,
    and a Sum or Max the span of its parts, so that
    ``l^lo fn(t) <= fn(l t) <= l^hi fn(t)`` for ``l >= 1`` and ``t >= 0``:
    each term lies within those bounds, and a sum or maximum of them does too.
    """
    if isinstance(fn, Term):
        return (fn.exponent, fn.exponent) if fn.coeff > 0.0 else None
    return span(degree(part) for part in fn.parts)


def span(degrees) -> tuple[float, float] | None:
    """The least ``lo`` and the greatest ``hi`` of the degrees that are not None, or None."""
    present = [d for d in degrees if d is not None]
    if not present:
        return None
    return min(lo for lo, _ in present), max(hi for _, hi in present)
