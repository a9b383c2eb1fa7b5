"""Text grammars for manifold expressions and form classes.

Manifold expressions:   surface(2) * cp(2),  connsum(s2xs2, 8),  torus(4)
with `*` for products and `connsum(X, v)` for v-fold connected sums.

Form classes: sums of scalar-weighted wedge chains of the constructor-named
classes `vol(i)` and `sym(i)`, where i is the 1-based factor index, e.g.
"vol(1)^sym(2)", "vol(1) + vol(2)", "2*vol(1) - sym(2)^sym(2)".
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .manifolds import (
    CPm,
    FactorClasses,
    ManifoldExpr,
    Product,
    S2xS2,
    Sphere,
    Surface,
    Torus,
    connsum_power,
)
from .ring import GradedRing, RingElement


# ASCII only: str.isdigit also accepts characters such as "²" that int() rejects
_DIGITS = frozenset("0123456789")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos, self.text)
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected a name", self.pos, self.text)
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in ("+", "-"):
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start or not self.text[start : self.pos].lstrip("+-"):
            raise ParseError("expected an integer", start, self.text)
        return int(self.text[start : self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_manifold(text: str) -> ManifoldExpr:
    scanner = _Scanner(text)
    expr = _manifold_expr(scanner)
    if not scanner.done():
        raise ParseError("unexpected trailing input", scanner.pos, text)
    return expr


def _manifold_expr(s: _Scanner) -> ManifoldExpr:
    expr = _manifold_atom(s)
    while s.peek() == "*":
        s.expect("*")
        expr = Product(expr, _manifold_atom(s))
    return expr


def _manifold_atom(s: _Scanner) -> ManifoldExpr:
    if s.peek() == "(":
        s.expect("(")
        expr = _manifold_expr(s)
        s.expect(")")
        return expr
    at = s.pos
    name = s.word().lower()
    if name == "s2xs2":
        return S2xS2()
    if name == "connsum":
        s.expect("(")
        inner = _manifold_expr(s)
        s.expect(",")
        count = s.integer()
        s.expect(")")
        if count < 1:
            raise ParseError("connected-sum multiplicity must be >= 1", at, s.text)
        return connsum_power(inner, count)
    makers = {
        "sphere": Sphere,
        "torus": Torus,
        "surface": Surface,
        "cp": CPm,
    }
    if name not in makers:
        raise ParseError(f"unknown constructor {name!r}", at, s.text)
    s.expect("(")
    arg = s.integer()
    s.expect(")")
    try:
        return makers[name](arg)
    except ValueError as exc:
        raise ParseError(str(exc), at, s.text) from exc


# -- form classes ------------------------------------------------------------


def parse_omega(
    text: str, ring: GradedRing, factors: tuple[FactorClasses, ...]
) -> RingElement:
    """Evaluate a form-class expression against a built ring."""
    scanner = _Scanner(text)
    value = _omega_sum(scanner, ring, factors)
    if not scanner.done():
        raise ParseError("unexpected trailing input", scanner.pos, text)
    return value


def _omega_sum(s: _Scanner, ring, factors) -> RingElement:
    value = _omega_term(s, ring, factors)
    while s.peek() in ("+", "-"):
        op = s.peek()
        s.pos += 1
        term = _omega_term(s, ring, factors)
        value = value + term if op == "+" else value - term
    return value


def _omega_term(s: _Scanner, ring, factors) -> RingElement:
    sign = 1
    while s.peek() == "-":
        s.pos += 1
        sign = -sign
    coeff = 1
    if s.peek() in _DIGITS:
        coeff = _omega_rational(s)
        if s.peek() == "*":
            s.pos += 1
        else:
            return ring.unit().scale(sign * coeff)
    value = _omega_atom(s, ring, factors)
    while s.peek() == "^":
        s.pos += 1
        value = value * _omega_atom(s, ring, factors)
    return value.scale(sign * coeff)


def _omega_rational(s: _Scanner) -> int | Fraction:
    num = s.integer()
    if s.peek() == "/":
        s.pos += 1
        den = s.integer()
        if den == 0:
            raise ParseError("zero denominator", s.pos, s.text)
        return Fraction(num, den)
    return num


def _omega_atom(s: _Scanner, ring, factors) -> RingElement:
    if s.peek() == "(":
        s.expect("(")
        value = _omega_sum(s, ring, factors)
        s.expect(")")
        return value
    at = s.pos
    name = s.word().lower()
    if name not in ("vol", "sym"):
        raise ParseError(f"unknown class name {name!r}", at, s.text)
    s.expect("(")
    idx = s.integer()
    s.expect(")")
    if not (1 <= idx <= len(factors)):
        raise ParseError(
            f"factor index {idx} out of range 1..{len(factors)}", at, s.text
        )
    value = factors[idx - 1].get(name)
    if value is None:
        raise ParseError(
            f"factor {idx} has no class {name!r}", at, s.text
        )
    return value
