"""Plain-text and JSON forms for polynomials.

Text syntax: integer coefficients, ``x``, ``y``, ``^`` (integer exponents,
negative allowed for y), ``*``, ``+``, ``-``, parentheses, and division by a
constant or a power of y (as in ``(3*y^2+2*y+1)/y``).  Coefficients are
integers, so division by a constant must be exact: ``(4*y+2)/2`` is
``2*y+1``, and ``(3*y)/2`` is an error at the divisor.  Whitespace may
separate tokens, as ``format_poly`` writes it; there is no implicit
multiplication, so ``2 3`` and ``x y`` are errors.

JSON form: an object mapping ``"i,j"`` exponent keys to decimal integer
coefficient strings, exact and locale-independent.  Every integer in it is
read only in the form ``poly_to_json`` writes, ``[+-]?[0-9]+``.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .algebra import LaurentPoly2
from .errors import PolyParseError

_DECIMAL_INT = re.compile(r"[+-]?[0-9]+")


def format_rational(c: int | Fraction) -> str:
    """Exact decimal form, "5" or "-3/2", for numbers of any size."""
    try:
        return str(c)
    except ValueError:
        # past the interpreter's int -> str digit limit; Decimal converts an
        # int of any size without consulting that limit, which stays as set
        c = Fraction(c)
        text = str(Decimal(c.numerator))
        return text if c.denominator == 1 else f"{text}/{Decimal(c.denominator)}"


def _decimal_int(text: str) -> int:
    """The integer written ``[+-]?[0-9]+``, of any length; any other text
    (spaces, ``_`` separators, non-ASCII digits, which ``int`` accepts) is a
    ValueError.

    Past the interpreter's str -> int digit limit the digits are read through
    ``Decimal``, which parses and converts them without consulting that limit.
    """
    if not _DECIMAL_INT.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def _format_term(i: int, j: int, c: int) -> str:
    parts = []
    if i == 1:
        parts.append("x")
    elif i != 0:
        parts.append(f"x^{i}")
    if j == 1:
        parts.append("y")
    elif j != 0:
        parts.append(f"y^{j}")
    if not parts:
        return format_rational(c)
    if c == 1:
        return "*".join(parts)
    if c == -1:
        return "-" + "*".join(parts)
    return format_rational(c) + "*" + "*".join(parts)


def format_poly(p: LaurentPoly2) -> str:
    """Deterministic text form: terms sorted by descending (x, y) exponents."""
    if p.is_zero():
        return "0"
    keys = sorted(p.terms, reverse=True)
    out = _format_term(*keys[0], p.coefficient(*keys[0]))
    for key in keys[1:]:
        c = p.coefficient(*key)
        term = _format_term(*key, abs(c))
        out += (" - " if c < 0 else " + ") + term
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.pos)

    def peek(self) -> str:
        """The next character after any whitespace, or "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        negative = self.peek() == "-"
        if negative:
            self.pos += 1
        if not "0" <= self.peek() <= "9":
            raise self.error("expected an integer")
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        value = _decimal_int(self.text[start : self.pos])
        return -value if negative else value

    def parse_expr(self) -> LaurentPoly2:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> LaurentPoly2:
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.parse_factor()
            if op == "*":
                value = value * rhs
            else:
                value = self._divide(value, rhs)
        return value

    def _divide(self, value: LaurentPoly2, rhs: LaurentPoly2) -> LaurentPoly2:
        """value / rhs for a divisor c*y^j whose c divides every coefficient;
        errors point just past the divisor."""
        terms = rhs.terms
        if len(terms) != 1:
            raise self.error("divisor must be a constant or a power of y")
        ((i, j), c) = next(iter(terms.items()))
        if i != 0:
            raise self.error("divisor must not contain x")
        quotients = {key: divmod(a, c) for key, a in value.terms.items()}
        if any(r for _, r in quotients.values()):
            raise self.error(f"{c} does not divide every coefficient")
        return LaurentPoly2({key: q for key, (q, _) in quotients.items()}).shift_y(-j)

    def parse_factor(self) -> LaurentPoly2:
        if self.peek() == "-":
            self.pos += 1
            return -self.parse_factor()
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            exp = self.parse_int()
            if exp < 0:
                # negative exponents only make sense for y powers
                terms = base.terms
                if list(terms) != [(0, 1)] or terms[(0, 1)] != 1:
                    raise self.error("negative exponent on a non-y base")
                return LaurentPoly2.monomial(0, exp)
            return base**exp
        return base

    def parse_base(self) -> LaurentPoly2:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.parse_expr()
            self.expect(")")
            return value
        if ch == "x":
            self.pos += 1
            return LaurentPoly2.x()
        if ch == "y":
            self.pos += 1
            return LaurentPoly2.y()
        if "0" <= ch <= "9":
            return LaurentPoly2.const(self.parse_int())
        raise self.error("expected a number, variable, or '('")


def parse_poly(text: str) -> LaurentPoly2:
    parser = _Parser(text)
    value = parser.parse_expr()
    if parser.peek():
        raise parser.error("trailing input")
    return value


def poly_to_json(p: LaurentPoly2) -> dict[str, str]:
    return {f"{i},{j}": format_rational(c) for (i, j), c in sorted(p.terms.items())}


def poly_from_json(data: dict[str, str]) -> LaurentPoly2:
    terms = {}
    for key, value in data.items():
        i_str, _, j_str = key.partition(",")
        try:
            exps = (_decimal_int(i_str), _decimal_int(j_str))
        except ValueError as exc:
            raise ValueError(f"bad exponent key {key!r}") from exc
        terms[exps] = _decimal_int(value)
    return LaurentPoly2(terms)
