"""Parsing and canonical printing of polynomial expressions.

The accepted grammar (whitespace between tokens is ignored)::

    expr     := term (("+" | "-") term)*
    term     := ("-")? factor ("*" factor)*
    factor   := atom ("^" nat)?
    atom     := rational | varname | "(" expr ")"
    rational := int ("/" posint)?

Multiplication is always explicit (``2*t1``, never ``2t1``), ``^`` binds
tighter than ``*`` binds tighter than ``+``/``-``, and rational literals
are reduced at parse time (over a prime field, ``a/b`` means ``a * b^-1``
and a denominator divisible by the characteristic is a parse error).
Exponents are capped at 2^31 - 1, number literals at
:data:`MAX_LITERAL_DIGITS` digits, and parentheses nest at most
:data:`MAX_DEPTH` deep.

Errors are always :class:`ParseError` values carrying the byte offset into
the UTF-8 encoding of the input, never raw exceptions from the internals.

:func:`format_polynomial` is the exact inverse on canonical text: it prints
terms in graded lexicographic order (highest first), and parsing its output
returns the identical polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import KrullkitError
from .poly import Polynomial, RingSpec

__all__ = [
    "ParseError",
    "UnknownVariableError",
    "FieldLiteralError",
    "RingSpec",
    "parse_polynomial",
    "format_polynomial",
]

MAX_EXPONENT = 2**31 - 1
# CPython refuses to convert longer digit strings to int (sys.int_info).
MAX_LITERAL_DIGITS = 4300
# The parser recurses through parse_expr/term/factor/atom, four frames per
# parenthesis level, so 100 levels take 400 of the default recursion limit
# of 1000 and leave the rest to the caller's stack and the arithmetic.
MAX_DEPTH = 100


class ParseError(KrullkitError):
    """A positioned syntax error; ``offset`` is a byte offset into the input."""

    identifier = "ParseError"

    def __init__(self, offset: int, message: str, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.message = message
        self.expected = expected

    def __str__(self) -> str:
        text = f"{self.message} (byte {self.offset})"
        if self.expected:
            text += f", expected {' or '.join(self.expected)}"
        return text


class UnknownVariableError(ParseError):
    """A name token that is not one of the ring's variables."""

    identifier = "UnknownVariable"

    def __init__(self, offset: int, name: str):
        super().__init__(offset, f"unknown variable {name!r}")
        self.name = name


class FieldLiteralError(ParseError):
    """A rational literal with no meaning in the coefficient field."""


_DIGIT = frozenset(b"0123456789")
_LETTER = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_ALNUM = _DIGIT | _LETTER
_OPS = frozenset(b"+-*^/()")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | one of + - * ^ / ( ) | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    data = text.encode("utf-8")
    tokens: list[_Token] = []
    i, n = 0, len(data)
    while i < n:
        b = data[i]
        if b in b" \t\r\n":
            i += 1
        elif b in _DIGIT:
            j = i + 1
            while j < n and data[j] in _DIGIT:
                j += 1
            tokens.append(_Token("number", data[i:j].decode("ascii"), i))
            i = j
        elif b in _LETTER:
            j = i + 1
            while j < n and data[j] in _ALNUM:
                j += 1
            tokens.append(_Token("name", data[i:j].decode("ascii"), i))
            i = j
        elif b in _OPS:
            tokens.append(_Token(chr(b), chr(b), i))
            i += 1
        else:
            shown = repr(chr(b)) if b < 0x80 else f"0x{b:02x}"
            raise ParseError(i, f"unexpected character {shown}")
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: RingSpec):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.ring = ring

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.offset, f"expected {what}", expected=(what,))
        return self.advance()

    def parse_expr(self) -> Polynomial:
        value = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def parse_term(self) -> Polynomial:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        value = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.parse_factor()
        return -value if negate else value

    def parse_factor(self) -> Polynomial:
        value = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("number", "exponent")
            digits = tok.text.lstrip("0") or "0"
            e = int(digits) if len(digits) <= 10 else MAX_EXPONENT + 1
            if e > MAX_EXPONENT:
                shown = digits if len(digits) <= 10 else f"of {len(digits)} digits"
                raise ParseError(tok.offset, f"exponent {shown} exceeds {MAX_EXPONENT}")
            value = value**e
        return value

    def parse_atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "-" or tok.kind == "number":
            return self.parse_rational()
        if tok.kind == "name":
            self.advance()
            try:
                j = self.ring.index_of(tok.text)
            except KeyError:
                raise UnknownVariableError(tok.offset, tok.text) from None
            return self.ring.gen(j)
        if tok.kind == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(tok.offset, f"parentheses nested deeper than {MAX_DEPTH}")
            self.advance()
            self.depth += 1
            value = self.parse_expr()
            self.expect(")", "')'")
            self.depth -= 1
            return value
        raise ParseError(
            tok.offset, "expected a value", expected=("number", "variable", "'('")
        )

    def literal(self, tok: _Token) -> int:
        if len(tok.text) > MAX_LITERAL_DIGITS:
            raise ParseError(
                tok.offset, f"number longer than {MAX_LITERAL_DIGITS} digits"
            )
        return int(tok.text)

    def parse_rational(self) -> Polynomial:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        numerator = sign * self.literal(self.expect("number", "number"))
        denominator = 1
        den_tok = None
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("number", "positive denominator")
            denominator = self.literal(den_tok)
            if denominator == 0:
                raise ParseError(den_tok.offset, "denominator must be positive")
        try:
            return self.ring.constant(Fraction(numerator, denominator))
        except ZeroDivisionError:
            raise FieldLiteralError(
                den_tok.offset,
                f"denominator {denominator} is not invertible in {self.ring.field}",
            ) from None


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse an expression into a polynomial over the given ring."""
    parser = _Parser(_tokenize(text), ring)
    value = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(
            trailing.offset,
            f"unexpected {trailing.text!r} after expression",
            expected=("'+'", "'-'", "'*'", "end of input"),
        )
    return value


def format_polynomial(f: Polynomial) -> str:
    """Canonical text for a polynomial; parsing it back is the identity."""
    return str(f)
