"""Parsing and canonical printing of polynomial expressions.

The accepted grammar (whitespace between tokens is ignored)::

    expr     := term (("+" | "-") term)*
    term     := ("-")? factor ("*" factor)*
    factor   := atom ("^" nat)?
    atom     := rational | varname | "(" expr ")"
    rational := "-"? int ("/" posint)?

Multiplication is always explicit (``2*t1``, never ``2t1``), ``^`` binds
tighter than ``*`` binds tighter than ``+``/``-``, and rational literals
are reduced at parse time (over a prime field, ``a/b`` means ``a * b^-1``,
and it is a parse error if the denominator of the reduced fraction is
divisible by the characteristic: over F2, ``4/2`` is 0 and ``2/4`` an error).
Exponents are capped at 2^31 - 1, number literals at
:func:`~krullkit.errors.digit_limit` digits (:data:`MAX_LITERAL_DIGITS`, or the
interpreter's lower limit), and parentheses nest at most :data:`MAX_DEPTH`
deep.  Over Q, a power of a literal or of a parenthesized literal whose
numerator or denominator would have more than :data:`MAX_LITERAL_DIGITS`
digits raises :class:`SizeLimitError` before it is computed (over F_p such a
power is reduced mod p and always fits).

Errors are always :class:`ParseError` values carrying the byte offset into
the UTF-8 encoding of the input, never raw exceptions from the internals.
Undecodable bytes (lone surrogates from ``surrogateescape``, as in argv)
encode back to themselves and are reported as unexpected characters; any
other lone surrogate is reported by its code point.

:func:`format_polynomial` is the exact inverse on canonical text: it prints
terms in graded lexicographic order (highest first), and parsing its output
returns the identical polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    DIGIT_BOUND, MAX_LITERAL_DIGITS, KrullkitError, SizeLimitError, digit_limit, shown,
)
from .poly import Polynomial, RingSpec

__all__ = [
    "ParseError",
    "UnknownVariableError",
    "FieldLiteralError",
    "parse_polynomial",
    "format_polynomial",
]

MAX_EXPONENT = 2**31 - 1
# A parenthesis level takes at most four frames (parse_term, group, sum_terms
# and summands), so 100 levels take 400 of the default recursion limit of
# 1000 and leave the rest to the caller's stack and the arithmetic.
MAX_DEPTH = 100


class ParseError(KrullkitError):
    """A positioned syntax error; ``offset`` is a byte offset into the input."""

    identifier = "ParseError"
    exit_code = 2

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
        super().__init__(offset, f"unknown variable {shown(name, 'name')}")
        self.name = name


class FieldLiteralError(ParseError):
    """A rational literal with no meaning in the coefficient field."""


# Matched against the UTF-8 bytes decoded as Latin-1, one character per
# byte, so match offsets are byte offsets.  Whitespace is exactly
# [ \t\r\n]; any other byte outside a token is "bad".
_TOKEN = re.compile(
    r"(?P<number>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^/()])|(?P<bad>[^ \t\r\n])"
)


class _Parser:
    """Recursive descent over (kind, text, byte offset) token tuples."""

    def __init__(self, text: str, ring: RingSpec):
        try:
            data = text.encode("utf-8", "surrogateescape").decode("latin-1")
        except UnicodeEncodeError as exc:
            # An earlier bad character wins; the prefix's end token is at the surrogate.
            offset = _Parser(text[: exc.start], ring).tokens[-1][2]
            code_point = ord(text[exc.start])
            raise ParseError(offset, f"unexpected character U+{code_point:04X}") from None
        self.tokens = []
        for m in _TOKEN.finditer(data):
            kind, token, i = m.lastgroup, m.group(), m.start()
            if kind == "bad":
                named = repr(token) if token < "\x80" else f"0x{ord(token):02x}"
                raise ParseError(i, f"unexpected character {named}")
            self.tokens.append((token if kind == "op" else kind, token, i))
        self.tokens.append(("end", "", len(data)))
        self.pos = 0
        self.depth = 0
        self.ring = ring
        self.digits = digit_limit()

    def take(self, kind: str, what: str = "") -> tuple[str, str, int] | None:
        """Consume the next token if it is of this kind; else raise if ``what``."""
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        if what:
            raise ParseError(tok[2], f"expected {what}", expected=(what,))
        return None

    def parse_expr(self) -> Polynomial:
        return self.ring.sum_terms(self.summands(self.parse_term(1)))

    def summands(self, first):
        # The terms of one sum, in order, as RingSpec.sum_terms reads them.
        yield first
        while (kind := self.tokens[self.pos][0]) == "+" or kind == "-":
            self.pos += 1
            yield self.parse_term(1 if kind == "+" else -1)

    def parse_term(self, sign: int) -> tuple[list, int, int] | Polynomial:
        # A term is one scalar num/den (a residue over 1 over F_p), sparse
        # (j, e) factors and the product of its groups; a group holding one
        # literal, like a bare literal, is folded into the scalar.
        ring = self.ring
        p = ring.field.modulus
        num, den = -sign if self.take("-") else sign, 1
        factors = []
        value = None
        while True:
            kind, token, offset = self.tokens[self.pos]
            if kind == "name":
                self.pos += 1
                try:
                    j = ring.index_of(token)
                except KeyError:
                    raise UnknownVariableError(offset, token) from None
                factors.append((j, self.exponent()))
            elif kind == "number" or kind == "-":
                num, den = self.scale(num, den, *self.rational(p))
            elif kind == "(":
                group = self.group(offset)
                if isinstance(group, Polynomial):
                    e = self.exponent()
                    group = group if e == 1 else group**e
                    value = group if value is None else value * group
                else:
                    num, den = self.scale(num, den, *group)
            else:
                raise ParseError(
                    offset, "expected a value", expected=("number", "variable", "'('")
                )
            if not self.take("*"):
                break
        if p:
            num %= p
        if value is None:
            return factors, num, den
        if factors or num != den:
            value = value * ring.sum_terms(((factors, num, den),))
        return value

    def group(self, offset: int) -> Polynomial | tuple[int, int]:
        # A parenthesized sum as a Polynomial, or the scalar (num, den) of a
        # lone literal, as in (-3/5), which skips the sum.
        if self.depth == MAX_DEPTH:
            raise ParseError(offset, f"parentheses nested deeper than {MAX_DEPTH}")
        self.pos += 1
        self.depth += 1
        first = self.parse_term(1)
        if type(first) is tuple and not first[0] and self.tokens[self.pos][0] == ")":
            value = first[1:]
        else:
            value = self.ring.sum_terms(self.summands(first))
        self.take(")", "')'")
        self.depth -= 1
        return value

    def scale(self, num: int, den: int, a: int, b: int) -> tuple[int, int]:
        # num/den times (a/b)^e, for the exponent that follows; over F_p, b is 1.
        e = self.exponent()
        p = self.ring.field.modulus
        if p:
            return num * pow(a, e, p) % p, 1
        if e == 1:
            return num * a, den * b
        return num * _literal_power(a, e), den * _literal_power(b, e)

    def exponent(self) -> int:
        if not self.take("^"):
            return 1
        _, token, offset = self.take("number", "exponent")
        digits = token.lstrip("0") or "0"
        e = int(digits) if len(digits) <= 10 else MAX_EXPONENT + 1
        if e > MAX_EXPONENT:
            what = digits if len(digits) <= 10 else f"of {len(digits)} digits"
            raise ParseError(offset, f"exponent {what} exceeds {MAX_EXPONENT}")
        return e

    def literal(self, what: str) -> tuple[int, int]:
        _, token, offset = self.take("number", what)
        if len(token) > self.digits:
            raise ParseError(offset, f"number longer than {self.digits} digits")
        return int(token), offset

    def rational(self, p: int | None) -> tuple[int, int]:
        # A signed literal ``-a/b`` as the ints (a, b); over F_p, b is 1.
        sign = -1 if self.take("-") else 1
        numerator = sign * self.literal("number")[0]
        if not self.take("/"):
            return numerator, 1
        denominator, offset = self.literal("positive denominator")
        if denominator == 0:
            raise ParseError(offset, "denominator must be positive")
        if not p:
            return numerator, denominator
        # Reduced first, so 4/2 is 0 over F2; only 1/2 and the like are refused.
        field = self.ring.field
        try:
            return field.scalar(Fraction(numerator, denominator)), 1
        except ZeroDivisionError:
            raise FieldLiteralError(
                offset, f"denominator {shown(denominator, '', str)} is not invertible in {field}"
            ) from None


def _literal_power(a: int, e: int) -> int:
    # a**e, or SizeLimitError past MAX_LITERAL_DIGITS digits.  A power of at
    # least (bit length - 1) * e bits is over the limit without computing it;
    # any other is under twice the limit's bit length, or a power of 0 or 1.
    if (abs(a).bit_length() - 1) * e < DIGIT_BOUND.bit_length():
        power = a**e
        if abs(power) < DIGIT_BOUND:
            return power
    raise SizeLimitError(f"a literal power of more than {MAX_LITERAL_DIGITS} digits")


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse an expression into a polynomial over the given ring."""
    parser = _Parser(text, ring)
    value = parser.parse_expr()
    kind, token, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError(
            offset,
            f"unexpected {shown(token, 'token')} after expression",
            expected=("'+'", "'-'", "'*'", "end of input"),
        )
    return value


def format_polynomial(f: Polynomial) -> str:
    """Canonical text for a polynomial; parsing it back is the identity."""
    return str(f)
