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
The input is tokenized by one regular-expression pass that keeps only the
token strings; a token's byte offset is found again, by a second pass, only
when an error is raised at it.
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
# 1000, and an error at the innermost level under ten more to find its
# offset; the rest is left to the caller's stack and the arithmetic.
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
# [ \t\r\n], and _BAD matches every other byte that no token can hold.  A
# byte that is neither lies inside some token, so one _BAD search before
# tokenizing finds the first bad byte where a token-by-token scan would.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9]*|[-+*^/()]")
_BAD = re.compile(r"[^ \t\r\n0-9A-Za-z*^/()+-]")


class _Parser:
    """Recursive descent over token strings, with ``""`` for the end.

    An operator token is its character, a number starts with a digit and a
    name with a letter.  Byte offsets are not stored: :meth:`offset` finds
    one again when an error is raised.
    """

    def __init__(self, text: str, ring: RingSpec):
        try:
            data = text.encode("utf-8", "surrogateescape").decode("latin-1")
        except UnicodeEncodeError as exc:
            # An earlier bad character wins; the prefix's end is at the surrogate.
            offset = _Parser(text[: exc.start], ring).offset(-1)
            code_point = ord(text[exc.start])
            raise ParseError(offset, f"unexpected character U+{code_point:04X}") from None
        if bad := _BAD.search(data):
            char = bad.group()
            named = repr(char) if char < "\x80" else f"0x{ord(char):02x}"
            raise ParseError(bad.start(), f"unexpected character {named}")
        self.data = data
        self.tokens = _TOKEN.findall(data)
        self.tokens.append("")
        self.pos = 0
        self.depth = 0
        self.ring = ring
        self.digits = digit_limit()

    def offset(self, i: int) -> int:
        """The byte offset of token i, found again by re-scanning; only errors need it."""
        return [*(m.start() for m in _TOKEN.finditer(self.data)), len(self.data)][i]

    def fail(self, what: str):
        raise ParseError(self.offset(self.pos), f"expected {what}", expected=(what,))

    def take(self, token: str) -> bool:
        """Consume the next token if it is ``token``."""
        if self.tokens[self.pos] == token:
            self.pos += 1
            return True
        return False

    def number(self, what: str) -> str:
        """Consume the next token if it is a number; else raise, expecting ``what``."""
        token = self.tokens[self.pos]
        if not token.isdigit():
            self.fail(what)
        self.pos += 1
        return token

    def parse_expr(self) -> Polynomial:
        return self.ring.sum_terms(self.summands(self.parse_term(1)))

    def summands(self, first):
        # The terms of one sum, in order, as RingSpec.sum_terms reads them.
        yield first
        while (token := self.tokens[self.pos]) == "+" or token == "-":
            self.pos += 1
            yield self.parse_term(1 if token == "+" else -1)

    def parse_term(self, sign: int) -> tuple[list, int, int] | Polynomial:
        # A term is one scalar num/den (a residue over 1 over F_p), sparse
        # (j, e) factors and the product of its groups; a group holding one
        # literal, like a bare literal, is folded into the scalar.
        ring = self.ring
        p = ring.field.modulus
        tokens = self.tokens
        num, den = sign, 1
        if tokens[self.pos] == "-":
            self.pos += 1
            num = -sign
        factors = []
        value = None
        while True:
            token = tokens[self.pos]
            if token[:1].isalpha():
                self.pos += 1
                try:
                    j = ring.index_of(token)
                except KeyError:
                    raise UnknownVariableError(self.offset(self.pos - 1), token) from None
                factors.append((j, self.exponent()))
            elif token.isdigit() or token == "-":
                num, den = self.scale(num, den, *self.rational(p))
            elif token == "(":
                group = self.group()
                if isinstance(group, Polynomial):
                    e = self.exponent()
                    group = group if e == 1 else group**e
                    value = group if value is None else value * group
                else:
                    num, den = self.scale(num, den, *group)
            else:
                raise ParseError(self.offset(self.pos), "expected a value",
                                 expected=("number", "variable", "'('"))
            if tokens[self.pos] != "*":
                break
            self.pos += 1
        if p:
            num %= p
        if value is None:
            return factors, num, den
        if factors or num != den:
            value = value * ring.sum_terms(((factors, num, den),))
        return value

    def group(self) -> Polynomial | tuple[int, int]:
        # A parenthesized sum as a Polynomial, or the scalar (num, den) of a
        # lone literal, as in (-3/5), which skips the sum.
        if self.depth == MAX_DEPTH:
            raise ParseError(self.offset(self.pos), f"parentheses nested deeper than {MAX_DEPTH}")
        self.pos += 1
        self.depth += 1
        first = self.parse_term(1)
        if type(first) is tuple and not first[0] and self.tokens[self.pos] == ")":
            value = first[1:]
        else:
            value = self.ring.sum_terms(self.summands(first))
        if not self.take(")"):
            self.fail("')'")
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
        if self.tokens[self.pos] != "^":
            return 1
        self.pos += 1
        token = self.number("exponent")
        digits = token.lstrip("0") or "0"
        e = int(digits) if len(digits) <= 10 else MAX_EXPONENT + 1
        if e > MAX_EXPONENT:
            what = digits if len(digits) <= 10 else f"of {len(digits)} digits"
            raise ParseError(self.offset(self.pos - 1), f"exponent {what} exceeds {MAX_EXPONENT}")
        return e

    def literal(self, what: str) -> int:
        token = self.number(what)
        if len(token) > self.digits:
            raise ParseError(self.offset(self.pos - 1), f"number longer than {self.digits} digits")
        return int(token)

    def rational(self, p: int | None) -> tuple[int, int]:
        # A signed literal ``-a/b`` as the ints (a, b); over F_p, b is 1.
        sign = -1 if self.take("-") else 1
        numerator = sign * self.literal("number")
        if not self.take("/"):
            return numerator, 1
        denominator = self.literal("positive denominator")
        if denominator == 0:
            raise ParseError(self.offset(self.pos - 1), "denominator must be positive")
        if not p:
            return numerator, denominator
        # Reduced first, so 4/2 is 0 over F2; only 1/2 and the like are refused.
        field = self.ring.field
        try:
            return field.scalar(Fraction(numerator, denominator)), 1
        except ZeroDivisionError:
            named = shown(denominator, "", str)
            raise FieldLiteralError(
                self.offset(self.pos - 1), f"denominator {named} is not invertible in {field}"
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
    token = parser.tokens[parser.pos]
    if token:
        raise ParseError(
            parser.offset(parser.pos),
            f"unexpected {shown(token, 'token')} after expression",
            expected=("'+'", "'-'", "'*'", "end of input"),
        )
    return value


def format_polynomial(f: Polynomial) -> str:
    """Canonical text for a polynomial; parsing it back is the identity."""
    return str(f)
