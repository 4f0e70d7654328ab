"""Exact field scalars: arbitrary-precision rationals and prime residue fields.

A :class:`FieldSpec` names the field; a :class:`FieldElement` is one scalar in
canonical form (a reduced ``Fraction`` over the rationals, the least
nonnegative residue modulo ``p`` over a prime field).  Polynomials store
integer numerators over one denominator (see ``poly.py``) and turn them into
the plain canonical values that :meth:`FieldSpec.scalar` produces, wrapped in
elements, only at their API.  All arithmetic is exact: no scalar, coefficient
or printed value is a float; the one float is ``verify_chain``'s seeded coin.

This module owns the scalar rules.  :func:`is_scalar` is the one test of
what counts as a scalar (an ``int`` that is not a ``bool``, a ``Fraction``,
or a ``FieldElement``), :func:`check_count` the one test of a count or a
power, and :meth:`FieldSpec.element` the one coercion.  The
field branch is ``modulus``: ``None`` over the rationals, ``p`` over F_p, so
``pow(value, e, modulus)`` is a power in either field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DIGIT_BOUND, ArgumentError, ExhaustedFieldError, FieldMismatchError, SizeLimitError,
    digit_limit, shown,
)

_FIELD_TEXT_RE = re.compile(r"(Q|F([1-9][0-9]*))\Z")


# Miller-Rabin with the 13 prime bases 2..41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017); larger moduli are refused.
MAX_MODULUS = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin, exact for n < MAX_MODULUS.
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Identifies a coefficient field by its modulus: ``None`` for Q, p for F_p.

    The textual form is ``Q`` for the rationals and ``F<p>`` (e.g. ``F5``) for
    a prime field; :meth:`from_text` parses it and ``str()`` produces it.
    """

    modulus: int | None = None

    def __post_init__(self) -> None:
        p = self.modulus
        if type(p) is int and p >= MAX_MODULUS:
            raise ArgumentError(f"modulus must be below {MAX_MODULUS}")
        if p is not None and (type(p) is not int or not _is_prime(p)):
            raise ArgumentError(f"modulus must be a prime, got {shown(p, 'a value')}")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls()

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        if p is None:
            raise ArgumentError("modulus must be a prime, got None")
        return cls(p)

    @classmethod
    def from_text(cls, text: str) -> "FieldSpec":
        m = _FIELD_TEXT_RE.match(text.strip())
        if m is None:
            raise ArgumentError(f"unrecognized field {shown(text)}, expected Q or F<p>")
        digits = m.group(2)
        if digits is None:
            return cls.rationals()
        # Refuse before int(), which fails past the digit limit with its own text.
        if len(digits) > len(str(MAX_MODULUS)):
            raise ArgumentError(f"modulus must be below {MAX_MODULUS}")
        return cls.prime(int(digits))

    def __str__(self) -> str:
        return "Q" if self.modulus is None else f"F{self.modulus}"

    def scalar(self, value: "FieldElement | Fraction | int") -> "Fraction | int":
        """The canonical plain value of an int, Fraction, or element of this field.

        That is a ``Fraction`` over the rationals and the least nonnegative
        residue ``int`` modulo p over a prime field; it may be zero.
        """
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatchError(
                    f"cannot coerce element of {value.spec} into {self}"
                )
            return value.value
        if not is_scalar(value):
            raise TypeError(f"cannot make a field element from {shown(value, 'a value')}")
        p = self.modulus
        if p is None:
            return Fraction(value)
        if isinstance(value, int):
            return value % p
        if value.denominator % p == 0:
            raise ZeroDivisionError(
                f"denominator {shown(value.denominator, '', str)} is not invertible mod {p}"
            )
        return value.numerator * pow(value.denominator, -1, p) % p

    def element(self, value: "FieldElement | Fraction | int") -> "FieldElement":
        """Coerce an int, Fraction, or FieldElement into this field."""
        if isinstance(value, FieldElement) and value.spec == self:
            return value
        return FieldElement(self, self.scalar(value))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)


def check_count(name: str, value) -> None:
    """Raise ArgumentError unless value is an int (not a bool) that is at least 0."""
    if type(value) is not int or value < 0:
        raise ArgumentError(f"{name} must be a nonnegative int, got {shown(value, 'a value')}")


def is_scalar(value) -> bool:
    """Whether value is an int that is not a bool, a Fraction, or a FieldElement."""
    return isinstance(value, (int, Fraction, FieldElement)) and not isinstance(value, bool)


def _arith(op):
    # A FieldElement operator: op maps self and the coerced operand to a plain value.
    def method(self, other):
        if not is_scalar(other):
            return NotImplemented
        if isinstance(other, FieldElement) and other.spec != self.spec:
            raise FieldMismatchError(
                f"cannot combine elements of {self.spec} and {other.spec}"
            )
        return self.spec.element(op(self, self.spec.element(other)))

    return method


class FieldElement:
    """One scalar, tagged with its field.

    Supports ``+ - * /``, unary minus, ``**`` with nonnegative integer
    exponents, and mixes with plain ``int``/``Fraction`` operands (which are
    coerced).  Mixing scalars from different fields raises
    :class:`FieldMismatchError`.  An element hashes as its canonical value:
    like an equal ``int`` or ``Fraction`` over Q, and like its least
    nonnegative residue over F_p (not every int equal to it mod p).
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value) -> None:
        self.spec = spec
        self.value = value

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    __add__ = __radd__ = _arith(lambda a, b: a.value + b.value)
    __sub__ = _arith(lambda a, b: a.value - b.value)
    __rsub__ = _arith(lambda a, b: b.value - a.value)
    __mul__ = __rmul__ = _arith(lambda a, b: a.value * b.value)
    __truediv__ = _arith(lambda a, b: a.value * b.inv().value)
    __rtruediv__ = _arith(lambda a, b: b.value * a.inv().value)

    def __neg__(self) -> "FieldElement":
        return self.spec.element(-self.value)

    def __pow__(self, exponent: int) -> "FieldElement":
        check_count("exponent", exponent)
        return FieldElement(self.spec, pow(self.value, exponent, self.spec.modulus))

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero:
            raise ZeroDivisionError(f"inverse of zero in {self.spec}")
        return FieldElement(self.spec, pow(self.value, -1, self.spec.modulus))

    def __eq__(self, other) -> bool:
        if not is_scalar(other):
            return NotImplemented
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.value == other.value
        try:
            return self.value == self.spec.scalar(other)
        except ZeroDivisionError:  # a Fraction with no value in F_p
            return False

    def __hash__(self) -> int:
        return hash(self.value)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return scalar_text(self.value.numerator, self.value.denominator)

    def __repr__(self) -> str:
        return f"FieldElement({self.spec}, {self.value})"


def scalar_text(num: int, den: int = 1) -> str:
    """The text of the reduced fraction num/den, den > 0: ``str(num)`` when den
    is 1; SizeLimitError, before any digit is printed, when a part has more
    digits than :func:`~krullkit.errors.digit_limit` allows."""
    if abs(num) < DIGIT_BOUND > den:
        try:
            return str(num) if den == 1 else f"{num}/{den}"
        except ValueError:  # past the interpreter's lower int/str limit
            pass
    raise SizeLimitError(f"a coefficient of more than {digit_limit()} digits cannot be printed")


def enumerate_nonzero(spec: FieldSpec, index: int) -> FieldElement:
    """Return the index-th element of a fixed stream of distinct nonzero scalars.

    Over the rationals the stream is 1, 2, 3, ...; over F_p it is 1, ..., p-1
    and asking for index >= p-1 raises :class:`ExhaustedFieldError`.
    """
    check_count("index", index)
    if spec.modulus is not None and index >= spec.modulus - 1:
        raise ExhaustedFieldError(
            f"{spec} has only {spec.modulus - 1} nonzero elements,"
            f" index {shown(index, '', str)} is out of range"
        )
    return spec.element(index + 1)
