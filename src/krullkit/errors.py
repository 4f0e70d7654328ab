"""Exception types shared across the toolkit.

Every domain error carries a stable ``identifier`` string, which the command
line interface uses when printing errors, so scripted callers can match on it
without depending on Python class names, and the ``exit_code`` the command line
exits with: 1, or 2 for argument and parse errors.  :func:`shown` names every
value an error message names, :func:`shown_ring` every ring it names, and
:func:`digit_limit` is the one digit rule for every number read or printed:
:data:`MAX_LITERAL_DIGITS`, or the interpreter's lower int/str limit, so
raising or disabling that limit changes no answer.
"""

from __future__ import annotations

import sys
from fractions import Fraction

MAX_LITERAL_DIGITS = 4300  # CPython's default int/str limit, and the most krullkit allows
DIGIT_BOUND = 10**MAX_LITERAL_DIGITS  # the least int of more digits


def digit_limit() -> int:
    """The most digits a number read or printed may have, read now:
    :data:`MAX_LITERAL_DIGITS`, or the interpreter's lower int/str limit."""
    read = getattr(sys, "get_int_max_str_digits", None)
    return min(MAX_LITERAL_DIGITS, (read() if read else 0) or MAX_LITERAL_DIGITS)


def shown(value, noun: str = "", quote=repr) -> str:
    """``quote(value)`` when ``str(value)`` has at most 10 characters and the
    quoted form at most 12; else its length, "<noun> of N characters", or "<noun>
    of more than N digits" when it holds an int or Fraction too long to print."""
    parts = value if type(value) is tuple else (value,)
    try:
        if any(not -DIGIT_BOUND < n < DIGIT_BOUND for v in parts if isinstance(v, (int, Fraction))
               for n in (v.numerator, v.denominator)):  # an int is its own numerator, over 1
            raise SizeLimitError  # past the digit rule whatever the interpreter's limit
        text = str(value)
    except (ValueError, SizeLimitError):  # an int past the digit limit
        return f"{noun} of more than {digit_limit()} digits".lstrip()
    if len(text) <= 10 and len(quoted := quote(value)) <= 12:
        return quoted
    return f"{noun} of {len(text)} characters".lstrip()


def shown_ring(ring) -> str:
    """``str(ring)`` when it has at most 40 characters, else
    "<field> ring of <n> variables"."""
    text = str(ring)
    return text if len(text) <= 40 else f"{ring.field} ring of {ring.nvars} variables"


class KrullkitError(Exception):
    """Base class for all domain errors raised by this package."""

    identifier = "Error"
    exit_code = 1


class ArgumentError(KrullkitError, ValueError):
    """A bad argument or option value: a count or index out of range, a bad name."""

    identifier = "InvalidArgument"
    exit_code = 2


class FieldMismatchError(KrullkitError):
    """Two scalars from different fields were combined."""

    identifier = "FieldMismatch"


class RingMismatchError(KrullkitError):
    """Two polynomials from different rings were combined."""

    identifier = "RingMismatch"


class ExhaustedFieldError(KrullkitError):
    """A nonzero-element enumeration ran past the end of a finite field."""

    identifier = "Exhausted"


class FieldTooSmallError(KrullkitError):
    """A point search needed more distinct nonzero scalars than the field has."""

    identifier = "FieldTooSmall"


class ZeroPolynomialError(KrullkitError):
    """The zero polynomial was passed where a nonzero one is required."""

    identifier = "ZeroPolynomial"


class NotHomogeneousError(KrullkitError):
    """An inhomogeneous polynomial was passed where a form is required."""

    identifier = "NotHomogeneous"


class PreconditionViolatedError(KrullkitError):
    """An input broke a documented precondition of the operation."""

    identifier = "PreconditionViolated"


class NotMonicError(KrullkitError):
    """A generator was not monic in the last variable."""

    identifier = "NotMonic"


class ZeroCosetError(KrullkitError):
    """The element reduces to zero modulo the generator."""

    identifier = "ZeroCoset"


class DegenerateCharPolyError(KrullkitError):
    """The characteristic polynomial yields no usable constant witness."""

    identifier = "DegenerateCharPoly"


class SelfCheckError(KrullkitError, RuntimeError):
    """A computed result failed the check that certifies it."""

    identifier = "SelfCheckFailed"


class SizeLimitError(KrullkitError):
    """A result is over a size limit: a monomial's total degree over 2^63 - 1,
    or a coefficient of more digits than :func:`digit_limit` allows."""

    identifier = "SizeLimit"
