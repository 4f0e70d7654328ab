"""Sparse multivariate polynomials over an exact coefficient field.

A :class:`Polynomial` maps packed monomial keys to nonzero ``int``
numerators over one denominator, tagged with its :class:`RingSpec`.  Over Q
the denominator is the lcm of the coefficients' denominators, so
``gcd(den, *numerators) == 1``; over F_p the numerators are residues in
1..p-1 and the denominator is 1, as it is for the zero polynomial.  A key is
one int, ``[total degree | e1 | ... | en]`` in 64-bit slots (see
:class:`_Codec`), so a monomial product is one int add and graded lex order
is int order.  Keys are built from (j, e) factors only by ``_Codec.key`` and
read back only by ``_Codec.decode``.  Arithmetic works on ints, and every
result outside the checked constructor is built by :func:`_reduced`, the one
builder of the stored form; ``Fraction`` values are built only where scalars
leave as :class:`FieldElement` values.  Equal polynomials have equal stored fields.
No other module reads or builds the stored form; ``terms`` is a decoded view.

A monomial's total degree is at most :data:`MAX_DEGREE`, 2^63 - 1; a
monomial over it raises :class:`SizeLimitError`.

Degrees follow the convention that the zero polynomial has no degree:
``total_degree`` and ``degree_in`` return ``None`` for it and an ``int``
for everything else.

The canonical text form (``str()``) lists terms in graded lexicographic
order, highest first: larger total degree precedes smaller, and within one
degree the vector with the larger leading exponent precedes.  It is exactly
the form the companion parser reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from random import Random
from struct import Struct
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArgumentError, FieldMismatchError, RingMismatchError, SizeLimitError, ZeroPolynomialError,
    shown, shown_ring,
)
from .field import FieldElement, FieldSpec, check_count, is_scalar, scalar_text

_new = object.__new__
MAX_DEGREE = 2**63 - 1
MAX_VARIABLES = 100_000  # the largest count RingSpec.default names
_SLOT = 2**64 - 1


def check_range(name: str, value: int, lo: int, hi: int) -> None:
    """Raise ArgumentError unless value is an int (not a bool) with lo <= value <= hi."""
    if type(value) is not int or not lo <= value <= hi:
        raise ArgumentError(f"{name} must be in {lo}..{hi}, got {shown(value, 'a value', str)}")


def _over_the_degree_limit() -> SizeLimitError:
    return SizeLimitError(f"a monomial's total degree is over {MAX_DEGREE}")


class _Codec:
    """Packed monomial keys in n variables: [total degree | e1 | ... | en].

    Each part fills one 64-bit slot, with the degree on top and e1 the most
    significant below it.  While total degrees stay at most MAX_DEGREE no
    slot carries into the next, so the key of a product is the sum of the
    keys, ``key >> top`` is the exact total degree (of a sum too, which is
    how a product over the limit is caught), and graded lex order, highest
    first, is ``sorted(keys, reverse=True)``.  The key of 1 is 0.  Keys are
    built from (j, e) factors only by :meth:`key` and read only by :meth:`decode`.
    """

    __slots__ = ("top", "over", "shifts", "_unpack", "_size")

    def __init__(self, n: int) -> None:
        self.top = 64 * n
        self.over = MAX_DEGREE + 1 << self.top  # the least key over the limit
        # shifts[j - 1] is the offset of e_j's slot.
        self.shifts = tuple(range(self.top - 64, -1, -64))
        layout = Struct(f">{n + 1}Q")
        self._unpack, self._size = layout.unpack, layout.size

    def key(self, factors: Iterable[tuple[int, int]]) -> int:
        """The key of the product of t_j^e over factors (j, e); unchecked but for the limit."""
        shifts = self.shifts
        key = degree = 0
        for j, e in factors:
            key += e << shifts[j - 1]
            degree += e
        if degree > MAX_DEGREE:
            raise _over_the_degree_limit()
        return degree << self.top | key

    def decode(self, key: int) -> tuple[int, ...]:
        return self._unpack(key.to_bytes(self._size, "big"))[1:]

    def unit(self, j: int) -> int:
        """The key of t_j."""
        return 1 << self.top | 1 << self.shifts[j - 1]

    def mask(self, k: int) -> int:
        """The slots of e_1..e_k: ``key & mask(k)`` is nonzero iff one of t_1..t_k occurs."""
        return (1 << 64 * k) - 1 << self.top - 64 * k

    def __reduce__(self):
        # A ring pickles with its cached codec, whose Struct methods do not.
        return _codec_for, (len(self.shifts),)


@cache
def _codec_for(n: int) -> _Codec:
    return _Codec(n)


@dataclass(frozen=True)
class RingSpec:
    """A polynomial ring: a coefficient field plus ordered variable names.

    Variable names are an ASCII letter and then ASCII letters and digits
    (the parser's ``[A-Za-z][A-Za-z0-9]*``), and are distinct; the
    default names are t1..tn.  Variables are addressed 1-based throughout
    the public API (variable j is ``variables[j - 1]``).
    """

    field: FieldSpec
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.field, FieldSpec):
            raise ArgumentError(f"a ring needs a FieldSpec, got {shown(self.field, 'a value')}")
        if not isinstance(self.variables, tuple):
            got = shown(self.variables, "a value")
            raise ArgumentError(f"variable names must be a tuple, got {got}")
        if not self.variables:
            raise ArgumentError("a ring needs at least one variable")
        for name in self.variables:
            if not (type(name) is str and name.isascii() and name.isalnum()
                    and name[:1].isalpha()):
                raise ArgumentError(f"invalid variable name {shown(name)}")
        if len(set(self.variables)) != len(self.variables):
            raise ArgumentError("variable names must be distinct")

    @classmethod
    def default(cls, field: FieldSpec, nvars: int) -> "RingSpec":
        check_count("variable count", nvars)
        check_range("variable count", nvars, 0, MAX_VARIABLES)  # the constructor refuses 0
        return cls(field, tuple(f"t{j}" for j in range(1, nvars + 1)))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @cached_property
    def _codec(self) -> _Codec:
        # Not a field: equality and hash see only the field and the names.
        return _codec_for(len(self.variables))

    def _factors(self, exps: Sequence[int]) -> list[tuple[int, int]]:
        """exps as (j, e) factors, e > 0; ArgumentError unless n plain ints >= 0 (not bools)."""
        exps = tuple(exps)
        if len(exps) != len(self.variables) or any(type(e) is not int or e < 0 for e in exps):
            raise ArgumentError(f"bad exponent vector {shown(exps)} for {shown_ring(self)}")
        return [(j, e) for j, e in enumerate(exps, 1) if e]

    @cached_property
    def _indices(self) -> dict[str, int]:
        # Not a field either: each name's 1-based index, built once per ring.
        return {name: j for j, name in enumerate(self.variables, 1)}

    def index_of(self, name: str) -> int:
        """1-based index of a variable name; raises KeyError if unknown."""
        return self._indices[name]

    def subring(self, m: int) -> "RingSpec":
        """The ring on the first m variables."""
        check_range("subring size", m, 1, self.nvars)
        return RingSpec(self.field, self.variables[:m])

    def zero(self) -> "Polynomial":
        return _reduced(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        c = self.field.scalar(value)
        return _reduced(self, {0: c.numerator} if c else {}, c.denominator)

    def gen(self, j: int) -> "Polynomial":
        """The variable t_j as a polynomial (j is 1-based)."""
        check_range("variable index", j, 1, self.nvars)
        return _reduced(self, {self._codec.unit(j): 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.gen(j) for j in range(1, self.nvars + 1))

    def dot(self, pairs: Iterable[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
        """The sum of x * y over pairs of polynomials of this ring; unchecked.

        The one product loop: every product of numerators goes unreduced into
        one accumulator over d, the lcm of the pairs' denominators d1 * d2, and
        each output term is reduced once, by ``% p`` or, over Q, by one gcd
        for the whole result.  Over Q the accumulator is stored as it is,
        unless a term cancelled.  The pairs are read once, in order, so they
        may come from a generator.
        """
        p = self.field.modulus
        acc: dict[int, int] = {}
        get = acc.get
        d = 1
        for x, y in pairs:
            left, right = x._keys.items(), list(y._keys.items())
            if not p:
                pair_d = x._den * y._den
                if pair_d != d:
                    d, scale = _common_denominator(acc, d, pair_d)
                    if scale != 1:
                        left = [(e, c * scale) for e, c in left]
            for k1, c1 in left:
                for k2, c2 in right:
                    key = k1 + k2
                    acc[key] = get(key, 0) + c1 * c2
        if acc and max(acc) >= self._codec.over:  # the top slot is the exact degree
            raise _over_the_degree_limit()
        if p:
            return _reduced(self, {e: r for e, c in acc.items() if (r := c % p)})
        if 0 in acc.values():  # a sum of products cancelled
            acc = {e: c for e, c in acc.items() if c}
        return _reduced(self, acc, d)

    def sum_terms(self, items: Iterable) -> "Polynomial":
        """The one merge loop: the sum of polynomials of this ring and of terms
        (factors, c, den), c/den times t_j^e for each (j, e), for an int c and
        an int den > 0 (a residue c and den 1 over F_p); unchecked but for the
        degree limit, zero c too.  Items are read once, in order, as ``dot``'s pairs.
        """
        p = self.field.modulus
        key_of = self._codec.key
        acc: dict[int, int] = {}
        get = acc.get
        d = 1
        for item in items:
            if type(item) is tuple:
                factors, c, den = item
                key = key_of(factors)
                if not c:
                    continue
                if den != d:
                    d, scale = _common_denominator(acc, d, den)
                    c *= scale
                pairs = ((key, c),)
            elif not acc:
                acc.update(item._keys)
                d = item._den
                continue
            else:
                pairs = item._keys.items()
                if item._den != d:
                    d, scale = _common_denominator(acc, d, item._den)
                    if scale != 1:
                        pairs = [(key, c * scale) for key, c in pairs]
            for key, c in pairs:
                prev = get(key)
                if prev is not None:
                    c = (prev + c) % p if p else prev + c
                    if not c:
                        del acc[key]
                        continue
                acc[key] = c
        return _reduced(self, acc, d)

    def __str__(self) -> str:
        return f"{self.field}[{','.join(self.variables)}]"


def _common_denominator(acc: dict, d: int, den: int) -> tuple[int, int]:
    # For numerators acc over d and a summand over den: rescale acc in place
    # to the lcm of d and den and return it with the summand's scale factor.
    if not acc:  # no numerators, so d is free
        return den, 1
    if d % den:
        scale = lcm(d, den) // d
        for key in acc:
            acc[key] *= scale
        d *= scale
    return d, d // den


def _reduced(ring: RingSpec, keys: dict, den: int = 1) -> "Polynomial":
    # The one builder of the stored form outside Polynomial.__init__: wrap
    # nonzero numerators over den > 0 (residues over 1 over F_p), divided by
    # their common factor with den, so that gcd(den, *numerators) == 1.
    # When that factor is 1, keys itself becomes the stored dict, so a caller
    # hands over a dict it no longer uses: over Q, dot's accumulator is
    # stored as it is, unless a term cancelled.
    if den != 1:
        g = gcd(den, *keys.values())
        if g != 1:
            den //= g
            keys = {k: c // g for k, c in keys.items()}
    f = _new(Polynomial)
    f.ring = ring
    f._keys = keys
    f._den = den
    return f


def _power(cache: dict[int, "Polynomial"], e: int) -> "Polynomial":
    # cache[e] for a cache of powers of cache[1], filled in on the way: a
    # missing power is e-1 times the base for odd e and the square of e//2 for
    # even e, so it takes O(log e) products and odd steps use the small base.
    k, missing = e, []
    while k not in cache:
        missing.append(k)
        k = k - 1 if k & 1 else k >> 1
    for k in reversed(missing):
        h = cache[k - 1] if k & 1 else cache[k >> 1]
        cache[k] = h * cache[1] if k & 1 else h * h
    return cache[e]


class Polynomial:
    """A sparse polynomial; ``_keys`` maps packed keys to int numerators over
    the denominator ``_den``, and ``terms`` decodes them to raw scalars.

    The constructor validates exponents (plain nonnegative ints, so not
    bools, of total degree at most MAX_DEGREE), coerces ints, Fractions and
    FieldElements through ``FieldSpec.scalar``, and merges duplicate keys;
    arithmetic builds its results with :func:`_reduced`, unchecked.
    """

    __slots__ = ("ring", "_keys", "_den")

    def __init__(
        self,
        ring: RingSpec,
        terms: Mapping[tuple[int, ...], object] | Sequence[tuple[tuple[int, ...], object]] = (),
    ) -> None:
        factors, scalar = ring._factors, ring.field.scalar
        items = terms.items() if isinstance(terms, Mapping) else terms
        f = ring.sum_terms(
            (factors(exps), (c := scalar(v)).numerator, c.denominator) for exps, v in items
        )
        self.ring, self._keys, self._den = ring, f._keys, f._den

    def _scalar(self, c: int) -> Fraction | int:
        # The raw scalar (FieldSpec.scalar's form) of a stored numerator c.
        return c if self.ring.field.modulus else Fraction(c, self._den)

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction | int]:
        """A new dict from exponent tuples to raw scalars, decoded on each read."""
        decode, scalar = self.ring._codec.decode, self._scalar
        return {decode(k): scalar(c) for k, c in self._keys.items()}

    @property
    def is_zero(self) -> bool:
        return not self._keys

    def coefficient(self, exps: Sequence[int]) -> FieldElement:
        key = self.ring._codec.key(self.ring._factors(exps))
        return self.ring.field.element(self._scalar(self._keys.get(key, 0)))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], FieldElement]]:
        """Terms in canonical order (graded lex, highest first)."""
        spec, decode, keys = self.ring.field, self.ring._codec.decode, self._keys
        return [(decode(k), FieldElement(spec, self._scalar(keys[k])))
                for k in sorted(keys, reverse=True)]

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"cannot combine polynomials over {shown_ring(self.ring)} and "
                    f"{shown_ring(other.ring)}"
                )
            return other
        return self.ring.constant(other) if is_scalar(other) else None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.ring.sum_terms((self, rhs))

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.ring.sum_terms((self, -rhs))

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.ring.dot(((self, rhs),))

    __rmul__ = __mul__

    def __neg__(self) -> "Polynomial":
        p = self.ring.field.modulus
        keys = {k: p - c if p else -c for k, c in self._keys.items()}
        return _reduced(self.ring, keys, self._den)

    def __pow__(self, exponent: int) -> "Polynomial":
        check_count("exponent", exponent)
        return _power({0: self.ring.one(), 1: self}, exponent)

    def __eq__(self, other) -> bool:
        try:
            rhs = self._coerce(other)
        except (RingMismatchError, FieldMismatchError, ZeroDivisionError):
            return False  # another ring, another field's scalar, or no value in F_p
        if rhs is None:
            return NotImplemented
        return self._keys == rhs._keys and self._den == rhs._den

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self._keys)

    def total_degree(self) -> int | None:
        """Total degree, or None for the zero polynomial (degree undefined)."""
        if self.is_zero:
            return None
        return max(self._keys) >> self.ring._codec.top

    def degree_in(self, j: int) -> int | None:
        """Degree in variable j (1-based), or None for the zero polynomial."""
        check_range("variable index", j, 1, self.ring.nvars)
        if self.is_zero:
            return None
        shift = self.ring._codec.shifts[j - 1]
        return max(k >> shift & _SLOT for k in self._keys)

    def occurring_variables(self) -> list[int]:
        """The 1-based indices of the variables some term uses, ascending."""
        # No slot carries, so a slot of the OR is nonzero iff some key's is.
        union = 0
        for key in self._keys:
            union |= key
        return [j for j, e in enumerate(self.ring._codec.decode(union), 1) if e]

    def evaluate(self, point: Sequence) -> FieldElement:
        """Evaluate at a point, one scalar per variable."""
        if len(point) != self.ring.nvars:
            raise ArgumentError(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars} variables"
            )
        spec = self.ring.field
        p = spec.modulus
        values = [spec.scalar(v) for v in point]
        if not p:  # integral coordinates keep the sum in ints
            values = [v.numerator if v.denominator == 1 else v for v in values]
        decode = self.ring._codec.decode
        total = 0
        for key, c in self._keys.items():
            for v, e in zip(values, decode(key)):
                if e:
                    c = c * pow(v, e, p) % p if p else v**e * c
            total += c
        return spec.element(total if p else Fraction(total, self._den))

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Apply the ring map sending variable j to images[j - 1].

        All images must share one target ring over the same field; the result
        lives in that ring.
        """
        if len(images) != self.ring.nvars:
            raise ArgumentError(
                f"got {len(images)} images for {self.ring.nvars} variables"
            )
        target = getattr(images[0], "ring", None)
        for img in images:
            if not isinstance(img, Polynomial) or img.ring != target:
                raise RingMismatchError("all substitution images must share one ring")
        if target.field != self.ring.field:
            raise RingMismatchError(
                f"cannot move coefficients from {self.ring.field} to {target.field}"
            )
        # powers[j] caches images[j]^e by e, shared by all terms.
        powers: list[dict[int, Polynomial]] = [{1: img} for img in images]
        decode = self.ring._codec.decode
        # Term c * t^exps maps to the product of the numerator c, all its
        # powers but the last, and the last power; dot sums those pairs as
        # they come, and the sum is then put over this polynomial's denominator.
        def pairs():
            for key, c in self._keys.items():
                term, last = _reduced(target, {0: c}), None
                for j, e in enumerate(decode(key)):
                    if not e:
                        continue
                    if last is not None:
                        term = term * last
                    last = _power(powers[j], e)
                yield term, target.one() if last is None else last

        f = target.dot(pairs())
        return _reduced(target, f._keys, f._den * self._den)

    def homogeneous_component(self, degree: int) -> "Polynomial":
        """The sum of the terms of exactly the given total degree."""
        check_count("degree", degree)
        top = self.ring._codec.top
        return _reduced(
            self.ring, {k: c for k, c in self._keys.items() if k >> top == degree}, self._den
        )

    def leading_form(self) -> "Polynomial":
        """The top-degree homogeneous component; rejects the zero polynomial."""
        d = self.total_degree()
        if d is None:
            raise ZeroPolynomialError("the zero polynomial has no leading form")
        return self.homogeneous_component(d)

    def is_homogeneous(self) -> bool:
        """True when all terms share one total degree; the zero polynomial counts."""
        top = self.ring._codec.top
        return len({k >> top for k in self._keys}) <= 1

    def split_by_support(self, k: int) -> tuple["Polynomial", "Polynomial"]:
        """Split into (dependent, free) parts relative to the first k variables.

        The dependent part collects every term touching one of variables
        1..k; the free part collects the rest.  Their sum is the original
        polynomial and the split is support-disjoint.  k = 0 makes
        everything free.
        """
        check_range("k", k, 0, self.ring.nvars)
        mask = self.ring._codec.mask(k)
        dependent = {}
        free = {}
        for key, c in self._keys.items():
            if key & mask:
                dependent[key] = c
            else:
                free[key] = c
        return _reduced(self.ring, dependent, self._den), _reduced(self.ring, free, self._den)

    def in_variable_ideal(self, k: int) -> bool:
        """Whether every term touches one of variables 1..k (the split's free part is 0)."""
        check_range("k", k, 0, self.ring.nvars)
        mask = self.ring._codec.mask(k)
        return all(key & mask for key in self._keys)

    def coefficients_in(self, j: int) -> dict[int, "Polynomial"]:
        """Coefficients of the powers of variable j (1-based).

        Maps each exponent e that occurs to the coefficient polynomial of
        t_j^e, which lives in the same ring but is free of variable j.
        """
        check_range("variable index", j, 1, self.ring.nvars)
        codec = self.ring._codec
        shift, unit = codec.shifts[j - 1], codec.unit(j)
        buckets: dict[int, dict[int, int]] = {}
        for key, c in self._keys.items():
            e = key >> shift & _SLOT
            buckets.setdefault(e, {})[key - e * unit] = c
        ring, den = self.ring, self._den
        return {e: _reduced(ring, terms, den) for e, terms in buckets.items()}

    @classmethod
    def from_coefficients_in(cls, ring: RingSpec, j: int, slices: Mapping) -> "Polynomial":
        """The inverse of :meth:`coefficients_in`: the sum of slices[e] * t_j^e.

        Unchecked: every slice lies in ``ring`` and is free of variable j.
        """
        check_range("variable index", j, 1, ring.nvars)
        unit = ring._codec.unit(j)
        den = lcm(*[s._den for s in slices.values()])
        keys = {key + e * unit: c * (den // s._den)
                for e, s in slices.items() for key, c in s._keys.items()}
        return _reduced(ring, keys, den)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], FieldElement]]:
        return iter(self.sorted_terms())

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names, decode = self.ring.variables, self.ring._codec.decode
        keys, den = self._keys, self._den
        pieces: list[str] = []
        for key in sorted(keys, reverse=True):
            value = keys[key]
            negative = value < 0
            magnitude = -value if negative else value
            d = den
            if d != 1:  # the term's reduced fraction magnitude/d
                g = gcd(magnitude, d)
                magnitude //= g
                d //= g
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, decode(key))
                if e
            ]
            if not factors:
                body = scalar_text(magnitude, d)
            elif magnitude == 1 and d == 1:
                body = "*".join(factors)
            else:
                body = "*".join([scalar_text(magnitude, d), *factors])
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"<Polynomial {self} over {self.ring}>"


def embed(f: Polynomial, target: RingSpec) -> Polynomial:
    """Reinterpret f in a ring that extends its ring by appended variables."""
    n = f.ring.nvars
    if (
        target.field != f.ring.field
        or target.nvars < n
        or target.variables[:n] != f.ring.variables
    ):
        raise RingMismatchError(f"{shown_ring(target)} does not extend {shown_ring(f.ring)}")
    # The appended variables take the low slots; every part moves up by them.
    shift = target._codec.top - f.ring._codec.top
    return _reduced(target, {k << shift: c for k, c in f._keys.items()}, f._den)


# Over Q a random scalar is a/b with |a| <= 9 and 1 <= b <= 9, drawn as a
# numerator over their common denominator, the lcm of 1..9.
_RANDOM_DEN = 2520


def _randbelow(bits, n: int, k: int) -> int:
    # rng.randrange(n) by CPython's rejection loop, for bits = rng.getrandbits
    # and k = n.bit_length(): one frame per draw where randint takes three.
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_raw(bits, p: int | None, k: int | None) -> int:
    # The numerator behind random_scalar, over _RANDOM_DEN over Q; may be zero.
    # k is p's bit length; over Q, randint(-9, 9) then randint(1, 9).
    if p:
        return _randbelow(bits, p, k)
    return (_randbelow(bits, 19, 5) - 9) * (_RANDOM_DEN // (_randbelow(bits, 9, 4) + 1))


def random_scalar(rng: Random, field: FieldSpec) -> FieldElement:
    """A small random scalar; may be zero."""
    p = field.modulus
    c = _random_raw(rng.getrandbits, p, p and p.bit_length())
    return field.element(c if p else Fraction(c, _RANDOM_DEN))


def _draw_shape(ring: RingSpec, max_degree: int, max_terms: int) -> tuple:
    # The constants every draw reads: n, the key layout, p, and each range's
    # size with its bit length.  Computed once per caller, not once per draw.
    n, codec, p = ring.nvars, ring._codec, ring.field.modulus
    terms, degrees = max_terms + 1, max_degree + 1
    return (n, n.bit_length(), codec.top, codec.shifts, p, p and p.bit_length(),
            terms, terms.bit_length(), degrees, degrees.bit_length())


def _draw(bits, ring: RingSpec, shape: tuple) -> Polynomial:
    # One draw of random_polynomial, through bits = rng.getrandbits.  Its own
    # merge loop: through sum_terms it was x1.21-1.23 slower per call at n = 3-20.
    n, kn, top, shifts, p, kp, terms, kt, degrees, kd = shape
    pairs = []
    for _ in range(_randbelow(bits, terms, kt)):
        degree = _randbelow(bits, degrees, kd)
        key = degree << top
        for _ in range(degree):  # one unit in the slot of a random variable
            key += 1 << shifts[_randbelow(bits, n, kn)]
        c = _random_raw(bits, p, kp)
        if c:
            pairs.append((key, c))
    # Over Q the numerators are over _RANDOM_DEN: their common factor g is
    # divided out before the merge, so _reduced rebuilds nothing unless a
    # merged sum leaves one.
    g = 1 if p else gcd(_RANDOM_DEN, *[c for _, c in pairs])
    acc: dict[int, int] = {}
    setdefault = acc.setdefault
    for key, c in pairs:  # one hash per key unless it repeats
        c //= g
        size = len(acc)
        prev = setdefault(key, c)
        if len(acc) == size:  # a repeated key merges as sum_terms does, storing no zero
            c = (prev + c) % p if p else prev + c
            if c:
                acc[key] = c
            else:
                del acc[key]
    return _reduced(ring, acc, 1 if p else _RANDOM_DEN // g)


def _times_variable(f: Polynomial, j: int) -> Polynomial:
    # f * t_j, t_j's key added to each key.  Like embed, unchecked for the
    # degree limit: its one caller multiplies draws of degree at most 4.
    unit = f.ring._codec.unit(j)
    return _reduced(f.ring, {key + unit: c for key, c in f._keys.items()}, f._den)


def random_polynomial(
    rng: Random,
    ring: RingSpec,
    *,
    max_degree: int = 5,
    max_terms: int = 4,
    nonzero: bool = False,
) -> Polynomial:
    """A random sparse polynomial with small coefficients, for test sampling; its
    draws follow ``random.Random``'s randrange/randint stream, taken through
    ``rng.getrandbits``, so a subclass that overrides ``getrandbits`` changes them.
    Each draw is up to ``max_terms`` terms of degree up to ``max_degree``, with
    repeated monomials summed; ``nonzero`` draws again until one is nonzero."""
    if max_terms < nonzero or max_degree < 0:  # an empty range: no draw would end
        raise ArgumentError(f"max_terms must be at least {int(nonzero)} and max_degree at least 0")
    bits, shape = rng.getrandbits, _draw_shape(ring, max_degree, max_terms)
    while True:
        f = _draw(bits, ring, shape)
        if not (nonzero and f.is_zero):
            return f
