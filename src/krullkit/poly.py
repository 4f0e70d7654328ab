"""Sparse multivariate polynomials over an exact coefficient field.

A :class:`Polynomial` is a dict from exponent vectors to nonzero raw
scalars (a ``Fraction`` over Q, an ``int`` in 1..p-1 over F_p), tagged with
its :class:`RingSpec`.  Arithmetic works on the raw scalars and builds its
results with the unchecked :meth:`Polynomial._make`; scalars cross the API
as :class:`FieldElement` values.  Every operation returns a new polynomial
with zero coefficients dropped, so equal polynomials have equal term dicts.
No other module reads or builds a term dict; ``terms`` is a view for tests.

Degrees follow the convention that the zero polynomial has no degree:
``total_degree`` and ``degree_in`` return ``None`` for it and an ``int``
for everything else.

The canonical text form (``str()``) lists terms in graded lexicographic
order, highest first: larger total degree precedes smaller, and within one
degree the vector with the larger leading exponent precedes.  It is exactly
the form the companion parser reads back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import RingMismatchError, ZeroPolynomialError
from .field import FieldElement, FieldSpec, is_scalar

_VAR_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_new = object.__new__


def check_range(name: str, value: int, lo: int, hi: int) -> None:
    """Raise ValueError unless value is an int (not a bool) with lo <= value <= hi."""
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}, got {value}")


@dataclass(frozen=True)
class RingSpec:
    """A polynomial ring: a coefficient field plus ordered variable names.

    Variable names match ``[A-Za-z][A-Za-z0-9]*`` and are distinct; the
    default names are t1..tn.  Variables are addressed 1-based throughout
    the public API (variable j is ``variables[j - 1]``).
    """

    field: FieldSpec
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("a ring needs at least one variable")
        for name in self.variables:
            if not _VAR_NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")

    @classmethod
    def default(cls, field: FieldSpec, nvars: int) -> "RingSpec":
        if nvars < 1:
            raise ValueError("need at least one variable")
        return cls(field, tuple(f"t{j}" for j in range(1, nvars + 1)))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index_of(self, name: str) -> int:
        """1-based index of a variable name; raises KeyError if unknown."""
        try:
            return self.variables.index(name) + 1
        except ValueError:
            raise KeyError(name) from None

    def subring(self, m: int) -> "RingSpec":
        """The ring on the first m variables."""
        check_range("subring size", m, 1, self.nvars)
        return RingSpec(self.field, self.variables[:m])

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        return self.monomial((0,) * self.nvars, self.field.scalar(value))

    def gen(self, j: int) -> "Polynomial":
        """The variable t_j as a polynomial (j is 1-based)."""
        check_range("variable index", j, 1, self.nvars)
        exps = (0,) * (j - 1) + (1,) + (0,) * (self.nvars - j)
        return self.monomial(exps, self.field.scalar(1))

    def monomial(self, exps: tuple[int, ...], c: Fraction | int) -> "Polynomial":
        """The term c * t^exps for a raw scalar c (as FieldSpec.scalar gives); unchecked."""
        return Polynomial._make(self, {exps: c} if c else {})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.gen(j) for j in range(1, self.nvars + 1))

    def dot(self, pairs: Iterable[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
        """The sum of x * y over pairs of polynomials of this ring; unchecked.

        The one product loop: every product goes unreduced into one
        accumulator, and each output term is reduced once, by ``% p`` or by
        one ``Fraction`` over d, the lcm of the pairs' denominators d1 * d2.
        The pairs are read once, in order, so they may come from a generator.
        """
        p = self.field.modulus
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        d = 1
        for x, y in pairs:
            if p:
                left, right = x.terms.items(), list(y.terms.items())
            else:
                d1, left = _numerators(x.terms)
                d2, right = _numerators(y.terms)
                pair_d = d1 * d2
                if not acc:  # acc holds numerators over d; it is empty, so d is free
                    d = pair_d
                elif d % pair_d:
                    scale = lcm(d, pair_d) // d
                    for key in acc:
                        acc[key] *= scale
                    d *= scale
                if pair_d != d:
                    left = [(e, c * (d // pair_d)) for e, c in left]
            for e1, c1 in left:
                for e2, c2 in right:
                    key = tuple(map(add, e1, e2))
                    acc[key] = get(key, 0) + c1 * c2
        if p:
            return Polynomial._make(self, {e: r for e, c in acc.items() if (r := c % p)})
        return Polynomial._make(self, {e: Fraction(c, d) for e, c in acc.items() if c})

    def __str__(self) -> str:
        return f"{self.field}[{','.join(self.variables)}]"


def _numerators(terms: dict) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    # (D, [(exps, c * D)]) for Fraction terms, D the lcm of their denominators.
    d = lcm(*[c.denominator for c in terms.values()])
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()]


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


def _graded(item: tuple[tuple[int, ...], object]) -> tuple:
    # Graded lex sort key of a term; sort with reverse=True for highest first.
    return (sum(item[0]), item[0])


class Polynomial:
    """A sparse polynomial; ``terms`` maps exponent tuples to raw scalars.

    The constructor validates exponents (plain nonnegative ints, so not
    bools), coerces ints, Fractions and FieldElements to raw scalars, and
    merges duplicate keys.
    """

    __slots__ = ("ring", "terms")

    def __init__(
        self,
        ring: RingSpec,
        terms: Mapping[tuple[int, ...], object] | Sequence[tuple[tuple[int, ...], object]] = (),
    ) -> None:
        self.ring = ring
        n = ring.nvars
        scalar = ring.field.scalar
        acc: dict[tuple[int, ...], Fraction | int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n or any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for {ring}")
            acc[exps] = scalar(acc.get(exps, 0) + scalar(coeff))
        self.terms = {e: c for e, c in acc.items() if c}

    @staticmethod
    def _make(ring: RingSpec, terms: dict) -> "Polynomial":
        """Wrap a term dict that is already canonical, without checking it."""
        f = _new(Polynomial)
        f.ring = ring
        f.terms = terms
        return f

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> FieldElement:
        return self.ring.field.element(self.terms.get(tuple(exps), 0))

    def _sorted_raw(self) -> list[tuple[tuple[int, ...], Fraction | int]]:
        return sorted(self.terms.items(), key=_graded, reverse=True)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], FieldElement]]:
        """Terms in canonical order (graded lex, highest first)."""
        spec = self.ring.field
        return [(e, FieldElement(spec, c)) for e, c in self._sorted_raw()]

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"cannot combine polynomials over {self.ring} and {other.ring}"
                )
            return other
        return self.ring.constant(other) if is_scalar(other) else None

    def _plus(self, *others: "Polynomial") -> "Polynomial":
        # Add polynomials of the same ring, in one pass.
        p = self.ring.field.modulus
        acc = dict(self.terms)
        for other in others:
            for exps, c in other.terms.items():
                prev = acc.get(exps)
                if prev is not None:
                    c = (prev + c) % p if p else prev + c
                    if not c:
                        del acc[exps]
                        continue
                acc[exps] = c
        return Polynomial._make(self.ring, acc)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(-rhs)

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
        return Polynomial._make(
            self.ring, {e: p - c if p else -c for e, c in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "Polynomial":
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {exponent!r}")
        return _power({0: self.ring.one(), 1: self}, exponent)

    def __eq__(self, other) -> bool:
        if is_scalar(other):
            try:
                other = self.ring.constant(other)
            except ZeroDivisionError:  # a Fraction with no value in F_p
                return False
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    def __bool__(self) -> bool:
        return not self.is_zero

    def total_degree(self) -> int | None:
        """Total degree, or None for the zero polynomial (degree undefined)."""
        if self.is_zero:
            return None
        return max(sum(e) for e in self.terms)

    def degree_in(self, j: int) -> int | None:
        """Degree in variable j (1-based), or None for the zero polynomial."""
        check_range("variable index", j, 1, self.ring.nvars)
        if self.is_zero:
            return None
        return max(e[j - 1] for e in self.terms)

    def evaluate(self, point: Sequence) -> FieldElement:
        """Evaluate at a point, one scalar per variable."""
        if len(point) != self.ring.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars} variables"
            )
        spec = self.ring.field
        p = spec.modulus
        values = [spec.scalar(v) for v in point]
        total = 0
        for exps, c in self.terms.items():
            for v, e in zip(values, exps):
                if e:
                    c = c * pow(v, e, p) % p if p else c * v**e
            total += c
        return spec.element(total)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Apply the ring map sending variable j to images[j - 1].

        All images must share one target ring over the same field; the result
        lives in that ring.
        """
        if len(images) != self.ring.nvars:
            raise ValueError(
                f"got {len(images)} images for {self.ring.nvars} variables"
            )
        if not images:
            raise ValueError("no images")
        target = images[0].ring
        for img in images:
            if not isinstance(img, Polynomial) or img.ring != target:
                raise RingMismatchError("all substitution images must share one ring")
        if target.field != self.ring.field:
            raise RingMismatchError(
                f"cannot move coefficients from {self.ring.field} to {target.field}"
            )
        # powers[j] caches images[j]^e by e, shared by all terms.
        powers: list[dict[int, Polynomial]] = [{1: img} for img in images]
        one = (0,) * target.nvars
        # Term c * t^exps maps to the product of c, all its powers but the
        # last, and the last power; dot sums those pairs as they come.
        def pairs():
            for exps, c in self.terms.items():
                term, last = target.monomial(one, c), None
                for j, e in enumerate(exps):
                    if not e:
                        continue
                    if last is not None:
                        term = term * last
                    last = _power(powers[j], e)
                yield term, target.one() if last is None else last

        return target.dot(pairs())

    def homogeneous_component(self, degree: int) -> "Polynomial":
        """The sum of the terms of exactly the given total degree."""
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        return Polynomial._make(
            self.ring, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def leading_form(self) -> "Polynomial":
        """The top-degree homogeneous component; rejects the zero polynomial."""
        d = self.total_degree()
        if d is None:
            raise ZeroPolynomialError("the zero polynomial has no leading form")
        return self.homogeneous_component(d)

    def is_homogeneous(self) -> bool:
        """True when all terms share one total degree; the zero polynomial counts."""
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def split_by_support(self, k: int) -> tuple["Polynomial", "Polynomial"]:
        """Split into (dependent, free) parts relative to the first k variables.

        The dependent part collects every term touching one of variables
        1..k; the free part collects the rest.  Their sum is the original
        polynomial and the split is support-disjoint.  k = 0 makes
        everything free.
        """
        check_range("k", k, 0, self.ring.nvars)
        dependent = {}
        free = {}
        for exps, c in self.terms.items():
            if any(exps[:k]):
                dependent[exps] = c
            else:
                free[exps] = c
        return Polynomial._make(self.ring, dependent), Polynomial._make(self.ring, free)

    def in_variable_ideal(self, k: int) -> bool:
        """Whether every term touches one of variables 1..k (the split's free part is 0)."""
        check_range("k", k, 0, self.ring.nvars)
        return all(any(exps[:k]) for exps in self.terms)

    def coefficients_in(self, j: int) -> dict[int, "Polynomial"]:
        """Coefficients of the powers of variable j (1-based).

        Maps each exponent e that occurs to the coefficient polynomial of
        t_j^e, which lives in the same ring but is free of variable j.
        """
        check_range("variable index", j, 1, self.ring.nvars)
        buckets: dict[int, dict[tuple[int, ...], Fraction | int]] = {}
        i = j - 1
        for exps, c in self.terms.items():
            e = exps[i]
            stripped = exps[:i] + (0,) + exps[i + 1 :]
            buckets.setdefault(e, {})[stripped] = c
        return {e: Polynomial._make(self.ring, terms) for e, terms in buckets.items()}

    @classmethod
    def from_coefficients_in(cls, ring: RingSpec, j: int, slices: Mapping) -> "Polynomial":
        """The inverse of :meth:`coefficients_in`: the sum of slices[e] * t_j^e.

        Unchecked: every slice lies in ``ring`` and is free of variable j.
        """
        check_range("variable index", j, 1, ring.nvars)
        i = j - 1
        terms = {
            exps[:i] + (e,) + exps[i + 1 :]: c
            for e, s in slices.items()
            for exps, c in s.terms.items()
        }
        return cls._make(ring, terms)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], FieldElement]]:
        return iter(self.sorted_terms())

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names = self.ring.variables
        pieces: list[str] = []
        for idx, (exps, value) in enumerate(self._sorted_raw()):
            negative = value < 0
            magnitude = -value if negative else value
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            ]
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude), *factors])
            if idx == 0:
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
        raise RingMismatchError(f"{target} does not extend {f.ring}")
    pad = (0,) * (target.nvars - n)
    return Polynomial._make(target, {exps + pad: c for exps, c in f.terms.items()})


def _random_raw(rng: Random, field: FieldSpec) -> Fraction | int:
    # The raw canonical value behind random_scalar; may be zero.
    if field.modulus:
        return rng.randrange(field.modulus)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_scalar(rng: Random, field: FieldSpec) -> FieldElement:
    """A small random scalar; may be zero."""
    return field.element(_random_raw(rng, field))


def random_polynomial(
    rng: Random,
    ring: RingSpec,
    *,
    max_degree: int = 5,
    max_terms: int = 4,
    nonzero: bool = False,
) -> Polynomial:
    """A random sparse polynomial with small coefficients, for test sampling."""
    n = ring.nvars
    field = ring.field
    p = field.modulus
    while True:
        # Duplicate exponent vectors merge as in Polynomial.__init__.
        acc: dict[tuple[int, ...], Fraction | int] = {}
        for _ in range(rng.randint(0, max_terms)):
            exps = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(n)] += 1
            key = tuple(exps)
            c = acc.get(key, 0) + _random_raw(rng, field)
            acc[key] = c % p if p else c
        f = Polynomial._make(ring, {e: c for e, c in acc.items() if c})
        if not (nonzero and f.is_zero):
            return f
