"""Integral extensions presented by a generator monic in the last variable.

Write R for the full polynomial ring, R' for the subring of polynomials
free of the last variable t_n, and g for a generator monic in t_n of
degree d >= 1.  Division by g is exact and unique, the quotient R/<g> is a
free R'-module on the cosets of 1, t_n, ..., t_n^(d-1), and multiplication
by any coset is an R'-linear action on that basis.  The characteristic
polynomial of the action is a monic integral dependence for the coset
(Cayley-Hamilton), and stripping its trailing zero roots produces, when the
quotient cooperates, a nonzero constant witness c0 in R' together with a
cofactor w such that f * w = c0 modulo g.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArgumentError,
    DegenerateCharPolyError,
    NotMonicError,
    PreconditionViolatedError,
    RingMismatchError,
    ZeroCosetError,
    shown,
    shown_ring,
)
from .field import check_count
from .poly import Polynomial, RingSpec


class MonicGenerator:
    """A polynomial monic in the last variable, of positive degree there.

    Exposes the degree d, the tail c_0..c_(d-1), free of t_n, and the relation
    -c_0..-c_(d-1): t_n^d's coordinates modulo g, as ``power_reduce`` reads them.
    """

    __slots__ = ("polynomial", "degree", "coefficients", "relation")

    def __init__(self, polynomial: Polynomial) -> None:
        ring = polynomial.ring
        n = ring.nvars
        slices = polynomial.coefficients_in(n)
        d = max(slices, default=0)
        if d < 1 or slices[d] != ring.one():
            last = shown(ring.variables[-1], "a variable", str)
            if d < 1:
                raise NotMonicError(f"generator must have positive degree in {last}")
            raise NotMonicError(
                f"leading coefficient in {last} is {shown(slices[d], 'a polynomial', str)}, not 1"
            )
        self.polynomial = polynomial
        self.degree = d
        self.coefficients = tuple(slices.get(i, ring.zero()) for i in range(d))
        self.relation = tuple(-c for c in self.coefficients)

    @property
    def ring(self) -> RingSpec:
        return self.polynomial.ring

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonicGenerator):
            return NotImplemented
        return self.polynomial == other.polynomial

    __hash__ = None

    def __repr__(self) -> str:
        return f"MonicGenerator({self.polynomial!r})"


def _generator(g: "Polynomial | MonicGenerator", ring: RingSpec) -> MonicGenerator:
    gen = g if isinstance(g, MonicGenerator) else MonicGenerator(g)
    if ring != gen.ring:
        raise RingMismatchError(f"{shown_ring(ring)} is not {shown_ring(gen.ring)}")
    return gen


def _divide(f: Polynomial, gen: MonicGenerator) -> tuple[dict, list]:
    # q's t_n-slices and r's d coordinates, zero-filled, for f = q * g + r.  Each step
    # moves the top slice c of f into q and owes the slices below c times the relation;
    # a slice is settled, its own terms plus one sum of what it is owed, once.
    d = gen.degree
    ring = f.ring
    zero = ring.zero()
    slices = f.coefficients_in(ring.nvars)
    pending: dict[int, list] = {}  # slice -> the (c, b) pairs it is owed
    quotient = {}
    for e in range(max(slices, default=0), d - 1, -1):
        c = slices.pop(e, zero)
        if e in pending:
            c = c + ring.dot(pending.pop(e))
        if not c:
            continue
        quotient[e - d] = c
        for j, b in enumerate(gen.relation):
            if b:
                pending.setdefault(e - d + j, []).append((c, b))
    for e, pairs in pending.items():
        slices[e] = slices.get(e, zero) + ring.dot(pairs)
    return quotient, [slices.get(j, zero) for j in range(d)]


def divide_monic(
    f: Polynomial, g: "Polynomial | MonicGenerator"
) -> tuple[Polynomial, Polynomial]:
    """Divide by a monic-in-t_n generator: f = q * g + r with deg_tn r < d.

    Because the divisor is monic in t_n, the division needs no field
    inverses beyond the coefficients already present, and the (q, r) pair
    is unique.
    """
    quotient, r = _divide(f, _generator(g, f.ring))
    join = Polynomial.from_coefficients_in
    return join(f.ring, f.ring.nvars, quotient), join(f.ring, f.ring.nvars, dict(enumerate(r)))


def reduce_mod(f: Polynomial, g: "Polynomial | MonicGenerator") -> Polynomial:
    """The remainder of f modulo a monic-in-t_n generator."""
    r = _divide(f, _generator(g, f.ring))[1]
    return Polynomial.from_coefficients_in(f.ring, f.ring.nvars, dict(enumerate(r)))


def principal_member(f: Polynomial, g: "Polynomial | MonicGenerator") -> bool:
    """Whether f lies in the principal ideal of a monic-in-t_n generator."""
    return not any(_divide(f, _generator(g, f.ring))[1])


def subring_intersection_trivial(
    candidate: Polynomial, g: "Polynomial | MonicGenerator"
) -> bool:
    """Whether a last-variable-free candidate avoids the generator's ideal.

    The candidate must be free of t_n (that is the subring R'); a nonzero
    remainder of t_n-degree below d cannot be a multiple of g, so for
    nonzero candidates this is always True and the check is a direct
    certificate that R' meets the ideal only in zero.
    """
    gen = _generator(g, candidate.ring)
    n = candidate.ring.nvars
    if not candidate.is_zero and candidate.degree_in(n) != 0:
        last = shown(candidate.ring.variables[-1], "a variable", str)
        raise PreconditionViolatedError(f"candidate must be free of {last}")
    return candidate.is_zero or not principal_member(candidate, gen)


@dataclass(frozen=True)
class QuotientElement:
    """A residue class modulo a monic generator, held by its remainder."""

    generator: MonicGenerator
    residue: Polynomial

    def __str__(self) -> str:
        return str(self.residue)


def coset(f: Polynomial, g: "Polynomial | MonicGenerator") -> QuotientElement:
    gen = _generator(g, f.ring)
    return QuotientElement(gen, reduce_mod(f, gen))


def coset_action_matrix(
    f: Polynomial, g: "Polynomial | MonicGenerator"
) -> list[list[Polynomial]]:
    """The matrix of multiplication by f on the basis 1, t_n, ..., t_n^(d-1).

    Row i lists the coordinates of f * t_n^i reduced modulo g; every entry
    is free of t_n.  The rows are ``_action``'s: f's coordinates times the
    powers of t_n, a root of the generator's relation.
    """
    gen = _generator(g, f.ring)
    return _action(_divide(f, gen)[1], gen.relation, gen.degree)


def _action(r, relation, count):
    # The rows r, r a, ..., r a^(count-1) for a root a of a^d = sum(c_j a^j): each
    # shifts the one before up a place and substitutes for a^d, r'_0 = r_(d-1) c_0,
    # r'_j = r_(j-1) + r_(d-1) c_j, skipping zero factors (rows and tails are sparse).
    rows = [r]
    for _ in range(count - 1):
        top = r[-1]
        if top:
            r = [top * relation[0], *(x + top * c if c else x for x, c in zip(r, relation[1:]))]
        else:
            r = [top, *r[:-1]]
        rows.append(r)
    return rows


def _dot(pairs, zero):
    # Sum of the products of pairs listed without zero factors, by RingSpec.dot
    # for polynomial entries.
    if pairs and isinstance(zero, Polynomial):
        return zero.ring.dot(pairs)
    return sum((x * y for x, y in pairs), zero)


def characteristic_polynomial(matrix) -> list:
    """Coefficients of det(t*I - M), lowest degree first, length d + 1.

    Computed by Berkowitz's division-free algorithm, so the entries may come
    from any commutative ring (ints, field scalars or polynomials, all of one
    type, with zero M[0][0] - M[0][0]), and the coefficients are of that type.
    Border the leading r x r block A by the column C above and the row R left
    of the new diagonal entry a; the characteristic polynomial of the grown
    block is the lower triangular Toeplitz matrix with first column
    (1, -a, -R C, -R A C, ..., -R A^(r-1) C) applied to that of A: O(d^4) ring
    operations on a dense matrix.  Each border step tests each entry for zero
    once, and its products read only the nonzero ones.
    """
    d = len(matrix)
    if d == 0 or any(len(row) != d for row in matrix):
        raise ArgumentError("matrix must be square and nonempty")
    zero = matrix[0][0] - matrix[0][0]
    # p and q hold the coefficients below the leading 1, highest degree first.
    p = [-matrix[0][0]]
    for r in range(1, d):
        # cols[j]: column j's nonzero (i, M[i][j]) above row r; w: R, ..., R A^(r-1).
        cols = [[(i, row[j]) for i, row in enumerate(matrix[:r]) if row[j]] for j in range(r + 1)]
        w = matrix[r][:r]
        q = [-matrix[r][r], -_dot([(w[i], m) for i, m in cols[r] if w[i]], zero)]
        for _ in range(r - 1):
            w = [_dot([(w[i], m) for i, m in col if w[i]], zero) for col in cols[:r]]
            q.append(-_dot([(w[i], m) for i, m in cols[r] if w[i]], zero))
        p.append(zero)
        p = [q[k] + p[k] + _dot([(x, y) for x, y in zip(reversed(q[:k]), p) if x and y], zero)
             for k in range(r + 1)]
    return [*p[::-1], zero + 1]


@dataclass(frozen=True)
class IntegralityWitness:
    """A monic dependence for an element: sum(coefficients[i] * x^i) = 0.

    ``coefficients`` run from the constant term up and the top one is 1, so
    the witness certifies the element is integral over the coefficients'
    ring.
    """

    coefficients: tuple
    element: object

    def to_json_dict(self) -> dict:
        return {
            "char_poly": [str(c) for c in self.coefficients],
            "element": str(self.element),
            "check": "zero",
        }

    def annihilates_modulo(self, g: "Polynomial | MonicGenerator") -> bool:
        """Evaluate the dependence at the element, modulo g; True means zero."""
        if not isinstance(self.element, Polynomial):
            raise TypeError("annihilation check needs a polynomial element")
        return _horner(self.coefficients, self.element, _generator(g, self.element.ring)).is_zero


def _horner(coefficients, x: Polynomial, gen: MonicGenerator) -> Polynomial:
    # sum(coefficients[i] * x^i) modulo g by Horner's rule, reduced at every step.
    acc = x.ring.zero()
    for c in reversed(coefficients):
        acc = reduce_mod(acc * x + c, gen)
    return acc


def integrality_witness_from_action(matrix, element) -> IntegralityWitness:
    """Cayley-Hamilton: the action matrix's characteristic polynomial, of the
    entries' type, kills the element, so it is a monic integral dependence."""
    return IntegralityWitness(tuple(characteristic_polynomial(matrix)), element)


def coset_integrality_witness(
    f: Polynomial, g: "Polynomial | MonicGenerator"
) -> IntegralityWitness:
    """The integral dependence of f's coset via its multiplication action."""
    return integrality_witness_from_action(coset_action_matrix(f, g), f)


@dataclass(frozen=True)
class ReductionCoefficients:
    """Coordinates of one element in the basis 1, a, ..., a^(d-1) of R[a]."""

    coefficients: tuple

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ArgumentError("need at least one coefficient")

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def power_reduce(
    relation: ReductionCoefficients, i: int, *, zero=None, one=None
) -> ReductionCoefficients:
    """Coordinates of a^i, given the coordinates of a^d as the relation.

    ``relation`` holds the d coordinates c_0..c_(d-1) expressing a^d in the
    basis 1, ..., a^(d-1) (for a monic dependence these are the negated
    lower coefficients), all of one type, with zero c_0 - c_0 unless
    ``zero`` and ``one`` are given; the result is of that type.
    Square-and-multiply over the bits of i takes O(d^2 log i) ring
    operations: r^2 = sum(r_j * r a^j), so each bit reads the rows of
    ``_action`` from r, and a set bit reads them one power higher.
    """
    check_count("power", i)
    c = relation.coefficients
    d = len(c)
    zero = c[0] - c[0] if zero is None else zero
    one = zero + 1 if one is None else one
    r = [one] + [zero] * (d - 1)
    for bit in map(int, bin(i)[2:]):
        rows = _action(r, c, d + bit)[bit:]
        r = [_dot([(x, v[k]) for x, v in zip(r, rows) if x and v[k]], zero) for k in range(d)]
    return ReductionCoefficients(tuple(r))


def contraction_witness(
    f: Polynomial, g: "Polynomial | MonicGenerator"
) -> tuple[Polynomial, QuotientElement]:
    """A nonzero last-variable-free constant hit by multiples of f modulo g.

    Strips the trailing zero roots from the characteristic polynomial of
    f's coset action: p(t) = t^e * q(t) with q(0) nonzero.  The constant is
    c0 = q(0), the cofactor w is built from q's higher coefficients, and
    f * w = c0 modulo g.  Raises :class:`ZeroCosetError` when f reduces to
    zero, and :class:`DegenerateCharPolyError` when p is a pure power of t
    or when the stripped relation fails to hold (the coset is a zero
    divisor, so the quotient gave no usable witness; reported, never
    patched).
    """
    gen = _generator(g, f.ring)
    residue = reduce_mod(f, gen)
    if residue.is_zero:
        raise ZeroCosetError("the element is a multiple of the generator")
    coeffs = coset_integrality_witness(residue, gen).coefficients
    e = next(i for i, c in enumerate(coeffs) if not c.is_zero)
    if e == len(coeffs) - 1:
        raise DegenerateCharPolyError(
            "characteristic polynomial is a pure power of t"
        )
    stripped = coeffs[e:]
    constant = stripped[0]
    # w = -(b_1 + b_2 f + ... + b_m f^(m-1)) modulo g.
    w = -_horner(stripped[1:], residue, gen)
    if not principal_member(f * w - constant, gen):
        raise DegenerateCharPolyError(
            "stripped relation does not hold, the coset is a zero divisor"
        )
    return constant, QuotientElement(gen, w)
