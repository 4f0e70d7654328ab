"""Non-vanishing points and the substitution that makes a polynomial monic.

The point search is deterministic and exact.  To find a point where a
nonzero polynomial takes a nonzero value, recurse on the leading
coefficient with respect to the last active variable: once the earlier
coordinates keep that coefficient nonzero, the polynomial is (in the last
active variable) a nonzero univariate of degree d, so among any d + 1
distinct nonzero scalars one misses all its roots.  Candidates come from
the field's fixed nonzero enumeration, which makes the result reproducible
and makes failure on a too-small finite field a definite, reported event
rather than a sampling accident.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArgumentError,
    ExhaustedFieldError,
    FieldTooSmallError,
    NotHomogeneousError,
    SelfCheckError,
    ZeroPolynomialError,
    shown,
)
from .field import FieldElement, enumerate_nonzero
from .poly import Polynomial, RingSpec


def nonvanishing_point(f: Polynomial) -> tuple[FieldElement, ...]:
    """A point with all coordinates nonzero where f does not vanish.

    Raises :class:`ZeroPolynomialError` on the zero polynomial and
    :class:`FieldTooSmallError` when a finite field runs out of candidates
    (which can genuinely happen: over F2 every point with nonzero
    coordinates is a root of t1^2 + t1*t2).
    """
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial vanishes everywhere")
    ring = f.ring
    spec = ring.field
    pad_one = spec.one()

    def search(g: Polynomial, m: int) -> tuple[FieldElement, ...]:
        # g is nonzero and free of variables m+1..n.
        if m == 0:
            return ()
        coeffs = g.coefficients_in(m)
        d = max(coeffs)
        prefix = search(coeffs[d], m - 1)
        pad = (pad_one,) * (ring.nvars - m)
        for idx in range(d + 1):
            try:
                candidate = enumerate_nonzero(spec, idx)
            except ExhaustedFieldError as exc:
                raise FieldTooSmallError(
                    f"{spec} has too few nonzero elements to fix variable "
                    f"{shown(ring.variables[m - 1], 'name', str)} (degree {d})"
                ) from exc
            if not g.evaluate(prefix + (candidate,) + pad).is_zero:
                return prefix + (candidate,)
        raise SelfCheckError("unreachable: d + 1 distinct candidates, at most d roots")

    return search(f, ring.nvars)


def nonvanishing_point_homogeneous(f: Polynomial) -> tuple[FieldElement, ...]:
    """A non-vanishing point for a nonzero form, with last coordinate 1.

    Homogeneity lets any non-vanishing point be rescaled by the inverse of
    its last coordinate without reaching zero, so the last coordinate can
    always be normalized to 1.  The zero polynomial counts as a form, and
    :func:`nonvanishing_point` refuses it.
    """
    if not f.is_homogeneous():
        raise NotHomogeneousError(f"{shown(f, 'a polynomial', str)} is not homogeneous")
    point = nonvanishing_point(f)
    factor = point[-1].inv()
    return tuple(b * factor for b in point[:-1]) + (f.ring.field.one(),)


@dataclass(frozen=True)
class LinearSubstitution:
    """The change of variables t_j -> t_j + c_j * t_n (t_n fixed), with a scale.

    ``coefficients`` has one entry per variable except the last; ``scale``
    is the nonzero constant the substituted polynomial gets divided by.
    The substitution is invertible (subtract instead of add), so it changes
    nothing essential about the ring.
    """

    coefficients: tuple[FieldElement, ...]
    scale: FieldElement

    def __post_init__(self) -> None:
        if self.scale.is_zero:
            raise ArgumentError("scale must be nonzero")

    def images(self, ring: RingSpec) -> tuple[Polynomial, ...]:
        n = ring.nvars
        if len(self.coefficients) != n - 1:
            raise ArgumentError(
                f"substitution has {len(self.coefficients)} coefficients, "
                f"ring needs {n - 1}"
            )
        last = ring.gen(n)
        return tuple(
            ring.gen(j + 1) + c * last for j, c in enumerate(self.coefficients)
        ) + (last,)

    def apply(self, f: Polynomial) -> Polynomial:
        """Substitute into f (no scaling; the caller divides by ``scale``)."""
        return f.substitute(self.images(f.ring))


@dataclass(frozen=True)
class MonicizationResult:
    """A substitution plus the resulting monic polynomial and its degree.

    ``monic`` equals ``substitution.apply(f) / substitution.scale``; it is
    monic in the last variable with last-variable degree equal to the total
    degree of f.
    """

    substitution: LinearSubstitution
    monic: Polynomial
    degree: int

    def to_json_dict(self) -> dict:
        return {
            "a": [str(c) for c in self.substitution.coefficients],
            "lambda": str(self.substitution.scale),
            "g": str(self.monic),
            "degree": self.degree,
        }


def monicize(f: Polynomial) -> MonicizationResult:
    """Make f monic in the last variable by an invertible linear substitution.

    Evaluating the leading form at a non-vanishing point (a, 1) gives the
    nonzero scale; substituting t_j + a_j * t_n and dividing by it yields a
    polynomial monic in t_n whose t_n-degree is the total degree of f.  A
    nonzero constant comes back unchanged as the trivial case g = 1 of
    degree 0.  Raises :meth:`Polynomial.leading_form`'s ZeroPolynomialError
    for zero input and the point-search errors for a too-small finite field.
    """
    ring = f.ring
    n = ring.nvars
    degree = f.total_degree()
    form = f.leading_form()
    point = nonvanishing_point_homogeneous(form)
    scale = form.evaluate(point)
    substitution = LinearSubstitution(point[:-1], scale)
    monic = scale.inv() * substitution.apply(f)
    top = monic.coefficients_in(n).get(degree)
    if monic.degree_in(n) != degree or top != ring.one():
        raise SelfCheckError("substitution failed to make the polynomial monic")
    return MonicizationResult(substitution, monic, degree)
