"""Non-vanishing points and the substitution that makes a polynomial monic.

The point search is deterministic and exact.  To find a point where a
nonzero polynomial takes a nonzero value, walk the chain of leading
coefficients down through the variables it contains, last first, then fix
their coordinates back up: once the earlier coordinates keep a link's
coefficient nonzero, the link is (in its variable) a nonzero univariate of
degree d, so among any d + 1 distinct nonzero scalars one misses all its
roots.  A variable of degree 0 in its link, or absent from the polynomial,
keeps coordinate 1, the first candidate.  Candidates come from the field's
fixed nonzero enumeration, which makes the result reproducible and makes
failure on a too-small finite field a definite, reported event rather than
a sampling accident.
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
from .poly import Polynomial


def nonvanishing_point(f: Polynomial) -> tuple[FieldElement, ...]:
    """A point with all coordinates nonzero where f does not vanish.

    Raises :class:`ZeroPolynomialError` on the zero polynomial and
    :class:`FieldTooSmallError` when a finite field runs out of candidates
    for one variable (which can genuinely happen: over F2 every point with
    nonzero coordinates is a root of t1^2 + t1*t2).  The search is greedy,
    fixing each coordinate once, so that error does not prove that no point
    exists: over F3 it is raised for t2^2 + t1*t2 - t2 - 1, which is 1 at
    (2, 1).  A variable f does not contain gets coordinate 1.
    """
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial vanishes everywhere")
    ring = f.ring
    spec = ring.field
    # chain[i] = (m, g, d): g is nonzero, free of the variables after t_m, of
    # degree d > 0 in t_m, and the next link's g is its coefficient of t_m^d.
    # A g free of t_m is the next link's g, nonzero at t_m = 1 too.
    chain = []
    g = f
    for m in reversed(f.occurring_variables()):
        coeffs = g.coefficients_in(m)
        d = max(coeffs)
        if d:
            chain.append((m, g, d))
        g = coeffs[d]
    point = [spec.one()] * ring.nvars
    for m, g, d in reversed(chain):
        for idx in range(d + 1):
            try:
                point[m - 1] = enumerate_nonzero(spec, idx)
            except ExhaustedFieldError as exc:
                raise FieldTooSmallError(
                    f"{spec} has too few nonzero elements to fix variable "
                    f"{shown(ring.variables[m - 1], 'name', str)} (degree {d})"
                ) from exc
            if not g.evaluate(point).is_zero:
                break
        else:
            raise SelfCheckError("unreachable: d + 1 distinct candidates, at most d roots")
    return tuple(point)


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
    # A coordinate the search left at 1 scales to factor itself.
    scaled = [factor] * len(point)
    for j in f.occurring_variables():
        scaled[j - 1] = point[j - 1] * factor
    scaled[-1] = f.ring.field.one()
    return tuple(scaled)


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

    def apply(self, f: Polynomial) -> Polynomial:
        """Substitute into f (no scaling; the caller divides by ``scale``)."""
        ring = f.ring
        n = ring.nvars
        if len(self.coefficients) != n - 1:
            raise ArgumentError(
                f"substitution has {len(self.coefficients)} coefficients, "
                f"ring needs {n - 1}"
            )
        # Only the variables f contains get their image t_j + c_j * t_n; the
        # other slots share t_n, which substitute checks but never reads.
        last = ring.gen(n)
        images = [last] * n
        for j in f.occurring_variables():
            if j < n:
                images[j - 1] = ring.gen(j) + self.coefficients[j - 1] * last
        return f.substitute(images)


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
    slices = monic.coefficients_in(n)
    if max(slices, default=-1) != degree or slices[degree] != ring.one():
        raise SelfCheckError("substitution failed to make the polynomial monic")
    return MonicizationResult(substitution, monic, degree)
