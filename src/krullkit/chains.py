"""Monomial prime ideals, strict chains, and min-power decompositions.

Level k of the chain is the ideal generated by the first k variables; its
members are exactly the polynomials every one of whose terms touches one of
those variables.  Level 0 is the zero ideal.  :func:`verify_chain` checks
the whole ladder 0 < level 1 < ... < level n constructively: explicit
witnesses separate consecutive levels, randomized product checks probe
primality at every level, and 1 outside the top level shows it is proper.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import PreconditionViolatedError, RingMismatchError, shown_ring
from .poly import (
    Polynomial, RingSpec, _draw, _draw_shape, _randbelow, _times_variable, check_range,
)

DEFAULT_SEED = 1729
MAX_CHECKS = 10_000  # the most product checks per level that verify_chain runs


@dataclass(frozen=True)
class MonomialPrimeIdeal:
    """The ideal of the first ``level`` variables of a ring."""

    ring: RingSpec
    level: int

    def __post_init__(self) -> None:
        check_range("level", self.level, 0, self.ring.nvars)

    def generators(self) -> tuple[Polynomial, ...]:
        return tuple(self.ring.gen(j) for j in range(1, self.level + 1))

    def contains(self, f: Polynomial) -> bool:
        """Membership: every term touches one of the first ``level`` variables.

        Decided exactly on the exponent vectors; level 0 contains only the
        zero polynomial.
        """
        if f.ring is not self.ring and f.ring != self.ring:
            raise RingMismatchError(f"{shown_ring(f.ring)} is not {shown_ring(self.ring)}")
        return f.in_variable_ideal(self.level)

    def __contains__(self, f: Polynomial) -> bool:
        return self.contains(f)

    def product_check(self, g: Polynomial, h: Polynomial) -> bool:
        """One primality probe: if g*h is a member, some factor must be."""
        if self.contains(g * h):
            return self.contains(g) or self.contains(h)
        return True

    def contract(self) -> "MonomialPrimeIdeal":
        """The same ideal seen in the ring with the last variable dropped."""
        n = self.ring.nvars
        return MonomialPrimeIdeal(self.ring.subring(n - 1), min(self.level, n - 1))


@dataclass(frozen=True)
class MinPowerDecomposition:
    """The pieces of f = lower_part + t_k^power * cofactor.

    ``lower_part`` collects the terms touching variables below k, ``power``
    is the least t_k-exponent among the rest, and ``cofactor`` has a term
    free of all of t_1..t_k.
    """

    power: int
    lower_part: Polynomial
    cofactor: Polynomial


def extract_min_power(f: Polynomial, k: int) -> MinPowerDecomposition:
    """Factor the least power of t_k out of the part of f below-support-free.

    Requires f to be a member of the level-k ideal but not of the level-(k-1)
    ideal; raises :class:`PreconditionViolatedError` otherwise.
    """
    ring = f.ring
    check_range("k", k, 1, ring.nvars)
    # f is outside level k - 1 iff rest is nonzero, and inside level k iff
    # every term of rest touches t_k.
    lower_part, rest = f.split_by_support(k - 1)
    slices = rest.coefficients_in(k)
    if not slices or 0 in slices:
        raise PreconditionViolatedError(
            f"need membership at level {k} but not at level {k - 1}"
        )
    power = min(slices)
    shifted = {e - power: s for e, s in slices.items()}
    cofactor = Polynomial.from_coefficients_in(ring, k, shifted)
    return MinPowerDecomposition(power, lower_part, cofactor)


@dataclass(frozen=True)
class ChainLevel:
    """Checked facts about one inclusion step of the chain."""

    level: int
    witness: Polynomial
    in_upper: bool
    in_lower: bool
    product_checks_passed: int

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "witness": str(self.witness),
            "in_upper": self.in_upper,
            "in_lower": self.in_lower,
            "product_checks_passed": self.product_checks_passed,
        }


@dataclass(frozen=True)
class ChainReport:
    """Outcome of a full chain verification over one ring."""

    ring: RingSpec
    levels: tuple[ChainLevel, ...]
    zero_ideal_checks_passed: int
    proper: bool
    accepted: bool
    failures: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "ring": str(self.ring),
            "accepted": self.accepted,
            "proper": self.proper,
            "zero_ideal_checks_passed": self.zero_ideal_checks_passed,
            "levels": [level.to_json_dict() for level in self.levels],
            "failures": list(self.failures),
        }


def verify_chain(
    ring: RingSpec,
    *,
    checks_per_level: int = 100,
    seed: int = DEFAULT_SEED,
) -> ChainReport:
    """Verify the strict chain of variable ideals over a ring.

    For each level k in 1..n the witness t_k must lie in level k but not in
    level k - 1, and ``checks_per_level`` randomized product checks probe
    primality.  Each factor is drawn as ``random_polynomial(rng, ring,
    max_degree=4, max_terms=4)`` draws it, from one ``Random(seed)``.  Half
    of the pairs are biased so the product really is a member, exercising
    the nontrivial branch of the implication: g becomes t_j * g for a random
    j <= k.  The zero ideal gets the same treatment (biased by zeroing a
    factor), and properness means 1 is outside the top level.  Any failed
    check lands in ``failures`` with the offending witnesses, and
    ``accepted`` reflects the whole ladder.  ``checks_per_level`` is at most :data:`MAX_CHECKS`.
    """
    check_range("checks per level", checks_per_level, 1, MAX_CHECKS)
    rng = Random(seed)
    bits, shape = rng.getrandbits, _draw_shape(ring, 4, 4)
    n = ring.nvars
    failures: list[str] = []

    def draw(bias_into: MonomialPrimeIdeal | None) -> Polynomial:
        f = _draw(bits, ring, shape)
        if bias_into is not None and rng.random() < 0.5:
            level = bias_into.level
            if level == 0:
                return ring.zero()
            f = _times_variable(f, 1 + _randbelow(bits, level, level.bit_length()))
        return f

    def probe(ideal: MonomialPrimeIdeal) -> int:
        passed = 0
        for _ in range(checks_per_level):
            g, h = draw(ideal), draw(None)
            if ideal.product_check(g, h):
                passed += 1
            else:
                failures.append(f"level {ideal.level}: product check failed for g={g}, h={h}")
        return passed

    lower = MonomialPrimeIdeal(ring, 0)
    zero_passed = probe(lower)
    levels = []
    for k in range(1, n + 1):
        upper = MonomialPrimeIdeal(ring, k)
        witness = ring.gen(k)
        in_upper = upper.contains(witness)
        in_lower = lower.contains(witness)
        if not in_upper:
            failures.append(f"level {k}: witness {witness} not in upper ideal")
        if in_lower:
            failures.append(f"level {k}: witness {witness} in lower ideal")
        levels.append(ChainLevel(k, witness, in_upper, in_lower, probe(upper)))
        lower = upper  # level k is the next step's lower ideal

    proper = ring.one() not in lower  # lower is now the top level, n
    if not proper:
        failures.append("top level contains 1, ideal not proper")

    accepted = not failures
    return ChainReport(
        ring, tuple(levels), zero_passed, proper, accepted, tuple(failures)
    )
