"""Variable ideals: membership, primality probes, min-power splits, the chain."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from krullkit.chains import (
    DEFAULT_SEED,
    MAX_CHECKS,
    MonomialPrimeIdeal,
    extract_min_power,
    verify_chain,
)
from krullkit.errors import ArgumentError, PreconditionViolatedError, RingMismatchError
from krullkit.field import FieldSpec
from krullkit.parse import parse_polynomial
from krullkit.poly import Polynomial, RingSpec, embed, random_polynomial

from test_poly import polys

Q = FieldSpec.rationals()
QR2 = RingSpec.default(Q, 2)
QR3 = RingSpec.default(Q, 3)


def P(text, ring=QR2):
    return parse_polynomial(text, ring)


class TestMembership:
    def test_example_polynomial(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        assert f not in MonomialPrimeIdeal(QR2, 1)
        assert f in MonomialPrimeIdeal(QR2, 2)

    def test_level_zero_is_only_zero(self):
        ideal = MonomialPrimeIdeal(QR2, 0)
        assert QR2.zero() in ideal
        assert QR2.constant(3) not in ideal
        assert P("t1") not in ideal

    def test_zero_in_every_level(self):
        for k in range(3):
            assert QR2.zero() in MonomialPrimeIdeal(QR2, k)

    def test_constants_excluded(self):
        for k in range(3):
            assert QR2.one() not in MonomialPrimeIdeal(QR2, k)

    def test_generators(self):
        ideal = MonomialPrimeIdeal(QR3, 2)
        assert ideal.generators() == (QR3.gen(1), QR3.gen(2))
        for g in ideal.generators():
            assert g in ideal

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            MonomialPrimeIdeal(QR2, 3)
        with pytest.raises(ValueError):
            MonomialPrimeIdeal(QR2, -1)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            MonomialPrimeIdeal(QR2, 1).contains(parse_polynomial("t1", QR3))

    @given(f=polys(QR3), k=st.integers(min_value=0, max_value=3))
    @settings(max_examples=80)
    def test_against_divisibility_scan(self, f, k):
        assert MonomialPrimeIdeal(QR3, k).contains(f) == oracles.member_scan(
            oracles.raw(f), k
        )

    @given(f=polys(QR3), g=polys(QR3), k=st.integers(min_value=1, max_value=3))
    @settings(max_examples=60)
    def test_ideal_closure(self, f, g, k):
        ideal = MonomialPrimeIdeal(QR3, k)
        t = QR3.gen(random.Random(0).randint(1, k))
        assert t * f in ideal
        if f in ideal and g in ideal:
            assert f + g in ideal
        if f in ideal:
            assert f * g in ideal


class TestProductCheck:
    @given(f=polys(QR2), g=polys(QR2), k=st.integers(min_value=0, max_value=2))
    @settings(max_examples=80)
    def test_always_passes(self, f, g, k):
        assert MonomialPrimeIdeal(QR2, k).product_check(f, g)

    def test_forced_member_branch(self):
        ideal = MonomialPrimeIdeal(QR2, 1)
        g = P("t1*t2 + t1")
        h = P("t2^2 + 1")
        assert (g * h) in ideal
        assert ideal.product_check(g, h)


class TestExtractMinPower:
    def test_worked_example(self):
        f = parse_polynomial("t1*t3 + t2^2*t3 + t2^3", QR3)
        dec = extract_min_power(f, 2)
        assert dec.power == 2
        assert dec.lower_part == parse_polynomial("t1*t3", QR3)
        assert dec.cofactor == parse_polynomial("t3 + t2", QR3)

    def test_identity_is_exact(self):
        f = parse_polynomial("t1*t3 + t2^2*t3 + t2^3", QR3)
        dec = extract_min_power(f, 2)
        assert dec.lower_part + QR3.gen(2) ** dec.power * dec.cofactor == f

    def test_level_one(self):
        f = P("t1^2*t2 + t1^3")
        dec = extract_min_power(f, 1)
        assert dec.power == 2
        assert dec.lower_part.is_zero
        assert dec.cofactor == P("t1 + t2")

    def test_preconditions(self):
        with pytest.raises(PreconditionViolatedError):
            extract_min_power(P("t2^2 + 1"), 1)  # not a member at level 1
        with pytest.raises(PreconditionViolatedError):
            extract_min_power(P("t1^2"), 2)  # already a member at level 1
        with pytest.raises(PreconditionViolatedError):
            extract_min_power(QR2.zero(), 1)
        with pytest.raises(ValueError):
            extract_min_power(P("t1"), 0)
        with pytest.raises(ValueError):
            extract_min_power(P("t1"), 3)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.sampled_from([QR3, RingSpec.default(FieldSpec.prime(7), 3)]).flatmap(polys),
           st.integers(min_value=1, max_value=3))
    def test_raises_exactly_outside_the_precondition(self, f, k):
        outside = not f.in_variable_ideal(k) or f.in_variable_ideal(k - 1)
        try:
            dec = extract_min_power(f, k)
        except PreconditionViolatedError as exc:
            assert outside
            assert str(exc) == f"need membership at level {k} but not at level {k - 1}"
        else:
            assert not outside
            assert dec.lower_part + f.ring.gen(k) ** dec.power * dec.cofactor == f

    def test_random_decompositions(self):
        rng = random.Random(99)
        ring = QR3
        for _ in range(200):
            k = rng.randint(1, 3)
            f = _random_strict_member(rng, ring, k)
            dec = extract_min_power(f, k)
            assert dec.power >= 1
            assert dec.lower_part + ring.gen(k) ** dec.power * dec.cofactor == f
            assert MonomialPrimeIdeal(ring, k - 1).contains(dec.lower_part)
            assert not MonomialPrimeIdeal(ring, k).contains(dec.cofactor)
            # minimality: the cofactor keeps a term with no t_k at all
            assert min(e[k - 1] for e in dec.cofactor.terms) == 0


def _random_strict_member(rng, ring, k):
    """A polynomial in the level-k ideal but not the level-(k-1) ideal."""
    while True:
        lower = random_polynomial(rng, ring, max_degree=3, max_terms=3)
        if k > 1:
            lower = lower * ring.gen(rng.randint(1, k - 1))
        else:
            lower = ring.zero()
        power = rng.randint(1, 3)
        cofactor = random_polynomial(rng, ring, max_degree=3, max_terms=3, nonzero=True)
        f = lower + ring.gen(k) ** power * cofactor
        upper_ideal = MonomialPrimeIdeal(ring, k)
        lower_ideal = MonomialPrimeIdeal(ring, k - 1)
        if upper_ideal.contains(f) and not lower_ideal.contains(f):
            return f


F3 = P("t1 + t2*t3", QR3)


class TestRangeChecks:
    """Every index and level check names its range in one message format."""

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: QR3.subring(4), "subring size must be in 1..3, got 4"),
            (lambda: QR3.gen(0), "variable index must be in 1..3, got 0"),
            # A bool is not an index: gen(True) once returned t1.
            (lambda: QR3.gen(True), "variable index must be in 1..3, got True"),
            (lambda: F3.degree_in(True), "variable index must be in 1..3, got True"),
            (lambda: QR3.subring(True), "subring size must be in 1..3, got True"),
            (lambda: F3.degree_in(4), "variable index must be in 1..3, got 4"),
            (lambda: F3.coefficients_in(0), "variable index must be in 1..3, got 0"),
            (
                lambda: Polynomial.from_coefficients_in(QR3, 4, {}),
                "variable index must be in 1..3, got 4",
            ),
            (lambda: F3.split_by_support(4), "k must be in 0..3, got 4"),
            (lambda: F3.in_variable_ideal(-1), "k must be in 0..3, got -1"),
            (lambda: MonomialPrimeIdeal(QR3, 4), "level must be in 0..3, got 4"),
            (lambda: extract_min_power(F3, 0), "k must be in 1..3, got 0"),
        ],
    )
    def test_out_of_range_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestVerifyChain:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_accepted_over_rationals(self, n):
        report = verify_chain(RingSpec.default(Q, n), checks_per_level=40)
        assert report.accepted
        assert report.proper
        assert report.failures == ()
        assert report.zero_ideal_checks_passed == 40
        assert len(report.levels) == n
        for k, level in enumerate(report.levels, start=1):
            assert level.level == k
            assert str(level.witness) == f"t{k}"
            assert level.in_upper
            assert not level.in_lower
            assert level.product_checks_passed == 40

    def test_accepted_over_prime_field(self):
        report = verify_chain(RingSpec.default(FieldSpec.prime(5), 3), checks_per_level=40)
        assert report.accepted

    def test_seed_determinism(self):
        a = verify_chain(QR3, checks_per_level=25, seed=7)
        b = verify_chain(QR3, checks_per_level=25, seed=7)
        assert a == b
        assert a.to_json_dict() == b.to_json_dict()

    def test_default_seed_is_fixed(self):
        assert DEFAULT_SEED == 1729
        a = verify_chain(QR2, checks_per_level=10)
        b = verify_chain(QR2, checks_per_level=10, seed=DEFAULT_SEED)
        assert a == b

    @pytest.mark.parametrize("checks", [0, -5, True])
    def test_rejects_fewer_than_one_check(self, checks):
        # Zero checks would accept the chain without any evidence; True is
        # not the count 1.
        with pytest.raises(ValueError):
            verify_chain(QR2, checks_per_level=checks)

    def test_rejects_more_than_max_checks(self):
        # A count is refused before any check runs, and named by its length when long.
        for checks, got in (
            (MAX_CHECKS + 1, f"{MAX_CHECKS + 1}"), (-10**20, "a value of 22 characters"),
        ):
            with pytest.raises(ArgumentError) as info:
                verify_chain(QR2, checks_per_level=checks)
            assert str(info.value) == f"checks per level must be in 1..{MAX_CHECKS}, got {got}"

    @pytest.mark.parametrize("modulus", [None, 2, 3, 7, 32003])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 60])
    def test_report_matches_the_public_api_reference(self, modulus, n, monkeypatch):
        # The reference draws through random_polynomial, biases by a product
        # with a generator and randint, and scans exponent tuples.  A second
        # pass refuses every product check, so that each drawn pair is named
        # in a failure line and compared too.
        ring = RingSpec.default(Q if modulus is None else FieldSpec.prime(modulus), n)
        for refuse in (False, True):
            if refuse:
                monkeypatch.setattr(MonomialPrimeIdeal, "product_check", lambda self, g, h: False)
            for seed, checks in ((0, 1), (1729, 7), (2026, 20)):
                report = verify_chain(ring, checks_per_level=checks, seed=seed).to_json_dict()
                assert report == oracles.reference_chain_report(ring, checks, seed)
                assert len(report["failures"]) == refuse * (n + 1) * checks

    def test_json_shape(self):
        report = verify_chain(QR2, checks_per_level=5)
        doc = report.to_json_dict()
        assert set(doc) == {
            "ring",
            "accepted",
            "proper",
            "zero_ideal_checks_passed",
            "levels",
            "failures",
        }
        assert doc["ring"] == "Q[t1,t2]"
        for entry in doc["levels"]:
            assert set(entry) == {
                "level",
                "witness",
                "in_upper",
                "in_lower",
                "product_checks_passed",
            }
        assert doc["levels"][0]["witness"] == "t1"
        assert doc["failures"] == []


class TestWidthContract:
    """verify_chain's products grow with (n + 1) * checks and nothing else:
    each product check forms g * h by one RingSpec.dot, and a biased g is
    t_j times a draw by a key shift, with no product.  Counts, not times."""

    @pytest.mark.parametrize("field", [Q, FieldSpec.prime(32003)])
    def test_dot_calls_per_check_do_not_grow_with_n(self, field, monkeypatch):
        calls = 0
        dot = RingSpec.dot

        def counted(self, pairs):
            nonlocal calls
            calls += 1
            return dot(self, pairs)

        monkeypatch.setattr(RingSpec, "dot", counted)
        for n, checks in ((10, 3), (100, 2), (1000, 1)):
            calls = 0
            assert verify_chain(RingSpec.default(field, n), checks_per_level=checks).accepted
            assert calls == (n + 1) * checks, (n, calls)


class TestContract:
    def test_levels(self):
        assert MonomialPrimeIdeal(QR3, 2).contract() == MonomialPrimeIdeal(
            QR3.subring(2), 2
        )
        assert MonomialPrimeIdeal(QR3, 3).contract() == MonomialPrimeIdeal(
            QR3.subring(2), 2
        )
        assert MonomialPrimeIdeal(QR3, 0).contract() == MonomialPrimeIdeal(
            QR3.subring(2), 0
        )

    def test_single_variable_rejected(self):
        # subring's range check refuses the empty ring.
        with pytest.raises(ValueError, match=r"^subring size must be in 1\.\.1, got 0$"):
            MonomialPrimeIdeal(RingSpec.default(Q, 1), 1).contract()

    @given(f=polys(QR2), k=st.integers(min_value=0, max_value=3))
    @settings(max_examples=80)
    def test_membership_agreement(self, f, k):
        # f lives in the 2-variable subring; compare through the embedding
        big = MonomialPrimeIdeal(QR3, k)
        small = big.contract()
        assert small.contains(f) == big.contains(embed(f, QR3))
