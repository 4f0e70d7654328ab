"""Monic division, coset actions, integrality witnesses, contraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from krullkit.errors import (
    DegenerateCharPolyError,
    NotMonicError,
    PreconditionViolatedError,
    RingMismatchError,
    ZeroCosetError,
)
from krullkit.field import FieldSpec
from krullkit.integral import (
    IntegralityWitness,
    MonicGenerator,
    QuotientElement,
    ReductionCoefficients,
    characteristic_polynomial,
    contraction_witness,
    coset,
    coset_action_matrix,
    coset_integrality_witness,
    divide_monic,
    integrality_witness_from_action,
    power_reduce,
    principal_member,
    reduce_mod,
    subring_intersection_trivial,
)
from krullkit.parse import parse_polynomial
from krullkit.poly import Polynomial, RingSpec, embed, random_polynomial, random_scalar

Q = FieldSpec.rationals()
QR1 = RingSpec.default(Q, 1)
QR2 = RingSpec.default(Q, 2)
QR3 = RingSpec.default(Q, 3)
F5R2 = RingSpec.default(FieldSpec.prime(5), 2)
F7R2 = RingSpec.default(FieldSpec.prime(7), 2)
# Division and the coset action run on t_n-slices; at n = 1 those are
# constants, so these rings also cover the rebuild of one-slot keys.
SLICE_RINGS = (QR2, QR1, QR3, F7R2)
DENSE_RINGS = [QR2, QR3] + [RingSpec.default(FieldSpec.prime(p), 2) for p in (2, 3, 32003)]
AGREEMENT_FIELDS = [Q] + [FieldSpec.prime(p) for p in (2, 7, 32003)]


def P(text, ring=QR2):
    return parse_polynomial(text, ring)


def random_monic(rng, ring, max_degree=4, coeff_degree=2, degree=None):
    """t_n^d plus a random tail of strictly smaller t_n-degree."""
    n = ring.nvars
    d = degree or rng.randint(1, max_degree)
    g = ring.gen(n) ** d
    for e in range(d):
        if n > 1:
            c = embed(
                random_polynomial(
                    rng, ring.subring(n - 1), max_degree=coeff_degree, max_terms=2
                ),
                ring,
            )
        else:
            c = ring.constant(random_scalar(rng, ring.field))
        g = g + c * ring.gen(n) ** e
    return g


def dense_monic(rng, ring, d):
    """t_n^d plus a tail whose every coefficient is dense in t1..t(n-1) up to degree 2."""
    n = ring.nvars
    g = ring.gen(n) ** d
    for j in range(d):
        for exps in _exponents(n - 1, 2):
            c = random_scalar(rng, ring.field) or ring.field.one()
            g = g + Polynomial(ring, {(*exps, j): c})
    return g


def _exponents(m, top):
    # Every exponent vector of m entries with total degree at most top.
    if m == 0:
        return [()]
    return [(k, *rest) for k in range(top + 1) for rest in _exponents(m - 1, top - k)]


def dense_in_tn(rng, ring, top):
    """A random polynomial with a random slice at every t_n-degree up to top."""
    n = ring.nvars
    f = ring.zero()
    for e in range(top + 1):
        if n > 1:
            c = embed(random_polynomial(rng, ring.subring(n - 1), max_degree=2, max_terms=3), ring)
        else:
            c = ring.constant(random_scalar(rng, ring.field))
        f = f + c * ring.gen(n) ** e
    return f


def dense_at(f, point, length):
    """The t_n-coefficients of f with t1..t(n-1) fixed at point, lowest first."""
    slices = f.coefficients_in(f.ring.nvars)
    zero = f.ring.zero()
    return [Fraction(slices.get(e, zero).evaluate(point).value) for e in range(length)]


@st.composite
def seeded_cases(draw, max_degree):
    """A ring, a degree, and a Random for the entries and the evaluation point."""
    ring = draw(st.sampled_from(DENSE_RINGS))
    d = draw(st.integers(min_value=1, max_value=max_degree))
    return ring, d, random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))


class TestMonicGenerator:
    def test_fields(self):
        gen = MonicGenerator(P("t2^2 - t1"))
        assert gen.degree == 2
        assert gen.coefficients == (P("-t1"), QR2.zero())
        assert gen.ring == QR2

    def test_relation(self):
        # t2^2 = t1 modulo t2^2 - t1: the relation is the negated tail.
        assert MonicGenerator(P("t2^2 - t1")).relation == (P("t1"), QR2.zero())

    def test_rejections(self):
        with pytest.raises(NotMonicError):
            MonicGenerator(P("2*t2^2 - t1"))
        with pytest.raises(NotMonicError):
            MonicGenerator(P("t1"))  # free of the last variable
        with pytest.raises(NotMonicError):
            MonicGenerator(QR2.zero())
        with pytest.raises(NotMonicError):
            MonicGenerator(P("t1*t2 + 1"))

    def test_equality(self):
        assert MonicGenerator(P("t2^2 - t1")) == MonicGenerator(P("t2^2 - t1"))
        assert MonicGenerator(P("t2^2 - t1")) != MonicGenerator(P("t2^2"))

    def test_a_generator_is_not_its_polynomial(self):
        assert (MonicGenerator(P("t2^2 - t1")) == P("t2^2 - t1")) is False

    def test_repr(self):
        assert repr(MonicGenerator(P("t2^2 - t1"))) == (
            "MonicGenerator(<Polynomial t2^2 - t1 over Q[t1,t2]>)"
        )


@st.composite
def agreement_cases(draw):
    """f and a monic g of t_n-degree 1..5 over Q, F2, F7 or F32003 in 1..3
    variables; f has t_n-degree up to 12, and is a multiple h * g for a
    third of the draws."""
    ring = RingSpec.default(draw(st.sampled_from(AGREEMENT_FIELDS)), draw(st.integers(1, 3)))
    d = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = random_monic(rng, ring, degree=d)
    if rng.randrange(3) == 0:
        return dense_in_tn(rng, ring, rng.randint(0, 12 - d)) * g, g
    return dense_in_tn(rng, ring, rng.randint(0, 12)), g


class TestDivideMonic:
    def test_worked_example(self):
        q, r = divide_monic(P("t2^5 + t1*t2"), P("t2^2 - t1"))
        assert q == P("t2^3 + t1*t2")
        assert r == P("t1^2*t2 + t1*t2")

    def test_zero_dividend(self):
        q, r = divide_monic(QR2.zero(), P("t2^2 - t1"))
        assert q.is_zero and r.is_zero

    def test_low_degree_passthrough(self):
        f = P("t1^5 + t2")
        q, r = divide_monic(f, P("t2^2 - t1"))
        assert q.is_zero and r == f

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            divide_monic(parse_polynomial("t1", QR3), P("t2^2 - t1"))

    def test_identity_and_degree_bound(self):
        rng = random.Random(31)
        for ring in SLICE_RINGS:
            p = ring.field.modulus
            for _ in range(150):
                g = random_monic(rng, ring)
                gen = MonicGenerator(g)
                f = random_polynomial(rng, ring, max_degree=7, max_terms=6)
                q, r = divide_monic(f, gen)
                # checked with naive raw-dict arithmetic, not the class ops
                lhs = oracles.naive_add(
                    oracles.naive_mul(oracles.raw(q), oracles.raw(g), p),
                    oracles.raw(r),
                    p,
                )
                assert lhs == oracles.raw(f)
                assert r.is_zero or r.degree_in(ring.nvars) < gen.degree

    def test_uniqueness_by_reconstruction(self):
        rng = random.Random(32)
        for ring in SLICE_RINGS:
            for _ in range(150):
                g = random_monic(rng, ring)
                d = MonicGenerator(g).degree
                q_expected = random_polynomial(rng, ring, max_degree=4, max_terms=4)
                r_expected = _random_low_remainder(rng, ring, d)
                f = q_expected * g + r_expected
                q, r = divide_monic(f, g)
                assert q == q_expected
                assert r == r_expected

    @given(case=seeded_cases(max_degree=8))
    @settings(max_examples=60, deadline=None)
    def test_dense_generators_against_univariate_remainder(self, case):
        ring, d, rng = case
        n, p = ring.nvars, ring.field.modulus
        g = dense_monic(rng, ring, d)
        f = dense_in_tn(rng, ring, rng.randint(0, 2 * d + 2))
        q, r = divide_monic(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree_in(n) < d
        point = [rng.randint(-5, 5) for _ in range(n - 1)] + [0]
        top = f.degree_in(n) or 0
        expected = oracles.univariate_remainder(
            dense_at(f, point, top + 1), dense_at(g, point, d + 1)
        )
        if p:
            expected = [int(c) % p for c in expected]
        assert dense_at(r, point, d) == expected

    def test_prime_field(self):
        rng = random.Random(33)
        for _ in range(60):
            g = random_monic(rng, F5R2, max_degree=3)
            f = random_polynomial(rng, F5R2, max_degree=6, max_terms=5)
            q, r = divide_monic(f, g)
            assert q * g + r == f

    @given(case=agreement_cases())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_every_remainder_consumer_agrees_with_the_division(self, case):
        f, g = case
        n, d = f.ring.nvars, MonicGenerator(g).degree
        q, r = divide_monic(f, g)
        assert reduce_mod(f, g) == r
        assert q * g + r == f
        assert r.is_zero or r.degree_in(n) < d
        assert principal_member(f, g) == r.is_zero
        assert coset_action_matrix(f, g) == coset_action_matrix(r, g)

    def test_every_entry_checks_the_generator_as_division_does(self):
        """Each entry refuses a non-monic generator, or one of another ring,
        with the class and text of divide_monic's refusal, non-monic first."""
        f, g = P("t1 + 3*t2 + t2^3"), P("t2^2 - t1")
        witness = coset_integrality_witness(f, g)
        entries = (
            lambda h: coset(f, h),
            witness.annihilates_modulo,
            lambda h: contraction_witness(f, h),
            lambda h: principal_member(f, h),
            lambda h: coset_action_matrix(f, h),
            lambda h: subring_intersection_trivial(P("t1"), h),
        )
        for bad in (parse_polynomial("t3^2 - t1", QR3), P("2*t2^2 - t1"),
                    parse_polynomial("t1*t3^2", QR3), MonicGenerator(P("t2 + 1", F7R2))):
            with pytest.raises((NotMonicError, RingMismatchError)) as expected:
                divide_monic(f, bad)
            for entry in entries:
                with pytest.raises(expected.type) as refused:
                    entry(bad)
                assert str(refused.value) == str(expected.value)


def _random_low_remainder(rng, ring, d):
    """A random polynomial with t_n-degree strictly below d."""
    n = ring.nvars
    r = ring.zero()
    for e in range(d):
        c = random_polynomial(rng, ring, max_degree=2, max_terms=2)
        buckets = c.coefficients_in(n)
        flat = buckets.get(0, ring.zero())
        r = r + flat * ring.gen(n) ** e
    return r


class TestPrincipalMember:
    def test_frozen(self):
        g = P("t2^2 - t1")
        assert principal_member(P("t2^4 - 2*t1*t2^2 + t1^2"), g)
        assert not principal_member(P("t2"), g)
        assert principal_member(QR2.zero(), g)

    def test_products_are_members(self):
        rng = random.Random(34)
        for _ in range(100):
            g = random_monic(rng, QR2, max_degree=3)
            h = random_polynomial(rng, QR2, max_degree=3, max_terms=3)
            assert principal_member(h * g, g)

    def test_member_plus_low_nonzero_is_not(self):
        rng = random.Random(35)
        for _ in range(100):
            g = random_monic(rng, QR2, max_degree=3)
            d = MonicGenerator(g).degree
            h = random_polynomial(rng, QR2, max_degree=3, max_terms=3)
            r = _random_low_remainder(rng, QR2, d)
            if r.is_zero:
                continue
            assert not principal_member(h * g + r, g)


class TestSubringIntersection:
    def test_nonzero_candidates_always_clear(self):
        rng = random.Random(36)
        for _ in range(100):
            g = random_monic(rng, QR2)
            candidate = _tn_free(rng, QR2)
            if candidate.is_zero:
                continue
            assert subring_intersection_trivial(candidate, g)

    def test_zero_candidate(self):
        assert subring_intersection_trivial(QR2.zero(), P("t2^2 - t1"))

    def test_precondition(self):
        with pytest.raises(PreconditionViolatedError):
            subring_intersection_trivial(P("t2"), P("t2^2 - t1"))


    @pytest.mark.parametrize("name", ["t2", "x" * 10, "x" * 11, "x" * 3000],
                             ids=["short", "10", "11", "3000"])
    def test_precondition_names_the_variable_by_the_naming_rule(self, name):
        # A 3,000-character name once gave a 3,026-character line.
        ring = RingSpec(Q, ("t1", name))
        t_n = ring.gen(2)
        with pytest.raises(PreconditionViolatedError) as info:
            subring_intersection_trivial(t_n, t_n**2 - ring.gen(1))
        shown = name if len(name) <= 10 else f"a variable of {len(name)} characters"
        assert str(info.value) == f"candidate must be free of {shown}"

def _tn_free(rng, ring):
    f = random_polynomial(rng, ring, max_degree=4, max_terms=3)
    buckets = f.coefficients_in(ring.nvars)
    return buckets.get(0, ring.zero())


class TestQuotientElement:
    def test_coset_reduces(self):
        g = P("t2^2 - t1")
        q = coset(P("t2^2"), g)
        assert q == QuotientElement(MonicGenerator(g), P("t1"))
        assert str(q) == "t1"

    def test_coset_equality_modulo_generator(self):
        rng = random.Random(37)
        g = P("t2^2 - t1")
        for _ in range(50):
            f = random_polynomial(rng, QR2, max_degree=4, max_terms=4)
            junk = random_polynomial(rng, QR2, max_degree=2, max_terms=3)
            assert coset(f, g) == coset(f + junk * g, g)


class TestCosetActionMatrix:
    def test_worked_example(self):
        matrix = coset_action_matrix(P("t2"), P("t2^2 - t1"))
        assert matrix == [
            [QR2.zero(), QR2.one()],
            [P("t1"), QR2.zero()],
        ]

    def test_entries_are_tn_free(self):
        rng = random.Random(38)
        for _ in range(40):
            g = random_monic(rng, QR2, max_degree=3)
            f = random_polynomial(rng, QR2, max_degree=4, max_terms=4)
            for row in coset_action_matrix(f, g):
                for entry in row:
                    assert entry.degree_in(2) in (None, 0)

    def test_action_matches_multiplication(self):
        rng = random.Random(39)
        for ring in SLICE_RINGS:
            t_n = ring.gen(ring.nvars)
            for _ in range(60):
                g = random_monic(rng, ring, max_degree=3)
                d = MonicGenerator(g).degree
                f = random_polynomial(rng, ring, max_degree=4, max_terms=4)
                matrix = coset_action_matrix(f, g)
                for i in range(d):
                    lhs = reduce_mod(f * t_n**i, g)
                    rhs = ring.zero()
                    for j in range(d):
                        rhs = rhs + matrix[i][j] * t_n**j
                    assert lhs == rhs


class TestCharacteristicPolynomial:
    def test_gaussian_multiplication_symbolically(self):
        ring = RingSpec(Q, ("a", "b"))
        a, b = ring.gens()
        coeffs = characteristic_polynomial([[a, b], [-b, a]])
        assert coeffs == [a * a + b * b, -2 * a, ring.one()]

    def test_gaussian_at_one_one(self):
        coeffs = characteristic_polynomial([[1, 1], [-1, 1]])
        assert coeffs == [2, -2, 1]

    def test_identity_and_companion(self):
        assert characteristic_polynomial([[1, 0], [0, 1]]) == [1, -2, 1]
        companion = [[0, 1, 0], [0, 0, 1], [2, 0, 0]]
        assert characteristic_polynomial(companion) == [-2, 0, 0, 1]
        assert characteristic_polynomial([[0, 1], [0, 0]]) == [0, 0, 1]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            characteristic_polynomial([])
        with pytest.raises(ValueError):
            characteristic_polynomial([[1, 2]])

    def test_against_permutation_sum(self):
        rng = random.Random(40)
        for _ in range(60):
            d = rng.randint(1, 5)
            matrix = [
                [Fraction(rng.randint(-6, 6)) for _ in range(d)] for _ in range(d)
            ]
            expected = oracles.leibniz_charpoly(matrix)
            got = characteristic_polynomial(matrix)
            assert got == expected

    def test_polynomial_entries_against_evaluated_permutation_sum(self):
        rng = random.Random(41)
        for _ in range(25):
            d = rng.randint(1, 3)
            matrix = [
                [random_polynomial(rng, QR2, max_degree=2, max_terms=2) for _ in range(d)]
                for _ in range(d)
            ]
            coeffs = characteristic_polynomial(matrix)
            point = [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))]
            evaluated = [
                [Fraction(matrix[i][j].evaluate(point).value) for j in range(d)]
                for i in range(d)
            ]
            expected = oracles.leibniz_charpoly(evaluated)
            assert [Fraction(c.evaluate(point).value) for c in coeffs] == expected

    def test_half_zero_matrices_against_permutation_sum(self):
        rng = random.Random(47)
        for d in range(1, 7):
            for _ in range(6):
                matrix = [
                    [
                        Fraction(rng.randint(-6, 6)) if rng.random() < 0.5 else Fraction(0)
                        for _ in range(d)
                    ]
                    for _ in range(d)
                ]
                expected = oracles.leibniz_charpoly(matrix)
                got = characteristic_polynomial(matrix)
                assert got == expected

    @pytest.mark.parametrize("ring", [QR2, F7R2], ids=["Q", "F7"])
    def test_coset_matrices_against_evaluated_permutation_sum(self, ring):
        # Polynomial entries: compare at random points, then check that the
        # char poly kills the coset.
        rng = random.Random(48)
        p = ring.field.modulus
        for d in range(1, 7):
            for _ in range(3):
                g = random_monic(rng, ring, degree=d)
                f = random_polynomial(rng, ring, max_degree=3, max_terms=3)
                matrix = coset_action_matrix(f, g)
                coeffs = characteristic_polynomial(matrix)
                point = [rng.randint(-5, 5), rng.randint(-5, 5)]
                evaluated = [
                    [Fraction(e.evaluate(point).value) for e in row] for row in matrix
                ]
                expected = oracles.leibniz_charpoly(evaluated)
                if p:
                    expected = [int(c) % p for c in expected]
                assert [c.evaluate(point).value for c in coeffs] == expected
                witness = integrality_witness_from_action(matrix, f)
                assert witness.annihilates_modulo(g)

    @given(case=seeded_cases(max_degree=5))
    @settings(max_examples=40, deadline=None)
    def test_dense_coset_matrices_against_evaluated_permutation_sum(self, case):
        ring, d, rng = case
        n, p = ring.nvars, ring.field.modulus
        g = dense_monic(rng, ring, d)
        f = dense_in_tn(rng, ring, d + 1)
        matrix = coset_action_matrix(f, g)
        coeffs = characteristic_polynomial(matrix)
        point = [rng.randint(-5, 5) for _ in range(n)]
        evaluated = [[Fraction(e.evaluate(point).value) for e in row] for row in matrix]
        expected = oracles.leibniz_charpoly(evaluated)
        if p:
            expected = [int(c) % p for c in expected]
        assert [c.evaluate(point).value for c in coeffs] == expected


class TestIntegralityWitness:
    def test_gaussian_worked_example(self):
        witness = integrality_witness_from_action([[1, 1], [-1, 1]], "1+i")
        assert witness.coefficients == (2, -2, 1)
        assert witness.to_json_dict() == {
            "char_poly": ["2", "-2", "1"],
            "element": "1+i",
            "check": "zero",
        }

    def test_cayley_hamilton_on_cosets(self):
        rng = random.Random(42)
        for _ in range(80):
            g = random_monic(rng, QR2, max_degree=3)
            f = random_polynomial(rng, QR2, max_degree=3, max_terms=3)
            witness = coset_integrality_witness(f, g)
            d = MonicGenerator(g).degree
            assert len(witness.coefficients) == d + 1
            assert witness.coefficients[-1] == QR2.one()
            assert witness.annihilates_modulo(g)

    def test_coefficients_are_tn_free(self):
        g = P("t2^3 + t1*t2 + 1")
        witness = coset_integrality_witness(P("t1*t2 + t2^2"), g)
        for c in witness.coefficients:
            assert c.degree_in(2) in (None, 0)

    def test_prime_field_cosets(self):
        rng = random.Random(43)
        for _ in range(40):
            g = random_monic(rng, F5R2, max_degree=3)
            f = random_polynomial(rng, F5R2, max_degree=3, max_terms=3)
            assert coset_integrality_witness(f, g).annihilates_modulo(g)

    def test_the_check_does_not_rest_on_the_residue(self, monkeypatch):
        """The check evaluates the dependence at f itself, so a wrong residue
        of f from the division, and the matrix built from it, is caught.  A
        check at that residue r would pass: chi_r(r) = 0 modulo g always holds
        (Cayley-Hamilton)."""
        import krullkit.integral as integral

        f, g, t1 = P("t1 + 3*t2 + t2^3"), P("t2^2 - t1"), P("t1")
        assert coset_integrality_witness(f, g).annihilates_modulo(g)
        divide = integral._divide

        def wrong_for_f(h, gen):
            # r + t1: t1 is free of t2, so it adds to r's first coordinate.
            quotient, r = divide(h, gen)
            return (quotient, [r[0] + t1, *r[1:]]) if h == f else (quotient, r)

        monkeypatch.setattr(integral, "_divide", wrong_for_f)
        assert not coset_integrality_witness(f, g).annihilates_modulo(g)

    def test_non_polynomial_element_rejected_for_check(self):
        witness = IntegralityWitness((2, -2, 1), "1+i")
        with pytest.raises(TypeError):
            witness.annihilates_modulo(P("t2^2 - t1"))


class TestPowerReduce:
    REL_I = ReductionCoefficients((Fraction(-1), Fraction(0)))  # a^2 = -1

    def test_imaginary_unit_powers(self):
        assert power_reduce(self.REL_I, 0).coefficients == (1, 0)
        assert power_reduce(self.REL_I, 1).coefficients == (0, 1)
        assert power_reduce(self.REL_I, 2).coefficients == (Fraction(-1), Fraction(0))
        assert power_reduce(self.REL_I, 3).coefficients == (Fraction(0), Fraction(-1))
        assert power_reduce(self.REL_I, 4).coefficients == (Fraction(1), Fraction(0))

    def test_rank_one(self):
        rel = ReductionCoefficients((Fraction(3),))
        assert power_reduce(rel, 5).coefficients == (Fraction(243),)
        assert power_reduce(rel, 0).coefficients == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReductionCoefficients(())
        with pytest.raises(ValueError):
            power_reduce(self.REL_I, -1)
        with pytest.raises(ValueError):
            power_reduce(self.REL_I, True)

    def test_against_division_oracle(self):
        rng = random.Random(44)
        for _ in range(120):
            d = rng.randint(1, 6)
            relation = ReductionCoefficients(
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(d))
            )
            i = rng.randint(0, 25)
            got = power_reduce(relation, i, zero=Fraction(0), one=Fraction(1))
            expected = oracles.power_coords_by_division(
                list(relation.coefficients), i
            )
            assert list(got.coefficients) == expected

    @staticmethod
    def check_every_power_to_300(scalar):
        # Covers every exponent bit pattern of up to eight bits.  The oracle
        # divides by the integer relation, so its coordinates are integers,
        # which scalar maps into the relation's field.
        rng = random.Random(49)
        for d in range(1, 7):
            tail = [rng.choice([0, 0, -1, 1]) for _ in range(d - 1)]
            ints = [rng.choice([-1, 1]), *tail]
            relation = ReductionCoefficients(tuple(scalar(c) for c in ints))
            for i in range(301):
                got = power_reduce(relation, i, zero=scalar(0), one=scalar(1))
                expected = oracles.power_coords_by_division([Fraction(c) for c in ints], i)
                assert list(got.coefficients) == [scalar(x) for x in expected]

    def test_every_power_to_300_against_division_oracle(self):
        self.check_every_power_to_300(Fraction)

    @pytest.mark.parametrize("p", [2, 3, 32003])
    def test_every_power_to_300_over_prime_fields(self, p):
        # The oracle's coordinates reduced mod p; F2's many zero coordinates
        # exercise the zero-factor skips.
        self.check_every_power_to_300(FieldSpec.prime(p).element)

    @pytest.mark.parametrize("ring", [QR2, F7R2], ids=["Q", "F7"])
    def test_polynomial_relations_match_monomial_reduction(self, ring):
        rng = random.Random(50)
        t2 = ring.gen(2)
        for d in (1, 2, 3):
            for _ in range(3):
                gen = MonicGenerator(random_monic(rng, ring, coeff_degree=1, degree=d))
                relation = ReductionCoefficients(tuple(-c for c in gen.coefficients))
                for i in (0, d - 1, d, d + 1, 2 * d + 1, 13, 24, 33):
                    got = power_reduce(relation, i, zero=ring.zero(), one=ring.one())
                    buckets = reduce_mod(t2**i, gen).coefficients_in(2)
                    expected = tuple(buckets.get(j, ring.zero()) for j in range(d))
                    assert got.coefficients == expected

    def test_matches_monomial_reduction(self):
        # coordinates of t2^i modulo g, by actual division, for ring values
        rng = random.Random(45)
        t2 = QR2.gen(2)
        for _ in range(40):
            g = random_monic(rng, QR2, max_degree=3)
            gen = MonicGenerator(g)
            relation = ReductionCoefficients(tuple(-c for c in gen.coefficients))
            i = rng.randint(0, 10)
            got = power_reduce(relation, i, zero=QR2.zero(), one=QR2.one())
            remainder = reduce_mod(t2**i, gen)
            buckets = remainder.coefficients_in(2)
            expected = tuple(buckets.get(j, QR2.zero()) for j in range(gen.degree))
            assert got.coefficients == expected



def kind(x):
    # The type of a value, with the ring or field it belongs to.
    return type(x), getattr(x, "ring", None), getattr(x, "spec", None)


F7 = FieldSpec.prime(7)
ONES = [1, Fraction(1), Q.one(), F7.one(), QR2.one(), F7R2.one()]
ONE_IDS = ["int", "Fraction", "Q-element", "F7-element", "Q-poly", "F7-poly"]


class TestConstantsFromEntries:
    """The ring's zero and one come from the inputs: every coefficient and
    coordinate has the type of the entries, and the leading coefficient is
    their one, not the int 1."""

    @pytest.mark.parametrize("one", ONES, ids=ONE_IDS)
    def test_characteristic_polynomial(self, one):
        ints = [[2, 0, -1], [0, 3, 1], [4, 0, 0]]
        expected = characteristic_polynomial(ints)
        for matrix in ([[one * v for v in row] for row in ints], [[one - one]]):
            coeffs = characteristic_polynomial(matrix)
            assert {kind(c) for c in coeffs} == {kind(one)}
            assert coeffs[-1] == one
        assert characteristic_polynomial([[one * v for v in row] for row in ints]) == [
            one * c for c in expected
        ]

    @pytest.mark.parametrize("ring", [QR2, F7R2], ids=["Q", "F7"])
    def test_coset_witnesses(self, ring):
        rng = random.Random(51)
        for d in range(1, 5):
            g = random_monic(rng, ring, degree=d)
            f = random_polynomial(rng, ring, max_degree=3, max_terms=3)
            matrix = coset_action_matrix(f, g)
            for coeffs in (
                characteristic_polynomial(matrix),
                integrality_witness_from_action(matrix, f).coefficients,
                coset_integrality_witness(f, g).coefficients,
            ):
                assert {kind(c) for c in coeffs} == {kind(ring.one())}
                assert coeffs[-1] == ring.one()
        assert characteristic_polynomial([[ring.zero()]]) == [ring.zero(), ring.one()]

    @pytest.mark.parametrize("one", ONES, ids=ONE_IDS)
    def test_power_reduce(self, one):
        # a^3 = 2 - a^2; i < d returns a basis vector, in the relation's type.
        relation = ReductionCoefficients((one * 2, one * 0, -one))
        zero = one - one
        for i in range(10):
            coords = power_reduce(relation, i).coefficients
            assert {kind(c) for c in coords} == {kind(one)}
            assert coords == power_reduce(relation, i, zero=zero, one=one).coefficients
        assert power_reduce(relation, 1).coefficients == (zero, one, zero)


class TestOperationCountContracts:
    """Operation counts that pin the quotient layer's algorithms (ROADMAP item
    14): counts at three or more sizes, never times."""

    def test_power_reduce_is_square_and_multiply(self, monkeypatch):
        """Square-and-multiply over the bits of i: each bit squares r against
        its rows r, r a, ..., r a^(d-1), and a set bit reads one row more, so
        _action builds (d - 1) * bit_length(i) + popcount(i) rows beyond the
        first, O(d log i) and not O(i)."""
        import krullkit.integral as integral

        rows = 0
        action = integral._action

        def counted(r, relation, count):
            nonlocal rows
            rows += count - 1
            return action(r, relation, count)

        monkeypatch.setattr(integral, "_action", counted)
        F = FieldSpec.prime(32003)
        relation = ReductionCoefficients((F.element(3), F.element(5), F.element(7)))
        for i, expected in ((10**3, 26), (10**6, 47), (10**9, 73)):
            rows = 0
            power_reduce(relation, i)
            assert rows == 2 * i.bit_length() + bin(i).count("1") == expected

    def test_characteristic_polynomial_is_berkowitz(self, monkeypatch):
        """Berkowitz on a d x d matrix with no zero entry: bordering step r
        makes r^2 + r RingSpec.dot calls, (d^3 - d) / 3 in all, and forms
        r^3 + r(r + 1)/2 pair products, about d^4 / 4: O(d^4) products, not
        the O(2^d) of a cofactor expansion."""
        calls = products = 0
        dot = RingSpec.dot

        def counted(self, pairs):
            nonlocal calls, products
            pairs = list(pairs)
            calls += 1
            products += sum(len(x._keys) * len(y._keys) for x, y in pairs)
            return dot(self, pairs)

        monkeypatch.setattr(RingSpec, "dot", counted)
        ring = RingSpec.default(FieldSpec.prime(32003), 2)
        rng = random.Random(52)
        for d, expected in ((4, 20), (6, 70), (8, 168), (10, 330)):
            matrix = [[ring.constant(rng.randint(1, 32002)) for _ in range(d)] for _ in range(d)]
            calls = products = 0
            characteristic_polynomial(matrix)
            assert calls == (d**3 - d) // 3 == expected
            assert 0.15 * d**4 <= products <= 0.25 * d**4, (d, products)

    def test_characteristic_polynomial_tests_each_entry_once_per_step(self, monkeypatch):
        """The matrix of t1 modulo t1^d has d - 1 nonzero entries.  Each border
        step tests every entry for zero once and the products read only the
        nonzero ones, so the zero tests grow as d^3, x8 per doubling of d;
        zipping whole rows and columns grew them as d^4, x16."""
        t1 = QR1.gen(1)
        matrices = [coset_action_matrix(t1, t1**d) for d in (10, 20, 40)]
        tests = 0
        is_nonzero = Polynomial.__bool__

        def counted(self):
            nonlocal tests
            tests += 1
            return is_nonzero(self)

        monkeypatch.setattr(Polynomial, "__bool__", counted)
        counts = []
        for matrix in matrices:
            tests = 0
            characteristic_polynomial(matrix)
            counts.append(tests)
        assert all(b < 10 * a for a, b in zip(counts, counts[1:])), counts

    def test_a_prebuilt_generator_is_not_negated_again(self, monkeypatch):
        """MonicGenerator owns g's relation, the negated tail: division,
        reduction and the action matrix read it and negate nothing."""
        f = parse_polynomial("(t1+2*t2-3/5*t3+1)^8", QR3)
        cubic = MonicGenerator(parse_polynomial("t3^3 + t1*t3 - t2", QR3))
        element, septic = P("t1 + 3/2*t2"), MonicGenerator(P("t2^7 - 5/3*t1"))
        negations = 0
        neg = Polynomial.__neg__

        def counted(self):
            nonlocal negations
            negations += 1
            return neg(self)

        monkeypatch.setattr(Polynomial, "__neg__", counted)
        for call in (lambda: divide_monic(f, cubic), lambda: reduce_mod(f, cubic),
                     lambda: coset_action_matrix(element, septic)):
            negations = 0
            call()
            assert negations == 0

    def test_a_reduction_builds_only_its_remainder(self, monkeypatch):
        """One division splits f by t_n once.  reduce_mod joins the remainder
        and no quotient; principal_member and coset_action_matrix read the
        remainder's coordinates, with no join and no second split."""
        f = parse_polynomial("(t1+2*t2-3/5*t3+1)^8", QR3)
        cubic = MonicGenerator(parse_polynomial("t3^3 + t1*t3 - t2", QR3))
        element, septic = P("t1 + 3/2*t2"), MonicGenerator(P("t2^7 - 5/3*t1"))
        joins = splits = 0
        join, split = Polynomial.from_coefficients_in.__func__, Polynomial.coefficients_in

        def counted_join(cls, ring, j, slices):
            nonlocal joins
            joins += 1
            return join(cls, ring, j, slices)

        def counted_split(self, j):
            nonlocal splits
            splits += 1
            return split(self, j)

        monkeypatch.setattr(Polynomial, "from_coefficients_in", classmethod(counted_join))
        monkeypatch.setattr(Polynomial, "coefficients_in", counted_split)
        for call, expected in ((lambda: reduce_mod(f, cubic), (1, 1)),
                               (lambda: principal_member(f, cubic), (0, 1)),
                               (lambda: coset_action_matrix(element, septic), (0, 1))):
            joins = splits = 0
            call()
            assert (joins, splits) == expected


class TestContractionWitness:
    def test_worked_examples(self):
        constant, cofactor = contraction_witness(P("t2"), P("t2^2 - t1"))
        assert constant == P("-t1")
        assert cofactor.residue == P("-t2")
        constant, cofactor = contraction_witness(P("t1"), P("t2^2 - t1"))
        assert constant == P("t1^2")
        assert cofactor.residue == P("t1")

    def test_relation_holds(self):
        rng = random.Random(46)
        successes = 0
        while successes < 80:
            g = random_monic(rng, QR2, max_degree=3)
            f = random_polynomial(rng, QR2, max_degree=3, max_terms=3)
            try:
                constant, cofactor = contraction_witness(f, g)
            except (ZeroCosetError, DegenerateCharPolyError):
                continue
            successes += 1
            assert not constant.is_zero
            assert constant.degree_in(2) in (None, 0)
            assert principal_member(f * cofactor.residue - constant, g)

    def test_zero_coset_rejected(self):
        g = P("t2^2 - t1")
        with pytest.raises(ZeroCosetError):
            contraction_witness(P("t2^4 - 2*t1*t2^2 + t1^2"), g)

    def test_pure_power_char_poly_rejected(self):
        with pytest.raises(DegenerateCharPolyError):
            contraction_witness(P("t2"), P("t2^2"))

    def test_zero_divisor_coset_rejected(self):
        with pytest.raises(DegenerateCharPolyError):
            contraction_witness(P("t2"), P("t2^2 - t2"))

    def test_unit_coset(self):
        constant, cofactor = contraction_witness(P("2"), P("t2^2 - t1"))
        assert constant == P("4")
        assert reduce_mod(P("2") * cofactor.residue, P("t2^2 - t1")) == P("4")
