"""Field scalars: canonical forms, arithmetic, enumeration, axioms."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from krullkit.errors import ExhaustedFieldError, FieldMismatchError
from krullkit.field import MAX_MODULUS, FieldSpec, enumerate_nonzero

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)


class TestFieldSpec:
    def test_text_forms(self):
        assert str(Q) == "Q"
        assert str(F5) == "F5"
        assert FieldSpec.from_text("Q") == Q
        assert FieldSpec.from_text("F5") == F5
        assert FieldSpec.from_text(" F101 ") == FieldSpec.prime(101)

    @pytest.mark.parametrize("bad", ["", "F", "F0", "F1", "F4", "F9", "Q5", "GF5", "F05"])
    def test_bad_text(self, bad):
        with pytest.raises(ValueError):
            FieldSpec.from_text(bad)

    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7.
    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15, 121, 561, 3215031751])
    def test_composite_modulus_rejected(self, p):
        with pytest.raises(ValueError):
            FieldSpec.prime(p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97, 2**61 - 1])
    def test_prime_modulus_accepted(self, p):
        assert FieldSpec.prime(p).modulus == p

    @pytest.mark.parametrize("p", [MAX_MODULUS, 2**127 - 1])
    def test_modulus_cap(self, p):
        # Miller-Rabin on the 13 fixed bases is exact only below the cap.
        with pytest.raises(ValueError, match="must be below"):
            FieldSpec.prime(p)

    def test_a_field_is_its_modulus(self):
        assert FieldSpec() == Q
        assert hash(FieldSpec()) == hash(Q) and str(FieldSpec()) == "Q"
        assert FieldSpec(5) == F5
        assert hash(FieldSpec(5)) == hash(F5) and str(FieldSpec(5)) == "F5"
        assert FieldSpec(5) != Q and FieldSpec(5) != F7

    # "Q" once built a field that printed Q but was unequal to the rationals.
    @pytest.mark.parametrize("modulus", ["Q", True, 4, 0, 5.0])
    def test_a_modulus_that_is_no_prime_int_is_refused(self, modulus):
        with pytest.raises(ValueError) as info:
            FieldSpec(modulus)
        assert str(info.value) == f"modulus must be a prime, got {modulus!r}"
        with pytest.raises(ValueError):
            FieldSpec.prime(modulus)

    def test_prime_needs_a_modulus(self):
        with pytest.raises(ValueError, match="got None"):
            FieldSpec.prime(None)


class TestRationalArithmetic:
    def test_half_plus_third(self):
        assert Q.element(Fraction(1, 2)) + Q.element(Fraction(1, 3)) == Fraction(5, 6)

    def test_canonical_lowest_terms(self):
        assert str(Q.element(Fraction(2, 4))) == "1/2"
        assert str(Q.element(Fraction(6, 3))) == "2"
        assert str(Q.element(-3)) == "-3"

    def test_ops(self):
        a = Q.element(Fraction(3, 4))
        b = Q.element(Fraction(-2, 5))
        assert a * b == Fraction(-3, 10)
        assert a - b == Fraction(23, 20)
        assert a / b == Fraction(-15, 8)
        assert -a == Fraction(-3, 4)
        assert a**3 == Fraction(27, 64)
        assert a.inv() == Fraction(4, 3)

    def test_mixed_int_operands(self):
        a = Q.element(Fraction(1, 2))
        assert 1 + a == Fraction(3, 2)
        assert 2 * a == 1
        assert 1 - a == Fraction(1, 2)
        assert 1 / a == 2
        assert a + Fraction(1, 3) == Fraction(5, 6)


class TestPrimeArithmetic:
    def test_one_plus_one_is_zero_mod_two(self):
        assert (F2.element(1) + F2.element(1)).is_zero

    def test_residues_are_canonical(self):
        assert F5.element(7).value == 2
        assert F5.element(-1).value == 4
        assert str(F5.element(12)) == "2"

    def test_fraction_coercion(self):
        assert F5.element(Fraction(1, 2)) == F5.element(3)
        assert F5.element(Fraction(4, 3)) == F5.element(3)

    def test_fraction_with_bad_denominator(self):
        with pytest.raises(ZeroDivisionError):
            F5.element(Fraction(1, 5))
        with pytest.raises(ZeroDivisionError):
            F2.element(Fraction(3, 4))

    def test_ops(self):
        assert F5.element(2) * F5.element(4) == F5.element(3)
        assert F5.element(3).inv() == F5.element(2)
        assert F5.element(2) ** 10 == F5.element(4)
        assert -F5.element(2) == F5.element(3)
        assert F5.element(1) / F5.element(3) == F5.element(2)


class TestElementProtocol:
    def test_mismatch(self):
        with pytest.raises(FieldMismatchError):
            Q.element(1) + F5.element(1)
        with pytest.raises(FieldMismatchError):
            F2.element(1) * F5.element(1)
        assert Q.element(3) != F5.element(3)

    def test_zero_inverse(self):
        with pytest.raises(ZeroDivisionError):
            Q.zero().inv()
        with pytest.raises(ZeroDivisionError):
            F5.zero().inv()

    def test_rejected_values(self):
        with pytest.raises(TypeError):
            Q.element(0.5)
        with pytest.raises(TypeError):
            Q.element(True)
        with pytest.raises(TypeError):
            F5.element("3")

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Q.element(2) ** -1

    def test_hash_eq(self):
        assert hash(Q.element(Fraction(2, 4))) == hash(Q.element(Fraction(1, 2)))
        assert len({F5.element(2), F5.element(7), F5.element(3)}) == 2

    def test_bool(self):
        assert not Q.zero()
        assert Q.one()


class TestScalarRules:
    """What counts as a scalar, and which field it lives in."""

    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul, operator.truediv]
    )
    def test_elements_of_two_fields_do_not_combine(self, op):
        with pytest.raises(FieldMismatchError) as info:
            op(F5.element(2), F7.element(3))
        assert str(info.value) == "cannot combine elements of F5 and F7"

    def test_element_of_another_field_does_not_coerce(self):
        with pytest.raises(FieldMismatchError) as info:
            F5.element(F7.element(1))
        assert str(info.value) == "cannot coerce element of F7 into F5"

    # Fraction(1, 5) has no value in F5; comparing with it once raised.
    @pytest.mark.parametrize("other", [True, "x", F7.element(1), Fraction(1, 5)])
    def test_unequal_to_a_bool_a_string_or_another_field(self, other):
        assert (F5.element(1) == other) is False
        assert (F5.element(1) != other) is True

    @pytest.mark.parametrize("other", [True, "x", 0.5])
    def test_non_scalar_operands_are_refused(self, other):
        with pytest.raises(TypeError):
            F5.element(1) + other
        with pytest.raises(TypeError):
            other * Q.element(1)

    @pytest.mark.parametrize("spec", [Q, F5])
    def test_division_by_zero_names_the_field(self, spec):
        for zero in (0, spec.zero()):
            with pytest.raises(ZeroDivisionError) as info:
                spec.element(3) / zero
            assert str(info.value) == f"inverse of zero in {spec}"
        with pytest.raises(ZeroDivisionError) as info:
            1 / spec.zero()
        assert str(info.value) == f"inverse of zero in {spec}"

    @pytest.mark.parametrize("spec", [Q, F5])
    @pytest.mark.parametrize("exponent", [-1, True])
    def test_power_needs_a_nonnegative_int(self, spec, exponent):
        # A bool is not an int here: Q.element(3) ** True once returned 3.
        with pytest.raises(ValueError) as info:
            spec.element(3) ** exponent
        assert str(info.value) == f"exponent must be a nonnegative int, got {exponent!r}"

    @pytest.mark.parametrize(
        "a,b",
        [
            (F5.element(7), F5.element(2)),
            (F5.element(Fraction(1, 2)), F5.element(3)),
            (Q.element(Fraction(6, 3)), Q.element(2)),
            (Q.element(3) / 6, Q.element(Fraction(1, 2))),
            # The hash is hash(value): it agrees with int and Fraction over
            # Q, and with the canonical residue over F_p.
            (Q.element(2), 2),
            (Q.element(Fraction(-3, 4)), Fraction(-3, 4)),
            (F5.element(8), 3),
        ],
    )
    def test_equal_elements_hash_equal(self, a, b):
        assert a == b
        assert hash(a) == hash(b)

    def test_mixed_operands_and_results(self):
        a = F7.element(3)
        assert (a / 2, 2 / a, a - 5, 5 - a) == (5, 3, 5, 2)
        assert (a**0, a**3, a.inv()) == (1, 6, 5)
        q = Q.element(Fraction(-2, 3))
        assert (q / 2, 2 / q, q**3, q.inv()) == (
            Fraction(-1, 3), -3, Fraction(-8, 27), Fraction(-3, 2)
        )
        assert repr(q**2) == "FieldElement(Q, 4/9)"
        assert repr(a.inv()) == "FieldElement(F7, 5)"


class TestEnumeration:
    def test_rationals_stream_is_positive_integers(self):
        assert [enumerate_nonzero(Q, i).value for i in range(6)] == [1, 2, 3, 4, 5, 6]

    def test_prime_stream(self):
        assert [enumerate_nonzero(F5, i).value for i in range(4)] == [1, 2, 3, 4]

    def test_prime_stream_exhausts(self):
        with pytest.raises(ExhaustedFieldError):
            enumerate_nonzero(F5, 4)
        with pytest.raises(ExhaustedFieldError):
            enumerate_nonzero(F2, 1)

    def test_distinct_and_nonzero(self):
        seen = [enumerate_nonzero(F5, i) for i in range(4)]
        assert len(set(seen)) == 4
        assert all(not x.is_zero for x in seen)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            enumerate_nonzero(Q, -1)
        # A bool is not an int here: enumerate_nonzero(Q, True) once returned 2.
        with pytest.raises(ValueError):
            enumerate_nonzero(Q, True)


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20).map(Q.element)
_residues = st.integers(min_value=0, max_value=6).map(FieldSpec.prime(7).element)


@given(a=_rationals, b=_rationals, c=_rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if not a.is_zero:
        assert a * a.inv() == 1


@given(a=_residues, b=_residues, c=_residues)
def test_prime_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if not a.is_zero:
        assert a * a.inv() == 1
