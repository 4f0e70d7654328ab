"""Field scalars: canonical forms, arithmetic, enumeration, axioms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from krullkit.errors import ExhaustedFieldError, FieldMismatchError
from krullkit.field import MAX_MODULUS, FieldKind, FieldSpec, enumerate_nonzero

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)


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

    def test_rationals_take_no_modulus(self):
        with pytest.raises(ValueError):
            FieldSpec(FieldKind.RATIONALS, 5)


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
