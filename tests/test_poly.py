"""Polynomial arithmetic, degrees, splitting, substitution, canonical text."""

import copy
import hashlib
import json
import pickle
import random
import sys
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from krullkit import poly
from krullkit.chains import MonomialPrimeIdeal, verify_chain
from krullkit.errors import (
    ArgumentError,
    ExhaustedFieldError,
    FieldMismatchError,
    KrullkitError,
    RingMismatchError,
    SizeLimitError,
    ZeroPolynomialError,
    digit_limit,
    shown,
)
from krullkit.field import FieldElement, FieldSpec, enumerate_nonzero
from krullkit.integral import divide_monic
from krullkit.parse import MAX_LITERAL_DIGITS, UnknownVariableError, parse_polynomial
from krullkit.poly import (
    MAX_VARIABLES, Polynomial, RingSpec, _randbelow, embed, random_polynomial, random_scalar,
)

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
QR2 = RingSpec.default(Q, 2)
QR3 = RingSpec.default(Q, 3)
FR2 = RingSpec.default(F5, 2)
WIDE = RingSpec.default(Q, 3000)
NARROWER = RingSpec.default(Q, 2999)


def P(text, ring=QR2):
    return parse_polynomial(text, ring)


def exponents(nvars, max_each=4):
    return st.tuples(*[st.integers(min_value=0, max_value=max_each)] * nvars)


def polys(ring, max_terms=5):
    if ring.field.modulus:
        coeffs = st.integers(min_value=0, max_value=ring.field.modulus - 1)
    else:
        coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    pairs = st.tuples(exponents(ring.nvars), coeffs)
    return st.lists(pairs, max_size=max_terms).map(lambda ts: Polynomial(ring, ts))


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        f = Polynomial(QR2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert f.terms == {(0, 1): Q.element(2)}

    def test_duplicate_keys_accumulate(self):
        f = Polynomial(QR2, [((1, 0), 2), ((1, 0), -2), ((0, 0), 1)])
        assert f == QR2.one()

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            Polynomial(QR2, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(QR2, {(-1, 0): 1})
        with pytest.raises(ValueError):
            Polynomial(QR2, {(1, 0.5): 1})
        with pytest.raises(ValueError):
            Polynomial(QR2, {(True, 0): 1})

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            RingSpec(Q, ())
        with pytest.raises(ValueError):
            RingSpec(Q, ("t1", "t1"))
        with pytest.raises(ValueError):
            RingSpec(Q, ("1t",))
        with pytest.raises(ValueError):
            RingSpec(Q, ("t 1",))

    def test_pickle_round_trip(self):
        # A ring caches its monomial codec; both still pickle and copy.
        f = P("3*t1^2*t2 - 1/2", QR2)
        assert str(pickle.loads(pickle.dumps(f))) == str(f)
        assert pickle.loads(pickle.dumps(f)) == f == copy.deepcopy(f)
        assert pickle.loads(pickle.dumps(QR2)) == QR2

    def test_default_names(self):
        assert RingSpec.default(Q, 3).variables == ("t1", "t2", "t3")
        assert str(QR2) == "Q[t1,t2]"
        assert str(RingSpec(F5, ("x", "y"))) == "F5[x,y]"

    def test_gens(self):
        t1, t2 = QR2.gens()
        assert t1.terms == {(1, 0): Q.one()}
        assert t2.terms == {(0, 1): Q.one()}
        with pytest.raises(ValueError):
            QR2.gen(0)
        with pytest.raises(ValueError):
            QR2.gen(3)


class TestDegrees:
    def test_zero_degree_undefined(self):
        assert QR2.zero().total_degree() is None
        assert QR2.zero().degree_in(1) is None
        assert QR2.zero().degree_in(2) is None

    def test_constant_degree(self):
        assert QR2.constant(7).total_degree() == 0
        assert QR2.constant(7).degree_in(1) == 0

    def test_example_degrees(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        assert f.total_degree() == 3
        assert f.degree_in(1) == 3
        assert f.degree_in(2) == 3
        assert P("t1^2*t2").degree_in(2) == 1

    def test_degree_in_bounds(self):
        with pytest.raises(ValueError):
            P("t1").degree_in(0)
        with pytest.raises(ValueError):
            P("t1").degree_in(3)


class TestEvaluation:
    def test_example_values(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        assert f.evaluate([1, 1]) == 7
        assert f.evaluate([2, 2]) == 56
        assert f.evaluate([0, 0]).is_zero

    def test_rational_point(self):
        assert P("t1*t2").evaluate([Fraction(1, 2), Fraction(2, 3)]) == Fraction(1, 3)

    def test_prime_field(self):
        f = parse_polynomial("t1^2 + t2", FR2)
        assert f.evaluate([3, 1]) == F5.element(0)

    def test_point_length(self):
        with pytest.raises(ValueError):
            P("t1").evaluate([1])


class TestSplitBySupport:
    def test_example_split(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        dependent, free = f.split_by_support(1)
        assert dependent == P("t1^3 + 2*t1^2*t2")
        assert free == P("4*t2^3")

    def test_extremes(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        assert f.split_by_support(0) == (QR2.zero(), f)
        assert f.split_by_support(2) == (f, QR2.zero())

    def test_bounds(self):
        with pytest.raises(ValueError):
            P("t1").split_by_support(3)

    @given(f=polys(QR3), k=st.integers(min_value=0, max_value=3))
    def test_reconstruction_and_disjoint_support(self, f, k):
        dependent, free = f.split_by_support(k)
        assert dependent + free == f
        assert all(any(e[i] for i in range(k)) for e in dependent.terms)
        assert all(not any(e[i] for i in range(k)) for e in free.terms)


class TestHomogeneous:
    def test_components_sum_to_whole(self):
        f = P("t1^3 + t1*t2 + 5")
        parts = [f.homogeneous_component(d) for d in range(4)]
        total = QR2.zero()
        for part in parts:
            assert part.is_homogeneous()
            total = total + part
        assert total == f

    def test_leading_form(self):
        assert P("t1^3 + t1*t2 + 5").leading_form() == P("t1^3")
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        assert f.leading_form() == f

    def test_leading_form_of_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            QR2.zero().leading_form()

    def test_zero_is_homogeneous(self):
        assert QR2.zero().is_homogeneous()
        assert QR2.constant(3).is_homogeneous()
        assert not P("t1 + 1").is_homogeneous()

    @given(f=polys(QR2), lam=st.fractions(min_value=-6, max_value=6, max_denominator=4))
    @settings(max_examples=60)
    def test_homogeneity_law(self, f, lam):
        form = f.homogeneous_component(2)
        point = [Fraction(2), Fraction(-3, 2)]
        scaled = [lam * x for x in point]
        assert form.evaluate(scaled) == Q.element(lam) ** 2 * form.evaluate(point)


class TestArithmeticAgainstOracle:
    @given(f=polys(QR2), g=polys(QR2))
    @settings(max_examples=80)
    def test_rational_ops(self, f, g):
        assert oracles.raw(f + g) == oracles.naive_add(oracles.raw(f), oracles.raw(g))
        assert oracles.raw(f * g) == oracles.naive_mul(oracles.raw(f), oracles.raw(g))
        assert oracles.raw(-f) == oracles.naive_neg(oracles.raw(f))
        assert f - g == f + (-g)

    @given(f=polys(FR2), g=polys(FR2))
    @settings(max_examples=60)
    def test_prime_ops(self, f, g):
        assert oracles.raw(f * g) == oracles.naive_mul(
            oracles.raw(f), oracles.raw(g), modulus=5
        )
        assert oracles.raw(f + g) == oracles.naive_add(
            oracles.raw(f), oracles.raw(g), modulus=5
        )

    @given(f=polys(QR2), g=polys(QR2), h=polys(QR2))
    @settings(max_examples=60)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + QR2.zero() == f
        assert f * QR2.one() == f

    @given(f=polys(QR2))
    @settings(max_examples=40)
    def test_powers(self, f):
        assert f**0 == QR2.one()
        assert f**1 == f
        assert f**3 == f * f * f

    @given(data=st.data(), e=st.integers(min_value=0, max_value=12))
    @settings(max_examples=120)
    def test_powers_against_repeated_products(self, data, e):
        field = data.draw(st.sampled_from([Q, FieldSpec.prime(2), FieldSpec.prime(3),
                                           FieldSpec.prime(32003)]))
        ring = RingSpec.default(field, 2)
        f = data.draw(st.one_of(
            polys(ring, max_terms=3),
            st.just(ring.zero()),
            st.integers(min_value=-5, max_value=5).map(ring.constant),
        ))
        assert oracles.raw(f**e) == oracles.naive_pow(
            oracles.raw(f), e, ring.nvars, field.modulus
        )

    @pytest.mark.parametrize("exponent", [-1, True, 2.0])
    def test_power_needs_a_nonnegative_int(self, exponent):
        # A bool is not an int here: f ** True once returned f.
        with pytest.raises(ValueError) as info:
            P("t1 + 1") ** exponent
        assert str(info.value) == f"exponent must be a nonnegative int, got {exponent!r}"

    @given(f=polys(QR2), g=polys(QR2))
    @settings(max_examples=60)
    def test_evaluation_is_a_homomorphism(self, f, g):
        point = [Fraction(2, 3), Fraction(-1, 2)]
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)

    def test_scalar_mixing(self):
        f = P("t1 + 1")
        assert 2 * f == P("2*t1 + 2")
        assert f * Fraction(1, 2) == P("1/2*t1 + 1/2")
        assert 1 + f == P("t1 + 2")
        assert 1 - f == P("-t1")
        assert f + Q.element(3) == P("t1 + 4")

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            P("t1") + parse_polynomial("t1", QR3)
        with pytest.raises(RingMismatchError):
            P("t1") * parse_polynomial("t1", FR2)


class TestRefusedInputs:
    """Counts, degrees, names, exponent vectors and substitution images each have one rule."""

    @pytest.mark.parametrize(
        "call,message",
        [
            # A bool is not a count: default(Q, True) once built Q[t1].
            (
                lambda: RingSpec.default(Q, True),
                "variable count must be a nonnegative int, got True",
            ),
            # 2.5 once escaped as a TypeError from range().
            (
                lambda: RingSpec.default(Q, 2.5),
                "variable count must be a nonnegative int, got 2.5",
            ),
            (lambda: RingSpec.default(Q, -1), "variable count must be a nonnegative int, got -1"),
            # The constructor is the one "at least one variable" check.
            (lambda: RingSpec.default(Q, 0), "a ring needs at least one variable"),
            (
                lambda: QR2.gen(1).homogeneous_component(True),
                "degree must be a nonnegative int, got True",
            ),
            # homogeneous_component(1.5) once answered 0.
            (
                lambda: QR2.gen(1).homogeneous_component(1.5),
                "degree must be a nonnegative int, got 1.5",
            ),
            # A name that is not a str once escaped as an AttributeError.
            (lambda: RingSpec(Q, ("t1", 5)), "invalid variable name 5"),
            # bytes have the str predicates, but are not names.
            (lambda: RingSpec(Q, (b"t1",)), "invalid variable name b't1'"),
        ],
        ids=[
            "default-True", "default-2.5", "default-negative", "default-0",
            "component-True", "component-1.5", "name-int", "name-bytes",
        ],
    )
    def test_counts_and_degrees_are_ints(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("call", [
        lambda: RingSpec.default(Q, 3).gen(1).degree_in(10**5000),
        lambda: RingSpec.default(Q, 3).gen(1) ** -10**5000,
    ], ids=["index", "exponent"])
    def test_values_past_the_print_limit_are_named_without_str(self, call):
        # str() of the value once raised CPython's own "Exceeds the limit" ValueError.
        with pytest.raises(ArgumentError) as info:
            call()
        assert str(info.value).endswith(" got a value of more than 4300 digits")
        assert len(str(info.value)) < 80

    def test_variable_count_limit(self):
        assert RingSpec.default(Q, MAX_VARIABLES).variables[-1] == f"t{MAX_VARIABLES}"
        for count, got in ((MAX_VARIABLES + 1, f"{MAX_VARIABLES + 1}"),
                           (10**20, "a value of 21 characters")):
            with pytest.raises(ArgumentError) as info:
                RingSpec.default(Q, count)
            assert str(info.value) == f"variable count must be in 0..{MAX_VARIABLES}, got {got}"

    @pytest.mark.parametrize("value,noun,expected", [
        ("abcdefghij", "token", "'abcdefghij'"),
        ("abcdefghijk", "token", "token of 11 characters"),
        # Short, but its quoted form is not: named by its length.
        ("\U000e0001" * 2, "token", "token of 2 characters"),
        ("\U000e0001" * 2, "", "of 2 characters"),
        (-123456789, "a value", "-123456789"),
        (10**5000, "a value", "a value of more than 4300 digits"),
    ], ids=["short", "long", "long-repr", "no-noun", "int", "past-the-print-limit"])
    def test_one_rule_names_a_refused_value(self, value, noun, expected):
        assert shown(value, noun) == expected

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Polynomial(RingSpec.default(Q, 1), {(10**5000, 1): 1}), ArgumentError,
         "bad exponent vector of more than 4300 digits for Q[t1]"),
        (lambda: QR2.gen(1).coefficient((1,) * 5000), ArgumentError,
         "bad exponent vector of 15000 characters for Q[t1,t2]"),
        (lambda: enumerate_nonzero(F5, 10**5000), ExhaustedFieldError,
         "F5 has only 4 nonzero elements, index of more than 4300 digits is out of range"),
        (lambda: F5.scalar(Fraction(1, 5 * 10**2999)), ZeroDivisionError,
         "denominator of 3000 characters is not invertible mod 5"),
        (lambda: FieldSpec(-10**5000), ArgumentError,
         "modulus must be a prime, got a value of more than 4300 digits"),
        (lambda: F5.scalar([1] * 5000), TypeError,
         "cannot make a field element from a value of 15000 characters"),
    ], ids=["vector-past-the-print-limit", "long-vector", "index", "denominator", "modulus",
            "not-a-scalar"])
    def test_long_values_in_library_errors_are_named_by_their_length(self, call, error, message):
        # Each once echoed the value whole (a 15,030-character message), or
        # raised CPython's own "Exceeds the limit" ValueError.
        with pytest.raises(error) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int/str digit limit")
    def test_the_digit_limit_is_read_at_call_time(self, monkeypatch):
        assert digit_limit() == MAX_LITERAL_DIGITS
        sys.set_int_max_str_digits(640)
        try:
            assert digit_limit() == 640
            assert shown(10**700, "a value") == "a value of more than 640 digits"
        finally:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        assert digit_limit() == MAX_LITERAL_DIGITS
        monkeypatch.delattr(sys, "get_int_max_str_digits")  # Python 3.10 before 3.10.7
        assert digit_limit() == MAX_LITERAL_DIGITS

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int/str digit limit")
    def test_no_interpreter_limit_keeps_the_digit_rule(self):
        # With the interpreter's limit off, str() once printed any coefficient.
        bound = 10**MAX_LITERAL_DIGITS  # the least int of 4301 digits
        t1 = RingSpec.default(Q, 1).gen(1)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert digit_limit() == MAX_LITERAL_DIGITS
            assert str((bound - 1) * t1) == "9" * MAX_LITERAL_DIGITS + "*t1"
            assert str(Q.element(Fraction(-1, bound - 1))) == "-1/" + "9" * MAX_LITERAL_DIGITS
            for value in (bound * t1, Fraction(1, bound) * t1, Q.element(bound),
                          Q.element(Fraction(1, bound))):
                with pytest.raises(SizeLimitError) as info:
                    str(value)
                assert str(info.value) == (
                    "a coefficient of more than 4300 digits cannot be printed"
                )
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: WIDE.gen(1).coefficient((1,)), ArgumentError,
         "bad exponent vector (1,) for Q ring of 3000 variables"),
        (lambda: WIDE.gen(1) + NARROWER.gen(1), RingMismatchError,
         "cannot combine polynomials over Q ring of 3000 variables and "
         "Q ring of 2999 variables"),
        (lambda: embed(WIDE.gen(1), NARROWER), RingMismatchError,
         "Q ring of 2999 variables does not extend Q ring of 3000 variables"),
        (lambda: MonomialPrimeIdeal(WIDE, 1).contains(NARROWER.gen(1)), RingMismatchError,
         "Q ring of 2999 variables is not Q ring of 3000 variables"),
        (lambda: divide_monic(NARROWER.gen(1), WIDE.gen(3000)), RingMismatchError,
         "Q ring of 2999 variables is not Q ring of 3000 variables"),
        (lambda: QR2.gen(1) + FR2.gen(1), RingMismatchError,
         "cannot combine polynomials over Q[t1,t2] and F5[t1,t2]"),
        (lambda: embed(QR3.gen(1), QR2), RingMismatchError,
         "Q[t1,t2] does not extend Q[t1,t2,t3]"),
        (lambda: RingSpec.default(Q, 11).gen(1).coefficient((1,)), ArgumentError,
         "bad exponent vector (1,) for Q[t1,t2,t3,t4,t5,t6,t7,t8,t9,t10,t11]"),
        (lambda: RingSpec.default(Q, 12).gen(1).coefficient((1,)), ArgumentError,
         "bad exponent vector (1,) for Q ring of 12 variables"),
    ], ids=["vector", "combine", "embed", "chain", "divide", "short-combine", "short-embed",
            "40-characters", "41-characters"])
    def test_rings_in_errors_are_named_by_one_rule(self, call, error, message):
        # A ring of more than 40 characters is named by its field and width; in
        # 3000 variables these once wrote out every name (up to 33,821 characters).
        with pytest.raises(error) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)
        assert len(message) <= 200

    @pytest.mark.parametrize("images", [[1, 2], (None, None)])
    def test_substitution_image_that_is_not_a_polynomial(self, images):
        # substitute([1, 2]) once escaped as an AttributeError.
        with pytest.raises(RingMismatchError, match="all substitution images must share one ring"):
            P("t1*t2 + 1").substitute(images)

    @pytest.mark.parametrize("exps", [(1,), (True, 0), (1, -1), [1, 0.0]])
    def test_coefficient_of_a_bad_exponent_vector(self, exps):
        # coefficient((True, 0)) of t1 + 1 once answered 0 where (1, 0) answers 1.
        with pytest.raises(ValueError) as info:
            P("t1 + 1").coefficient(exps)
        assert str(info.value) == f"bad exponent vector {tuple(exps)!r} for Q[t1,t2]"

    def test_coefficient_of_a_valid_exponent_vector(self):
        f = P("t1 + 1")
        assert f.coefficient((1, 0)) == Q.one() and type(f.coefficient((1, 0))) is FieldElement
        assert f.coefficient([0, 1]) == Q.zero()
        with pytest.raises(SizeLimitError):
            f.coefficient((2**63, 0))


class TestRingSpecTypes:
    """A ring's field is a FieldSpec and its names a tuple, or ArgumentError."""

    @pytest.mark.parametrize(
        "call,message",
        [
            # A list was accepted, unhashable and unequal to the tuple's ring.
            (lambda: RingSpec(Q, ["t1"]), "variable names must be a tuple, got ['t1']"),
            (lambda: RingSpec(Q, "t1"), "variable names must be a tuple, got 't1'"),
            (
                lambda: RingSpec(Q, ["t"] * 3000),
                "variable names must be a tuple, got a value of 15000 characters",
            ),
            # A str field once failed later, as an AttributeError from arithmetic.
            (lambda: RingSpec("Q", ("t1",)), "a ring needs a FieldSpec, got 'Q'"),
            (lambda: RingSpec(None, ("t1",)), "a ring needs a FieldSpec, got None"),
        ],
        ids=["names-list", "names-str", "names-long-list", "field-str", "field-None"],
    )
    def test_refused(self, call, message):
        with pytest.raises(ArgumentError) as info:
            call()
        assert str(info.value) == message


class TestVariableNames:
    """RingSpec accepts exactly the names the grammar's regex matches."""

    @staticmethod
    def accepted(name):
        try:
            RingSpec(Q, (name,))
        except ValueError:
            return False
        return True

    @pytest.mark.parametrize(
        "name", ["", "t1\n", "_a", "1a", "²", "é", "ß", "٣", "ǅ", "ａ", "t1²", "x", "Ab9"]
    )
    def test_edge_cases(self, name):
        assert self.accepted(name) == bool(oracles.VAR_NAME_RE.match(name))

    @given(name=st.one_of(
        st.text(),
        st.text(alphabet="aZ09_ \n²é٣ǅａ"),
        st.from_regex(oracles.VAR_NAME_RE),
    ))
    @settings(max_examples=300, derandomize=True)
    def test_against_the_regex(self, name):
        assert self.accepted(name) == bool(oracles.VAR_NAME_RE.match(name))


class TestIndexOf:
    """RingSpec.index_of is one dict lookup, built once per ring and invisible to ==."""

    RING = RingSpec(Q, tuple(f"x{j}" for j in range(999, 0, -1)) + ("t1",))

    def test_every_name(self):
        ring = self.RING
        assert [ring.index_of(name) for name in ring.variables] == [
            ring.variables.index(name) + 1 for name in ring.variables
        ] == list(range(1, 1001))

    @pytest.mark.parametrize("name", ["x1000", "x0", "t2", "T1", ""])
    def test_unknown_name(self, name):
        with pytest.raises(KeyError):
            self.RING.index_of(name)

    def test_ring_identity_unchanged(self):
        ring = RingSpec(Q, self.RING.variables)
        ring.index_of("t1")
        assert ring == self.RING and hash(ring) == hash(self.RING)
        assert pickle.loads(pickle.dumps(ring)) == ring
        assert pickle.loads(pickle.dumps(ring)).index_of("x1") == 999

    def test_unknown_variable_errors_unchanged(self):
        with pytest.raises(UnknownVariableError) as exc_info:
            P("x999 + t1*x2^2 - 3*y1", self.RING)
        err = exc_info.value
        assert (err.offset, err.name, str(err)) == (
            19, "y1", "unknown variable 'y1' (byte 19)")


class TestSubstitution:
    def test_identity(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        assert f.substitute(QR2.gens()) == f

    def test_example_shear(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        t1, t2 = QR2.gens()
        image = f.substitute([t1 + t2, t2])
        assert image == P("t1^3 + 3*t1^2*t2 + 3*t1*t2^2 + t2^3")+ P(
            "2*t1^2*t2 + 4*t1*t2^2 + 2*t2^3"
        ) + P("4*t2^3")

    def test_into_other_ring(self):
        f = P("t1*t2 + t1")
        images = [parse_polynomial("t1", QR3), parse_polynomial("t2*t3", QR3)]
        assert f.substitute(images) == parse_polynomial("t1*t2*t3 + t1", QR3)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            P("t1").substitute([QR2.gen(1)] * 3)
        with pytest.raises(RingMismatchError):
            P("t1").substitute([QR2.gen(1), parse_polynomial("t1", QR3)])
        with pytest.raises(RingMismatchError):
            P("t1 + 1/2").substitute([parse_polynomial("t1", FR2), parse_polynomial("t2", FR2)])

    @given(f=polys(QR2, max_terms=4))
    @settings(max_examples=40)
    def test_against_oracle(self, f):
        t1, t2 = QR2.gens()
        images = [t1 + t2, t1 * t2 - 1]
        expected = oracles.naive_subst(
            oracles.raw(f), [oracles.raw(img) for img in images], 2
        )
        assert oracles.raw(f.substitute(images)) == expected

    def test_large_exponents_against_oracle(self):
        # Powers built by squaring and by one more factor, in either order.
        f = P("t1^37*t2^5 - 2*t1^20 + t2^64 + 1/3*t1^19*t2^6")
        t1, t2 = QR2.gens()
        images = [t1 + t2, 2 * t2 - 1]
        expected = oracles.naive_subst(
            oracles.raw(f), [oracles.raw(img) for img in images], 2
        )
        assert oracles.raw(f.substitute(images)) == expected

    @given(f=polys(QR2, max_terms=4))
    @settings(max_examples=40)
    def test_compatible_with_evaluation(self, f):
        t1, t2 = QR2.gens()
        images = [t1 - 2 * t2, t2 + 1]
        point = [Fraction(1, 2), Fraction(3)]
        image_values = [img.evaluate(point) for img in images]
        assert f.substitute(images).evaluate(point) == f.evaluate(image_values)


class TestCoefficientsIn:
    def test_buckets(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        buckets = f.coefficients_in(2)
        assert buckets[0] == P("t1^3")
        assert buckets[1] == P("2*t1^2")
        assert buckets[3] == P("4")
        assert set(buckets) == {0, 1, 3}

    @given(f=polys(QR3), j=st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_reconstruction(self, f, j):
        t = QR3.gen(j)
        total = QR3.zero()
        for e, part in f.coefficients_in(j).items():
            assert part.degree_in(j) in (None, 0)
            total = total + part * t**e
        assert total == f

    def test_join_and_ideal_bounds(self):
        for j in (0, 4):
            with pytest.raises(ValueError):
                Polynomial.from_coefficients_in(QR3, j, {})
        for k in (-1, 4):
            with pytest.raises(ValueError):
                QR3.one().in_variable_ideal(k)


class TestCanonicalText:
    def test_graded_lex_descending(self):
        assert str(P("4*t2^3 + t1^3 + 2*t1^2*t2")) == "t1^3 + 2*t1^2*t2 + 4*t2^3"
        assert str(P("t2 + t1 + t2^2")) == "t2^2 + t1 + t2"
        assert str(P("t1*t2 + t1^2 + t2^2")) == "t1^2 + t1*t2 + t2^2"

    def test_signs_and_units(self):
        assert str(QR2.zero()) == "0"
        assert str(P("-t1 - 1/2*t2 + 3")) == "-t1 - 1/2*t2 + 3"
        assert str(P("t1 - t2")) == "t1 - t2"
        assert str(QR2.constant(Fraction(-7, 2))) == "-7/2"
        assert str(P("1*t1")) == "t1"

    def test_prime_field_text(self):
        f = parse_polynomial("4*t1 + 3", FR2)
        assert str(f) == "4*t1 + 3"
        assert str(parse_polynomial("0 - t1", FR2)) == "4*t1"

    def test_negative_rational_terms(self):
        f = P("-t1^2 - 3/2*t1*t2 - t2 - 1")
        assert str(f) == "-t1^2 - 3/2*t1*t2 - t2 - 1"
        assert str(-f) == "t1^2 + 3/2*t1*t2 + t2 + 1"
        assert str(QR2.constant(-1)) == "-1"

    def test_prime_field_terms_are_never_negative(self):
        f = parse_polynomial("-t1^2 - 2*t1*t2 - t2 - 1", FR2)
        assert str(f) == "4*t1^2 + 3*t1*t2 + 4*t2 + 4"
        assert str(-f) == "t1^2 + 2*t1*t2 + t2 + 1"
        assert str(FR2.constant(-1)) == "4"


class TestScalarOperands:
    """Which operands a polynomial takes as scalars."""

    @pytest.mark.parametrize("other", [True, "x", 0.5])
    def test_non_scalars_are_refused(self, other):
        f = P("t1 + 1")
        assert (f == other) is False
        with pytest.raises(TypeError):
            f + other
        with pytest.raises(TypeError):
            other * f

    @pytest.mark.parametrize("other", [True, "x", 0.5])
    def test_non_scalars_are_refused_by_subtraction(self, other):
        f = P("t1 + 1")
        with pytest.raises(TypeError):
            f - other
        with pytest.raises(TypeError):
            other - f

    def test_a_fraction_with_no_value_in_the_field_is_unequal(self):
        # As FieldElement.__eq__ answers; + and * still raise.
        assert (FR2.one() == Fraction(1, 5)) is False
        assert FR2.one() == Fraction(6)
        with pytest.raises(ZeroDivisionError):
            FR2.one() + Fraction(1, 5)
        with pytest.raises(ZeroDivisionError):
            FR2.one() * Fraction(1, 5)

    def test_one_is_not_true(self):
        assert (QR2.one() == True) is False  # noqa: E712
        assert QR2.one() == 1
        assert QR2.one() == Q.one()

    def test_scalars_of_the_field(self):
        f = P("t1 + 1")
        assert str(f + Fraction(1, 2)) == "t1 + 3/2"
        assert str(2 * f) == "2*t1 + 2"
        assert str(Q.element(3) - f) == "-t1 + 2"
        assert parse_polynomial("t1", FR2) + F5.element(4) == parse_polynomial("t1 - 1", FR2)

    @pytest.mark.parametrize(
        "other",
        [F5.one(), FieldSpec.prime(7).one(), RingSpec.default(Q, 3).gen(1), FR2.gen(1),
         RingSpec(Q, ("a", "b")).gen(1)],
        ids=["F5-element", "F7-element", "wider-ring", "F5-ring", "other-names"],
    )
    def test_another_field_or_ring_is_unequal(self, other):
        # Both orders answer; t1 == F5.one() once raised FieldMismatchError.
        t1 = QR2.gen(1)
        assert (t1 == other) is False and (other == t1) is False
        assert (t1 != other) is True and (other != t1) is True

    def test_a_fraction_with_no_value_in_the_field_is_unequal_both_ways(self):
        assert (Fraction(1, 5) == FR2.one()) is False
        assert (FR2.gen(1) == Fraction(2, 5)) is False

    def test_equal_rings_built_twice_compare_by_value(self):
        other = RingSpec(Q, ("t1", "t2"))
        assert other is not QR2
        assert P("t1 + 1") == parse_polynomial("t1 + 1", other)
        assert parse_polynomial("t1 + 1", other) == P("t1 + 1")
        assert (P("t1 + 1") == parse_polynomial("t1 - 1", other)) is False

    def test_scalars_compare_as_constants(self):
        assert QR2.constant(3) == 3 and 3 == QR2.constant(3)
        assert QR2.constant(Fraction(1, 2)) == Q.element(Fraction(1, 2))
        assert FR2.constant(2) == F5.element(7) and F5.element(7) == FR2.constant(2)
        assert (QR2.gen(1) == 0) is False

    def test_element_of_another_field(self):
        f = parse_polynomial("t1", FR2)
        with pytest.raises(FieldMismatchError) as info:
            f + FieldSpec.prime(7).element(1)
        assert str(info.value) == "cannot coerce element of F7 into F5"


class TestEmbed:
    def test_prefix_extension(self):
        f = parse_polynomial("t1^2 + 1", RingSpec.default(Q, 1))
        g = embed(f, QR3)
        assert g == parse_polynomial("t1^2 + 1", QR3)

    def test_rejects_non_extension(self):
        with pytest.raises(RingMismatchError):
            embed(P("t1"), RingSpec(Q, ("u", "v", "w")))
        with pytest.raises(RingMismatchError):
            embed(P("t1"), FR2)


class TestRandomPolynomial:
    def test_seed_determinism(self):
        a = random_polynomial(random.Random(11), QR3)
        b = random_polynomial(random.Random(11), QR3)
        assert a == b

    def test_constraints(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_polynomial(rng, QR2, max_degree=3, max_terms=4, nonzero=True)
            assert not f.is_zero
            assert f.total_degree() <= 3
            assert len(f.terms) <= 4

    @pytest.mark.parametrize("field", [Q, FieldSpec.prime(2), FieldSpec.prime(7)])
    @pytest.mark.parametrize("n", [3, 200])
    def test_canonical_and_seeded(self, field, n):
        # At max_degree=1 in few variables keys repeat, and over F2 about half
        # the draws are 0 and a repeated key cancels: no zero may be stored.
        ring = RingSpec.default(field, n)
        for seed in range(40):
            for max_degree in (5, 1):
                f = random_polynomial(random.Random(seed), ring, max_terms=6,
                                      max_degree=max_degree)
                assert_canonical(f)
                again = random_polynomial(random.Random(seed), ring, max_terms=6,
                                          max_degree=max_degree)
                assert again.terms == f.terms

    @pytest.mark.parametrize("field", [Q, FieldSpec.prime(2), FieldSpec.prime(7)])
    def test_same_draws_as_checked_constructor(self, field):
        # Drawing term by term through random_scalar and the checked
        # constructor gives the same polynomials and leaves the RNG in the
        # same state, so seeded chain reports do not change.
        ring = RingSpec.default(field, 2)
        fast, slow = random.Random(3), random.Random(3)
        for _ in range(200):
            terms = []
            for _ in range(slow.randint(0, 6)):
                exps = [0, 0]
                for _ in range(slow.randint(0, 2)):
                    exps[slow.randrange(2)] += 1
                terms.append((tuple(exps), random_scalar(slow, field)))
            f = random_polynomial(fast, ring, max_degree=2, max_terms=6)
            assert f.terms == Polynomial(ring, terms).terms
        assert fast.getstate() == slow.getstate()

    def test_q_draws_leave_no_common_factor_but_after_a_merge(self, monkeypatch):
        # Over Q the numerators are drawn over 2520; dividing out their gcd
        # before the merge leaves _reduced no factor to divide out, and so no
        # dict to rebuild, unless a repeated key's sum brings one back.  A
        # second stream, drawn by randrange and randint, finds those draws.
        # Counts at chain-verify's shape in 20 variables.
        shared = 0

        def spy(ring, keys, den=1):
            nonlocal shared
            shared += gcd(den, *keys.values()) != 1
            return reduced(ring, keys, den)

        reduced = poly._reduced
        monkeypatch.setattr(poly, "_reduced", spy)
        ring = RingSpec.default(Q, 20)
        fast, slow = random.Random(84), random.Random(84)
        repeated = 0
        for _ in range(2000):
            keys = []
            for _ in range(slow.randrange(5)):
                exps = [0] * 20
                for _ in range(slow.randrange(5)):
                    exps[slow.randrange(20)] += 1
                if slow.randint(-9, 9) * slow.randint(1, 9):
                    keys.append(tuple(exps))
            repeated += len(set(keys)) < len(keys)
            random_polynomial(fast, ring, max_degree=4, max_terms=4)
        assert fast.getstate() == slow.getstate()
        assert shared <= repeated, (shared, repeated)

    @pytest.mark.parametrize("max_terms, max_degree, nonzero", [
        (-1, 5, False), (4, -1, False), (0, 5, True),
    ], ids=["no-term-count", "no-degree", "nonzero-from-no-terms"])
    def test_empty_ranges_are_refused(self, max_terms, max_degree, nonzero):
        # randint(0, -1) once raised from the first draw, or, for a degree,
        # only when a term was drawn; nonzero with no terms never returned.
        with pytest.raises(ArgumentError) as info:
            random_polynomial(random.Random(0), QR2, max_terms=max_terms,
                              max_degree=max_degree, nonzero=nonzero)
        assert str(info.value) == (
            f"max_terms must be at least {int(nonzero)} and max_degree at least 0")


# sha256 of draw_stream_text(), taken before the draws went through getrandbits.
DRAW_STREAM_DIGEST = "09333a52990447bcc9252f61766c6dfce7d0eaef4709a1230b73a4cc6d1840ee"


def draw_stream_text() -> str:
    """random_polynomial's draws over Q, F2 and F32003 at n = 1, 3, 20 and 200,
    each seed's next 64 random bits after them, and seeded chain reports."""
    lines = []
    for field in (Q, FieldSpec.prime(2), FieldSpec.prime(32003)):
        for n in (1, 3, 20, 200):
            ring = RingSpec.default(field, n)
            for seed in range(8):
                rng = random.Random(seed)
                lines += [str(random_polynomial(rng, ring, nonzero=seed % 2 == 1))
                          for _ in range(10)]
                lines.append(str(rng.getrandbits(64)))
    for field in (Q, FieldSpec.prime(32003)):
        for n in (3, 20):
            for seed in (0, 1729):
                report = verify_chain(RingSpec.default(field, n), checks_per_level=20, seed=seed)
                lines.append(json.dumps(report.to_json_dict(), sort_keys=True))
    return "\n".join(lines)


class TestDrawStream:
    """The sampler's stream is test data and seeded reports: it must stay the
    stream of random.Random's randrange and randint."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 19, 200, 32003, 100000, 2**61 - 1])
    def test_randbelow_is_randrange_and_randint(self, n):
        # An interpreter whose randrange draws otherwise fails here, loudly,
        # rather than silently changing every seeded sample.
        k = n.bit_length()
        for seed in range(60):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = [(_randbelow(ours.getrandbits, n, k), 1 + _randbelow(ours.getrandbits, n, k))
                   for _ in range(20)]
            assert got == [(theirs.randrange(n), theirs.randint(1, n)) for _ in range(20)]
            assert ours.getstate() == theirs.getstate()

    def test_golden_draws_and_reports(self):
        digest = hashlib.sha256(draw_stream_text().encode()).hexdigest()
        assert digest == DRAW_STREAM_DIGEST


F7R3 = RingSpec.default(FieldSpec.prime(7), 3)


def assert_canonical(f):
    """Every stored scalar is canonical, and the trusted result round-trips."""
    p = f.ring.field.modulus
    for c in f.terms.values():
        if p is None:
            assert type(c) is Fraction and c != 0
        else:
            assert type(c) is int and 1 <= c < p
    assert Polynomial(f.ring, f.terms) == f


def ring_with_polys(count):
    return st.sampled_from([QR3, F7R3]).flatmap(
        lambda ring: st.tuples(st.just(ring), *[polys(ring, max_terms=4)] * count)
    )


class TestRawRepresentation:
    @given(
        case=ring_with_polys(5),
        e=st.integers(min_value=0, max_value=3),
        j=st.integers(min_value=1, max_value=3),
        k=st.integers(min_value=0, max_value=3),
        d=st.integers(min_value=0, max_value=6),
        scalar=st.integers(min_value=-8, max_value=8),
    )
    @settings(max_examples=150)
    def test_results_hold_canonical_scalars(self, case, e, j, k, d, scalar):
        ring, f, g, *images = case
        joined = Polynomial.from_coefficients_in(ring, j, f.coefficients_in(j))
        term = Polynomial(ring, {(e, d, j): scalar})
        results = [
            f + g, f - g, f - f, f * g, -f, f**e,
            f + scalar, scalar - f, f * scalar,
            f.substitute(images),
            f.homogeneous_component(d),
            embed(f, RingSpec.default(ring.field, 4)),
            *f.split_by_support(k),
            *f.coefficients_in(j).values(),
            joined,
            term,
        ]
        for result in results:
            assert_canonical(result)
        assert joined == f
        assert term == Polynomial(ring, {(e, d, j): scalar})
        assert f.in_variable_ideal(k) == f.split_by_support(k)[1].is_zero

    def test_scalar_forms(self):
        assert QR2.gen(1).terms == {(1, 0): Fraction(1)}
        assert type(QR2.constant(3).terms[(0, 0)]) is Fraction
        assert parse_polynomial("-t1 + 9", FR2).terms == {(1, 0): 4, (0, 0): 4}
        assert QR2.constant(0).is_zero and FR2.constant(5).is_zero


STORED_RINGS = [RingSpec.default(field, 3) for field in (Q, FieldSpec.prime(2), FieldSpec.prime(32003))]


def stored_terms(ring):
    # (exps, coefficient) lists with repeated monomials, for Polynomial(ring, ...).
    p = ring.field.modulus
    if p:
        coeffs = st.integers(min_value=-p, max_value=2 * p)
    else:
        coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=30)
    return st.lists(st.tuples(exponents(3, max_each=2), coeffs), max_size=4)


def assert_stored_form(f):
    """Nonzero int numerators over one den >= 1 with gcd 1; den 1 for zero and over F_p."""
    nums, den, p = list(f._keys.values()), f._den, f.ring.field.modulus
    assert type(den) is int and den >= 1
    assert all(type(c) is int and c for c in nums)
    assert gcd(den, *nums) == 1
    if p:
        assert den == 1 and all(0 < c < p for c in nums)
    if not nums:
        assert den == 1


def random_oracle(rng, ring, max_degree, max_terms):
    # random_polynomial's draws, replayed through random_scalar and summed naively.
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        term = {tuple(exps): random_scalar(rng, ring.field).value}
        out = oracles.naive_add(out, term, ring.field.modulus)
    return out


def grouped_text(terms: dict, names) -> str:
    # The benchmark decks' form, "(c)*t1^2*t2 + ...", one group per coefficient.
    parts = []
    for exps, c in terms.items():
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e]
        parts.append("*".join([f"({c})", *factors]))
    return " + ".join(parts) or "0"


class TestStoredForm:
    """Every result-building operation returns the canonical stored form and
    agrees with the naive oracles, over Q, F2 and F32003."""

    @given(
        case=st.sampled_from(STORED_RINGS).flatmap(
            lambda ring: st.tuples(st.just(ring), *[stored_terms(ring)] * 6)
        ),
        e=st.integers(min_value=0, max_value=3),
        j=st.integers(min_value=1, max_value=3),
        k=st.integers(min_value=0, max_value=3),
        d=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_results_are_canonical_and_match_the_oracles(self, case, e, j, k, d, seed):
        ring, *term_lists = case
        p, n, names = ring.field.modulus, ring.nvars, ring.variables
        raw = oracles.raw
        f, g, h, *images = [Polynomial(ring, ts) for ts in term_lists]
        F, G, H = raw(f), raw(g), raw(h)
        text = f"({f})*({g}) - ({h})^{e} + (-2/3)^{e}*t{j} + {grouped_text(F, names)}"
        free = [x.coefficients_in(j).get(0, ring.zero()) for x in (f, g, h)]
        joined = Polynomial.from_coefficients_in(ring, j, dict(enumerate(free)))
        dependent, rest = f.split_by_support(k)

        def at_j(exps, i):
            return exps[: j - 1] + (i,) + exps[j:]

        results = [
            (x, reduce(lambda acc, t: oracles.naive_add(acc, {t[0]: t[1]}, p), ts, {}))
            for x, ts in zip((f, g, h, *images), term_lists)
        ]
        results += [
            (parse_polynomial(text, ring), oracles.reference_parse(text, names, p)),
            (f + g, oracles.naive_add(F, G, p)),
            (f - g, oracles.naive_add(F, oracles.naive_neg(G, p), p)),
            (f * g, oracles.naive_mul(F, G, p)),
            (h**e, oracles.naive_pow(H, e, n, p)),
            (-f, oracles.naive_neg(F, p)),
            (dependent, {x: c for x, c in F.items() if any(x[:k])}),
            (rest, {x: c for x, c in F.items() if not any(x[:k])}),
            (f.homogeneous_component(d), {x: c for x, c in F.items() if sum(x) == d}),
            (joined, {at_j(x, i): c for i, s in enumerate(free) for x, c in raw(s).items()}),
            (Polynomial.from_coefficients_in(ring, j, f.coefficients_in(j)), F),
            (embed(f, RingSpec.default(ring.field, 4)), {x + (0,): c for x, c in F.items()}),
            (f.substitute(images), oracles.naive_subst(F, [raw(x) for x in images], n, p)),
            (random_polynomial(random.Random(seed), ring, max_degree=3, max_terms=5),
             random_oracle(random.Random(seed), ring, 3, 5)),
        ]
        results += [
            (s, {at_j(x, 0): c for x, c in F.items() if x[j - 1] == i})
            for i, s in f.coefficients_in(j).items()
        ]
        for result, expected in results:
            assert_stored_form(result)
            assert raw(result) == expected
        point = [seed % 7 - 3, 2, -1] if p else [Fraction(seed % 7 - 3, 1 + seed % 5), 2, -1]
        assert f.evaluate(point).value == oracles.naive_eval(F, point, p)


class TestTermViews:
    """coefficient, sorted_terms and iteration agree with the term dict."""

    @pytest.mark.parametrize("ring", [QR3, F7R3])
    def test_views_match_terms(self, ring):
        f = parse_polynomial("t1*t2*t3 - 2/3*t3 + 3*t1^2*t2 + 5", ring)
        spec = ring.field
        ordered = f.sorted_terms()
        assert [e for e, _ in ordered] == [(2, 1, 0), (1, 1, 1), (0, 0, 1), (0, 0, 0)]
        assert all(type(c) is FieldElement and c.spec == spec for _, c in ordered)
        assert {e: c.value for e, c in ordered} == f.terms
        assert list(f) == ordered
        for exps, c in f.terms.items():
            assert f.coefficient(list(exps)) == spec.element(c)
        assert f.coefficient((0, 1, 0)) == spec.zero()

    def test_repr_names_the_text_and_the_ring(self):
        assert repr(P("t1 - 1/2")) == "<Polynomial t1 - 1/2 over Q[t1,t2]>"
        assert repr(QR2.zero()) == "<Polynomial 0 over Q[t1,t2]>"

    @pytest.mark.parametrize("ring", [QR3, F7R3])
    def test_views_of_zero(self, ring):
        zero = ring.zero()
        assert zero.terms == {}
        assert zero.sorted_terms() == [] and list(zero) == []
        assert zero.coefficient((0, 0, 0)) == ring.field.zero()


def q_polys(max_terms=6):
    coeffs = st.fractions(max_denominator=10**12)
    pairs = st.tuples(exponents(3), coeffs)
    return st.lists(pairs, max_size=max_terms).map(lambda ts: Polynomial(QR3, ts))


class TestRationalProduct:
    """Q products run on integer numerators over one denominator per factor."""

    def check(self, f, g):
        h = f * g
        assert oracles.raw(h) == oracles.naive_mul(oracles.raw(f), oracles.raw(g))
        assert_canonical(h)
        return h

    @given(q_polys(), q_polys())
    @settings(max_examples=150, deadline=None)
    def test_against_naive_product(self, f, g):
        self.check(f, g)

    def test_cancelling_terms(self):
        h = self.check(P("1/2*t1 + 1/3*t2"), P("1/2*t1 - 1/3*t2"))
        assert h.terms == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
        assert self.check(P("3/4*t1 - 5/6"), P("3/4*t1 + 5/6")) == P("9/16*t1^2 - 25/36")

    def test_zero_factor(self):
        f = P("2/3*t1^2 - 5/7*t2 + 1/11")
        assert self.check(f, QR2.zero()).is_zero
        assert self.check(QR2.zero(), f).is_zero
        assert (f * 0).is_zero and (0 * f).is_zero

    def test_integer_coefficients(self):
        h = self.check(P("2*t1 + 3"), P("t1 - 5"))
        assert h.terms == {(2, 0): 2, (1, 0): -7, (0, 0): -15}
        assert all(type(c) is Fraction and c.denominator == 1 for c in h.terms.values())

    def test_one_integral_factor(self):
        h = self.check(P("t1 + 2*t2"), P("1/6*t1 - 1/4"))
        assert h == P("1/6*t1^2 + 1/3*t1*t2 - 1/4*t1 - 1/2*t2")

    def test_pairwise_coprime_denominators(self):
        h = self.check(P("1/3*t1 + 1/5*t2 + 1/7"), P("1/11*t1 - 1/13*t2 + 1/17"))
        assert h.terms[(0, 0)] == Fraction(1, 119)
        assert h.terms[(1, 1)] == Fraction(1, 55) - Fraction(1, 39)
        big = [2**61 - 1, 2**89 - 1, 2**107 - 1]
        f = Polynomial(QR2, {(1, 0): Fraction(1, big[0]), (0, 1): Fraction(3, big[1])})
        g = Polynomial(QR2, {(1, 0): Fraction(5, big[2]), (0, 0): Fraction(-7, 2)})
        self.check(f, g)

    def test_constants(self):
        a, b = QR2.constant(Fraction(2, 3)), QR2.constant(Fraction(9, 4))
        assert self.check(a, b) == Fraction(3, 2)
        f = P("3/4*t1 - 1/2")
        assert self.check(f, QR2.constant(Fraction(-8, 3))) == P("-2*t1 + 4/3")
        assert f * Fraction(4, 3) == Fraction(4, 3) * f == P("t1 - 2/3")
        assert f * 4 == P("3*t1 - 2")


DOT_RINGS = [QR3] + [RingSpec.default(FieldSpec.prime(p), 3) for p in (2, 3, 32003)]


def dot_polys(ring, max_terms=4):
    # Over Q, denominators up to 10**6, so the pairs rarely share one.
    if ring.field.modulus:
        coeffs = st.integers(min_value=0, max_value=ring.field.modulus - 1)
    else:
        coeffs = st.fractions(max_denominator=10**6)
    pairs = st.tuples(exponents(ring.nvars, max_each=3), coeffs)
    return st.lists(pairs, max_size=max_terms).map(lambda ts: Polynomial(ring, ts))


def naive_dot(pairs, modulus):
    total = {}
    for x, y in pairs:
        product = oracles.naive_mul(oracles.raw(x), oracles.raw(y), modulus)
        total = oracles.naive_add(total, product, modulus)
    return total


class TestDot:
    """RingSpec.dot sums many products in one accumulator, reduced once per term."""

    def check(self, ring, pairs):
        h = ring.dot(iter(pairs))
        assert oracles.raw(h) == naive_dot(pairs, ring.field.modulus)
        assert_canonical(h)
        return h

    @given(
        case=st.sampled_from(DOT_RINGS).flatmap(
            lambda ring: st.tuples(
                st.just(ring), st.lists(st.tuples(dot_polys(ring), dot_polys(ring)), max_size=6)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_against_naive_sum_of_products(self, case):
        self.check(*case)

    @pytest.mark.parametrize("ring", DOT_RINGS, ids=str)
    def test_empty_zero_factors_and_one_pair(self, ring):
        f = parse_polynomial("t1*t2 - 2*t3 + 5", ring)
        g = parse_polynomial("3*t1^2 + t3 - 1", ring)
        zero = ring.zero()
        assert self.check(ring, []) == zero
        assert self.check(ring, [(zero, f), (g, zero), (zero, zero)]) == zero
        assert self.check(ring, [(f, g)]) == f * g
        assert self.check(ring, [(zero, f), (f, g), (g, zero)]) == f * g

    @pytest.mark.parametrize("ring", DOT_RINGS, ids=str)
    def test_products_that_cancel(self, ring):
        f = parse_polynomial("t1*t2 - 2*t3 + 5", ring)
        g = parse_polynomial("3*t1^2 + t3 - 1", ring)
        assert self.check(ring, [(f, g), (-f, g)]).is_zero
        assert self.check(ring, [(f, g), (g, -f), (f, f)]) == f * f
        p = ring.field.modulus
        if p:
            # p copies of one product sum to zero in F_p.
            assert self.check(ring, [(f, g)] * p).is_zero

    def test_pairwise_coprime_denominators(self):
        # Each pair brings new primes, so the common denominator grows at
        # every pair and the sum so far is scaled up to it.
        x, y = parse_polynomial("1/3*t1 + 1/5*t2", QR3), parse_polynomial("1/7*t1 - 1/11", QR3)
        u, v = parse_polynomial("1/13*t1*t2 + 1/17", QR3), parse_polynomial("1/19*t2", QR3)
        h = self.check(QR3, [(x, y), (u, v), (x, v)])
        assert h.coefficient((1, 1, 0)) == Fraction(1, 35) + Fraction(1, 57)
        big = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]
        f = Polynomial(QR3, {(1, 0, 0): Fraction(1, big[0]), (0, 1, 0): Fraction(3, big[1])})
        g = Polynomial(QR3, {(1, 0, 0): Fraction(5, big[2]), (0, 0, 0): Fraction(-7, 2)})
        k = Polynomial(QR3, {(0, 0, 1): Fraction(2, big[3])})
        self.check(QR3, [(f, g), (k, f), (g, k), (f, -g)])


WIDE_NS = (1, 2, 3, 20, 200)


@st.composite
def wide_case(draw):
    """A ring of 1 to 200 variables and two sparse polynomials in it."""
    n = draw(st.sampled_from(WIDE_NS))
    field = draw(st.sampled_from([Q, FieldSpec.prime(7), FieldSpec.prime(32003)]))
    ring = RingSpec.default(field, n)
    if field.modulus:
        coeffs = st.integers(min_value=0, max_value=field.modulus - 1)
    else:
        coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    # At most three variables per term, each to at most the 4th power.
    support = st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), max_size=3)
    exps = support.map(lambda d: tuple(d.get(i, 0) for i in range(n)))
    poly = st.lists(st.tuples(exps, coeffs), max_size=4).map(lambda ts: Polynomial(ring, ts))
    return ring, draw(poly), draw(poly)


class TestWideRings:
    """Every operation that reads exponent vectors, in rings of 1 to 200 variables."""

    @given(case=wide_case(), data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_against_oracles_and_the_term_view(self, case, data):
        ring, f, g = case
        n, p = ring.nvars, ring.field.modulus
        a, b = oracles.raw(f), oracles.raw(g)
        assert oracles.raw(f * g) == oracles.naive_mul(a, b, p)
        assert oracles.raw(f + g) == oracles.naive_add(a, b, p)
        assert oracles.raw(f - g) == oracles.naive_add(a, oracles.naive_neg(b, p), p)
        assert parse_polynomial(str(f), ring) == f
        assert f.total_degree() == oracles.total_deg(a)
        assert f.is_homogeneous() == oracles.is_homog(a)
        assert [e for e, _ in f.sorted_terms()] == sorted(a, key=lambda e: (sum(e), e), reverse=True)
        assert {e: c.value for e, c in f} == a
        for e, c in a.items():
            assert f.coefficient(e) == ring.field.element(c)

        j = data.draw(st.integers(1, n), label="j")
        assert f.degree_in(j) == max((e[j - 1] for e in a), default=None)
        slices = f.coefficients_in(j)
        expected = {}
        for e, c in a.items():
            expected.setdefault(e[j - 1], {})[e[: j - 1] + (0,) + e[j:]] = c
        assert {k: oracles.raw(s) for k, s in slices.items()} == expected
        assert Polynomial.from_coefficients_in(ring, j, slices) == f

        k = data.draw(st.integers(0, n), label="k")
        dependent, free = f.split_by_support(k)
        assert oracles.raw(dependent) == {e: c for e, c in a.items() if any(e[:k])}
        assert oracles.raw(free) == {e: c for e, c in a.items() if not any(e[:k])}
        assert f.in_variable_ideal(k) == oracles.member_scan(a, k)

        d = data.draw(st.integers(0, 12), label="d")
        assert oracles.raw(f.homogeneous_component(d)) == {
            e: c for e, c in a.items() if sum(e) == d
        }
        point = [(i % 5) - 2 if p else Fraction(i % 7 - 3, i % 3 + 1) for i in range(n)]
        assert f.evaluate(point).value == oracles.naive_eval(a, point, p)
        wider = RingSpec.default(ring.field, n + 2)
        assert oracles.raw(embed(f, wider)) == {e + (0, 0): c for e, c in a.items()}


LIMIT = 2**63 - 1


class TestDegreeLimit:
    """A monomial's total degree is at most 2^63 - 1; over it is a SizeLimitError."""

    @pytest.mark.parametrize("n", [1, 2, 200])
    def test_construction_at_the_boundary(self, n):
        ring = RingSpec.default(Q, n)
        top = (0,) * (n - 1) + (LIMIT,)
        f = Polynomial(ring, {top: 3})
        assert f.total_degree() == LIMIT and f.degree_in(n) == LIMIT
        assert f.terms == {top: 3}
        assert str(f) == f"3*t{n}^{LIMIT}"
        over = (0,) * (n - 1) + (LIMIT + 1,)
        with pytest.raises(SizeLimitError):
            Polynomial(ring, {over: 1})

    def test_the_limit_is_on_the_total_degree(self):
        halves = (2**62, 2**62)
        assert Polynomial(QR2, {(2**62, 2**62 - 1): 1}).total_degree() == LIMIT
        with pytest.raises(SizeLimitError):
            Polynomial(QR2, {halves: 1})
        with pytest.raises(SizeLimitError):
            Polynomial(QR2, {(10**5000, 0): 1})

    def test_a_zero_term_obeys_the_limit(self):
        # Every key is built, and checked, before its coefficient is looked at.
        with pytest.raises(SizeLimitError):
            QR2.sum_terms([([(1, 2**62), (2, 2**62)], 0, 1)])
        with pytest.raises(SizeLimitError):
            Polynomial(QR2, {(2**62, 2**62): 0})
        assert QR2.sum_terms([([(1, 2**62), (2, 2**62 - 1)], 0, 1)]).is_zero

    @pytest.mark.parametrize("ring", [QR2, RingSpec.default(F5, 200)], ids=str)
    def test_products_at_the_boundary(self, ring):
        t1, t2 = ring.gen(1), ring.gen(2)
        big = Polynomial(ring, {(2**62,) + (0,) * (ring.nvars - 1): 2})
        low = Polynomial(ring, {(2**62 - 1,) + (0,) * (ring.nvars - 1): 3})
        product = big * low
        assert product.total_degree() == LIMIT
        assert product.terms == {(LIMIT,) + (0,) * (ring.nvars - 1): ring.field.scalar(6)}
        assert (product * 1).total_degree() == LIMIT
        with pytest.raises(SizeLimitError):
            big * big
        with pytest.raises(SizeLimitError):
            product * t2
        with pytest.raises(SizeLimitError):
            (product + t1) * (t2 + 1)
        with pytest.raises(SizeLimitError):
            ring.dot([(t1, t2), (product, t1)])

    def test_powers_at_the_boundary(self):
        t1, t2 = QR2.gens()
        assert (t1**7) ** (LIMIT // 7) == Polynomial(QR2, {(LIMIT, 0): 1})
        assert (t1**2147483647) ** 2147483647 == Polynomial(QR2, {(2147483647**2, 0): 1})
        with pytest.raises(SizeLimitError):
            (t1**7) ** (LIMIT // 7 + 1)
        with pytest.raises(SizeLimitError):
            (t1 * t2) ** 2**62
        with pytest.raises(SizeLimitError):
            ((t1**2147483647) ** 2147483647) ** 2147483647

    def test_size_limit_is_a_domain_error_not_a_value_error(self):
        assert issubclass(SizeLimitError, KrullkitError)
        assert not issubclass(SizeLimitError, ValueError)
        assert SizeLimitError.identifier == "SizeLimit"

    def test_a_coefficient_too_long_to_print(self):
        f = QR2.constant(10**5000) * QR2.gen(1)
        with pytest.raises(SizeLimitError):
            str(f)
        with pytest.raises(SizeLimitError):
            str(f.evaluate([1, 1]))
        assert f.total_degree() == 1


class TestOperationCountContracts:
    """Operation counts that pin the kernel's powering (ROADMAP item 14):
    counts at three sizes, never times.  The one-term base keeps every
    product 1 x 1, so only the number of products can grow."""

    @pytest.fixture
    def dots(self, monkeypatch):
        calls = [0]
        dot = RingSpec.dot

        def counted(self, pairs):
            calls[0] += 1
            return dot(self, pairs)

        monkeypatch.setattr(RingSpec, "dot", counted)
        return calls

    EXPONENTS = ((10**3, 14), (10**6, 25), (2**31 - 1, 60))

    @pytest.mark.parametrize("e, expected", EXPONENTS)
    def test_parsed_power_is_square_and_multiply(self, dots, e, expected):
        """_power's square-and-multiply chain: (t1*t2)^e takes bit_length(e) - 1
        squarings and popcount(e) - 1 multiplications by the base, one
        RingSpec.dot each, O(log e) and not O(e)."""
        assert parse_polynomial(f"(t1*t2)^{e}", QR2) == Polynomial(QR2, {(e, e): 1})
        assert dots[0] == e.bit_length() + bin(e).count("1") - 2 == expected

    @pytest.mark.parametrize("e, expected", EXPONENTS)
    def test_substituted_power_is_square_and_multiply(self, dots, e, expected):
        """_power's square-and-multiply chain in substitute: the image's e-th
        power as for a parsed power, and one more RingSpec.dot that sums the
        term's pair."""
        ring = RingSpec.default(Q, 1)
        f = Polynomial(ring, {(e,): 1})
        assert f.substitute([-ring.gen(1)]) == Polynomial(ring, {(e,): -1 if e & 1 else 1})
        assert dots[0] == e.bit_length() + bin(e).count("1") - 1 == expected + 1
