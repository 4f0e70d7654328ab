"""Non-vanishing point search and the monicizing substitution."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from krullkit.errors import (
    ExhaustedFieldError,
    FieldTooSmallError,
    NotHomogeneousError,
    ZeroPolynomialError,
)
from krullkit.field import FieldElement, FieldSpec
from krullkit.integral import MonicGenerator
from krullkit.normalize import (
    LinearSubstitution,
    monicize,
    nonvanishing_point,
    nonvanishing_point_homogeneous,
)
from krullkit.parse import parse_polynomial
from krullkit.poly import Polynomial, RingSpec, random_polynomial

from test_poly import polys

Q = FieldSpec.rationals()
QR1 = RingSpec.default(Q, 1)
QR2 = RingSpec.default(Q, 2)
QR3 = RingSpec.default(Q, 3)


def P(text, ring=QR2):
    return parse_polynomial(text, ring)


class TestNonvanishingPoint:
    def test_example_is_deterministic(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        assert nonvanishing_point(f) == (Q.one(), Q.one())

    def test_skips_candidates_that_hit_roots(self):
        # 1 is a root, so the enumeration must move on to 2
        assert nonvanishing_point(parse_polynomial("t1 - 1", QR1)) == (Q.element(2),)
        assert nonvanishing_point(P("t1*t2 - 1")) == (Q.one(), Q.element(2))

    def test_postconditions_rational(self):
        rng = random.Random(3)
        for _ in range(150):
            f = random_polynomial(rng, QR3, max_degree=4, max_terms=5, nonzero=True)
            point = nonvanishing_point(f)
            assert len(point) == 3
            assert all(not c.is_zero for c in point)
            assert not f.evaluate(point).is_zero

    def test_postconditions_prime_field(self):
        # degree <= 3 over F5 never exhausts the 4 nonzero candidates
        rng = random.Random(4)
        ring = RingSpec.default(FieldSpec.prime(5), 2)
        for _ in range(150):
            f = random_polynomial(rng, ring, max_degree=3, max_terms=4, nonzero=True)
            point = nonvanishing_point(f)
            assert all(not c.is_zero for c in point)
            assert not f.evaluate(point).is_zero

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            nonvanishing_point(QR2.zero())

    def test_too_small_field(self):
        ring = RingSpec.default(FieldSpec.prime(2), 2)
        f = parse_polynomial("t1^2 + t1*t2", ring)
        with pytest.raises(FieldTooSmallError) as exc_info:
            nonvanishing_point(f)
        assert isinstance(exc_info.value.__cause__, ExhaustedFieldError)

    def test_small_field_success(self):
        ring = RingSpec.default(FieldSpec.prime(2), 2)
        f = parse_polynomial("t1*t2", ring)
        point = nonvanishing_point(f)
        assert point == (ring.field.one(), ring.field.one())

    def test_same_polynomial_larger_field_succeeds(self):
        ring = RingSpec.default(FieldSpec.prime(3), 2)
        f = parse_polynomial("t1^2 + t1*t2", ring)
        assert not f.evaluate(nonvanishing_point(f)).is_zero


class TestNonvanishingPointHomogeneous:
    def test_last_coordinate_is_one(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        point = nonvanishing_point_homogeneous(f)
        assert point[-1] == Q.one()
        assert not f.evaluate(point).is_zero

    def test_single_variable(self):
        f = parse_polynomial("5*t1^4", QR1)
        assert nonvanishing_point_homogeneous(f) == (Q.one(),)

    def test_rescaling(self):
        rng = random.Random(8)
        for _ in range(100):
            f = random_polynomial(rng, QR3, max_degree=4, max_terms=4, nonzero=True)
            form = f.leading_form()
            point = nonvanishing_point_homogeneous(form)
            assert point[-1] == Q.one()
            assert all(not c.is_zero for c in point)
            assert not form.evaluate(point).is_zero

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NotHomogeneousError):
            nonvanishing_point_homogeneous(P("t1^2 + t1"))

    def test_rejects_zero(self):
        with pytest.raises(ZeroPolynomialError):
            nonvanishing_point_homogeneous(QR2.zero())


class TestLinearSubstitution:
    def test_images(self):
        # Each variable goes to its image: t1 -> t1 + 2*t2, and t2 stays.
        sub = LinearSubstitution((Q.element(2),), Q.element(3))
        t1, t2 = QR2.gens()
        assert (sub.apply(t1), sub.apply(t2)) == (t1 + 2 * t2, t2)

    def test_apply(self):
        sub = LinearSubstitution((Q.element(1),), Q.element(1))
        assert sub.apply(P("t1^2")) == P("t1^2 + 2*t1*t2 + t2^2")

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            LinearSubstitution((), Q.zero())

    def test_wrong_arity(self):
        sub = LinearSubstitution((Q.one(), Q.one()), Q.one())
        with pytest.raises(ValueError, match="^substitution has 2 coefficients, ring needs 1$"):
            sub.apply(P("t1"))


class TestMonicize:
    def test_worked_example(self):
        f = P("t1^3 + 2*t1^2*t2 + 4*t2^3")
        result = monicize(f)
        assert [str(c) for c in result.substitution.coefficients] == ["1"]
        assert result.substitution.scale == Q.element(7)
        assert result.degree == 3
        assert result.monic == P("1/7*t1^3 + 5/7*t1^2*t2 + t1*t2^2 + t2^3")

    def test_worked_example_json(self):
        doc = monicize(P("t1^3 + 2*t1^2*t2 + 4*t2^3")).to_json_dict()
        assert doc == {
            "a": ["1"],
            "lambda": "7",
            "g": "1/7*t1^3 + 5/7*t1^2*t2 + t1*t2^2 + t2^3",
            "degree": 3,
        }

    def test_single_variable(self):
        result = monicize(parse_polynomial("3*t1^2 + 1", QR1))
        assert result.substitution.coefficients == ()
        assert result.substitution.scale == Q.element(3)
        assert result.monic == parse_polynomial("t1^2 + 1/3", QR1)
        assert result.degree == 2

    def test_constant(self):
        result = monicize(P("5"))
        assert result.monic == QR2.one()
        assert result.degree == 0
        assert result.substitution.scale == Q.element(5)

    def test_already_monic_in_last_variable(self):
        f = P("t2^2 + t1")
        result = monicize(f)
        assert result.degree == 2
        assert result.monic.degree_in(2) == 2

    def test_zero_rejected(self):
        # leading_form's error: monicize has no zero test of its own.
        with pytest.raises(ZeroPolynomialError, match="^the zero polynomial has no leading form$"):
            monicize(QR2.zero())

    def test_field_too_small_propagates(self):
        ring = RingSpec.default(FieldSpec.prime(2), 2)
        with pytest.raises(FieldTooSmallError):
            monicize(parse_polynomial("t1^2 + t1*t2", ring))

    def test_substitution_identity_and_inverse(self):
        rng = random.Random(17)
        for _ in range(120):
            f = random_polynomial(rng, QR2, max_degree=4, max_terms=4, nonzero=True)
            result = monicize(f)
            sub = result.substitution
            # defining identity: scale * monic == f after the substitution
            assert sub.scale * result.monic == sub.apply(f)
            # the substitution is invertible, so f is recoverable exactly
            inverse = LinearSubstitution(
                tuple(-c for c in sub.coefficients), sub.scale
            )
            assert inverse.apply(sub.apply(f)) == f

    def test_postconditions(self):
        rng = random.Random(18)
        for _ in range(120):
            f = random_polynomial(rng, QR3, max_degree=4, max_terms=4, nonzero=True)
            result = monicize(f)
            d = f.total_degree()
            assert result.degree == d
            if d == 0:
                assert result.monic == QR3.one()
            else:
                gen = MonicGenerator(result.monic)
                assert gen.degree == d

    def test_prime_field(self):
        rng = random.Random(19)
        ring = RingSpec.default(FieldSpec.prime(7), 2)
        for _ in range(60):
            f = random_polynomial(rng, ring, max_degree=3, max_terms=4, nonzero=True)
            result = monicize(f)
            assert result.substitution.scale * result.monic == result.substitution.apply(f)

    def test_determinism(self):
        f = P("t1^2*t2 - 3*t2^3 + t1")
        assert monicize(f) == monicize(f)


FIELDS = [Q, FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(7)]


@st.composite
def nonzero_polys(draw):
    """A nonzero polynomial over Q, F2, F3 or F7 in 1 to 8 variables."""
    ring = RingSpec.default(draw(st.sampled_from(FIELDS)), draw(st.integers(1, 8)))
    f = draw(polys(ring))
    assume(not f.is_zero)
    return f


def point_outcome(f):
    try:
        return tuple(c.value for c in nonvanishing_point(f))
    except FieldTooSmallError as exc:
        return str(exc)


def reference_point_outcome(f):
    try:
        return oracles.reference_point(oracles.raw(f), f.ring.variables, f.ring.field.modulus)
    except oracles.ReferenceFieldTooSmall as exc:
        return str(exc)


def monicize_outcome(f):
    try:
        return monicize(f).to_json_dict()
    except FieldTooSmallError as exc:
        return str(exc)


def reference_monicize_outcome(f):
    ring, field = f.ring, f.ring.field
    try:
        a, scale, monic, degree = oracles.reference_monicize(
            oracles.raw(f), ring.variables, field.modulus
        )
    except oracles.ReferenceFieldTooSmall as exc:
        return str(exc)
    return {
        "a": [str(field.element(c)) for c in a],
        "lambda": str(field.element(scale)),
        "g": str(Polynomial(ring, monic)),
        "degree": degree,
    }


class TestAgainstTheRecursiveSearch:
    """The one-loop search against the recursive search kept in oracles."""

    @given(f=nonzero_polys())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_same_point_or_same_refusal(self, f):
        assert point_outcome(f) == reference_point_outcome(f)
        if f.ring.nvars <= 4:  # the reference substitutes by repeated products
            assert monicize_outcome(f) == reference_monicize_outcome(f)

    @given(f=nonzero_polys())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_homogeneous_rescale_matches_scaling_every_coordinate(self, f):
        # The rescale once multiplied every coordinate by the inverse of the last.
        form = f.leading_form()
        try:
            point = nonvanishing_point(form)
        except FieldTooSmallError as exc:
            with pytest.raises(FieldTooSmallError) as info:
                nonvanishing_point_homogeneous(form)
            assert str(info.value) == str(exc)
            return
        factor = point[-1].inv()
        expected = tuple(b * factor for b in point[:-1]) + (form.ring.field.one(),)
        assert nonvanishing_point_homogeneous(form) == expected


class TestWidthContract:
    """The search and monicize work per variable f contains, not per ring variable."""

    @pytest.mark.parametrize("text", ["t1*t2", "t1 - t{n}"])
    def test_homogeneous_rescale_does_not_grow_with_the_ring(self, monkeypatch, text):
        # The rescale once made n - 1 scalar products, one per ring variable.
        calls = Counter()
        mul = FieldElement.__mul__

        def counted(self, other):
            calls["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(FieldElement, "__mul__", counted)
        seen = []
        for n in (10, 100, 1000):
            calls.clear()
            nonvanishing_point_homogeneous(P(text.format(n=n), RingSpec.default(Q, n)))
            seen.append(calls["mul"])
        assert seen == [seen[0]] * 3

    def test_calls_do_not_grow_with_the_ring(self, monkeypatch):
        # At n ring variables the recursive search made n evaluations and n
        # coefficients_in calls for t1*t2 + t3, and recursed n deep.
        counts = Counter()
        for name in ("evaluate", "coefficients_in"):
            def counted(self, *args, _name=name, _method=getattr(Polynomial, name)):
                counts[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(Polynomial, name, counted)
        seen = {}
        for op in (nonvanishing_point, monicize):
            for n in (10, 100, 1000):
                counts.clear()
                op(parse_polynomial("t1*t2 + t3", RingSpec.default(Q, n)))
                seen.setdefault(op.__name__, []).append(dict(counts))
        # One slicing per variable f contains; only t3 has a link of positive
        # degree (t1*t2 + t3 in t3), and its first candidate passes.
        assert seen["nonvanishing_point"] == [{"evaluate": 1, "coefficients_in": 3}] * 3
        assert seen["monicize"] == [seen["monicize"][0]] * 3
