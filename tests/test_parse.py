"""Grammar acceptance, precedence, canonical round-trips, positioned errors."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles

from krullkit import parse
from krullkit.errors import SizeLimitError
from krullkit.field import FieldSpec
from krullkit.parse import (
    MAX_DEPTH,
    MAX_LITERAL_DIGITS,
    FieldLiteralError,
    ParseError,
    UnknownVariableError,
    format_polynomial,
    parse_polynomial,
)
from krullkit.poly import RingSpec, random_polynomial

from test_poly import polys

Q = FieldSpec.rationals()
QR2 = RingSpec.default(Q, 2)
QR3 = RingSpec.default(Q, 3)
F5R2 = RingSpec.default(FieldSpec.prime(5), 2)
F5R3 = RingSpec.default(FieldSpec.prime(5), 3)
F2XY = RingSpec(FieldSpec.prime(2), ("x", "y2", "t1"))


def P(text, ring=QR2):
    return parse_polynomial(text, ring)


class TestAcceptedForms:
    def test_atoms(self):
        assert P("0").is_zero
        assert P("7") == QR2.constant(7)
        assert P("-7") == QR2.constant(-7)
        assert P("3/4") == QR2.constant(Fraction(3, 4))
        assert P("t2") == QR2.gen(2)
        assert P("(t1)") == QR2.gen(1)

    def test_rationals_reduced_at_parse(self):
        assert P("2/4") == QR2.constant(Fraction(1, 2))
        assert P("6/3") == QR2.constant(2)
        assert P("-10/4") == QR2.constant(Fraction(-5, 2))

    def test_precedence(self):
        assert P("2*t1^2") == 2 * QR2.gen(1) ** 2
        assert P("t1 + 2*t2^3") == QR2.gen(1) + 2 * QR2.gen(2) ** 3
        assert P("-t1^2") == -(QR2.gen(1) ** 2)
        assert P("(t1 + t2)^2") == (QR2.gen(1) + QR2.gen(2)) ** 2
        assert P("2*(t1 + t2)") == 2 * QR2.gen(1) + 2 * QR2.gen(2)

    def test_leading_minus_binds_whole_term(self):
        assert P("-2*t1 + t2") == QR2.gen(2) - 2 * QR2.gen(1)
        assert P("-t1*t2") == -(QR2.gen(1) * QR2.gen(2))

    def test_signed_literal_after_star(self):
        assert P("2*-3") == QR2.constant(-6)
        assert P("2 * -3/2") == QR2.constant(-3)

    def test_whitespace(self):
        assert P("  t1   +\t2*t2\n") == P("t1 + 2*t2")

    def test_like_terms_collapse(self):
        assert P("t1 + t1") == P("2*t1")
        assert P("t1 - t1").is_zero
        assert P("1/2 + 1/3") == QR2.constant(Fraction(5, 6))

    def test_nested_parens(self):
        assert P("((t1))") == QR2.gen(1)
        assert P("((t1 + t2)^2 - t1^2)") == P("2*t1*t2 + t2^2")

    def test_custom_names(self):
        ring = RingSpec(Q, ("x", "y"))
        f = parse_polynomial("x^2*y - y", ring)
        assert f.degree_in(1) == 2
        with pytest.raises(UnknownVariableError):
            parse_polynomial("t1", ring)

    def test_prime_field_literals(self):
        assert parse_polynomial("1/2", F5R2) == F5R2.constant(3)
        assert parse_polynomial("7*t1", F5R2) == 2 * F5R2.gen(1)
        assert parse_polynomial("5*t1", F5R2).is_zero

    def test_exponent_cap_boundary(self):
        f = P("t1^2147483647")
        assert f.degree_in(1) == 2**31 - 1
        assert P("t1^" + "0" * 20 + "3") == QR2.gen(1) ** 3
        assert P("9" * MAX_LITERAL_DIGITS + "*0") == QR2.zero()


class TestErrors:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("t1 +", 4),
            ("t1 + + t2", 5),
            ("2t1", 1),
            ("t1 t2", 3),
            ("t1 ^ t2", 5),
            ("t1^", 3),
            ("(t1", 3),
            ("t1)", 2),
            ("@", 0),
            ("t1 / 2", 3),
            ("1/0", 2),
            ("2 * -t1", 5),
            ("t1^-2", 3),
            ("t1**t2", 3),
        ],
    )
    def test_positions(self, text, offset):
        with pytest.raises(ParseError) as exc_info:
            P(text)
        assert exc_info.value.offset == offset

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError) as exc_info:
            P("t1 + t9")
        err = exc_info.value
        assert err.offset == 5
        assert err.name == "t9"
        assert err.identifier == "UnknownVariable"

    def test_prime_field_literal_is_reduced_before_its_denominator_is_tested(self):
        # 0/2 and 4/2 reduce to 0 and 2, which are 0 over F2; 1/2 and 2/4 reduce to 1/2.
        ring = RingSpec.default(FieldSpec.prime(2), 1)
        assert parse_polynomial("0/2", ring).is_zero
        assert parse_polynomial("4/2", ring).is_zero
        for text, offset in [("1/2", 2), ("2/4", 2), ("t1 + 2/4", 7)]:
            with pytest.raises(FieldLiteralError) as exc_info:
                parse_polynomial(text, ring)
            assert exc_info.value.offset == offset
            assert exc_info.value.message == (
                f"denominator {text[-1]} is not invertible in F2"
            )

    def test_field_literal_error(self):
        ring = RingSpec.default(FieldSpec.prime(2), 1)
        with pytest.raises(FieldLiteralError) as exc_info:
            parse_polynomial("1/2*t1", ring)
        assert exc_info.value.offset == 2
        with pytest.raises(FieldLiteralError):
            parse_polynomial("3/10", F5R2)

    def test_exponent_cap(self):
        with pytest.raises(ParseError) as exc_info:
            P("t1^2147483648")
        assert exc_info.value.offset == 3

    @pytest.mark.parametrize(
        "text,offset,message",
        [
            ("t1^" + "9" * 5000, 3, "exceeds 2147483647"),
            ("t1 + 1/" + "7" * (MAX_LITERAL_DIGITS + 1), 7, "longer than 4300 digits"),
        ],
        ids=["exponent", "literal"],
    )
    def test_long_number_token(self, text, offset, message):
        # Longer digit strings than CPython converts to int stay ParseErrors.
        with pytest.raises(ParseError) as exc_info:
            P(text)
        assert exc_info.value.offset == offset
        assert message in exc_info.value.message

    @pytest.mark.parametrize(
        "opener,factor",
        [("(", 1), ("-(", -1), ("2*(", 2), ("0+(", 1)],
        ids=["bare", "minus", "times", "summand"],
    )
    def test_nesting_depth_limit(self, opener, factor):
        def nested(depth):
            return opener * depth + "t1" + ")" * depth

        assert P(nested(MAX_DEPTH)) == factor**MAX_DEPTH * QR2.gen(1)
        for depth in (MAX_DEPTH + 1, 3000):
            with pytest.raises(ParseError) as exc_info:
                P(nested(depth))
            assert exc_info.value.offset == len(opener) * (MAX_DEPTH + 1) - 1

    def test_byte_offsets_with_non_ascii(self):
        with pytest.raises(ParseError) as exc_info:
            P("t1 + é")
        assert exc_info.value.offset == 5
        with pytest.raises(ParseError) as exc_info:
            P("é + t1")
        assert exc_info.value.offset == 0

    def test_undecodable_bytes_are_positioned(self):
        # surrogateescape maps each undecodable byte back to itself.
        with pytest.raises(ParseError) as exc_info:
            P("t1 + \udcff")
        assert (exc_info.value.offset, exc_info.value.message) == (
            5, "unexpected character 0xff"
        )

    @pytest.mark.parametrize("char", ["\ud800", "\udfff"])
    def test_other_lone_surrogates_are_positioned(self, char):
        # No argv byte becomes these surrogates; they have no UTF-8 encoding.
        with pytest.raises(ParseError) as exc_info:
            P("t1 + " + char + " + t2")
        assert (exc_info.value.offset, exc_info.value.message) == (
            5, f"unexpected character U+{ord(char):04X}"
        )
        # A bad character before the surrogate is reported first, as elsewhere.
        for prefix, offset, shown in (("\u00e9 + ", 0, "0xc3"), ("t1 + \udcff + ", 5, "0xff")):
            with pytest.raises(ParseError) as exc_info:
                P(prefix + char)
            assert (exc_info.value.offset, exc_info.value.message) == (
                offset, f"unexpected character {shown}"
            )

    def test_long_tokens_described_by_length(self):
        with pytest.raises(UnknownVariableError) as exc_info:
            P("t1 + " + "x" * 5000)
        err = exc_info.value
        assert (err.offset, err.message) == (5, "unknown variable name of 5000 characters")
        assert err.name == "x" * 5000
        with pytest.raises(ParseError) as exc_info:
            P("t1 " + "9" * 5000)
        assert exc_info.value.message == "unexpected token of 5000 characters after expression"

    def test_error_text_mentions_position(self):
        with pytest.raises(ParseError) as exc_info:
            P("t1 +")
        assert "byte 4" in str(exc_info.value)

    def test_double_minus_parses_as_nested_negation(self):
        # term-level minus then a signed literal
        assert P("--3") == QR2.constant(3)


class TestRoundTrip:
    CORPUS = [
        "0",
        "7",
        "-7/3",
        "t1",
        "t1^3 + 2*t1^2*t2 + 4*t2^3",
        "-t1 - 1/2*t2 + 3",
        "t1^2*t2^3 - t1*t2 + 1",
        "1/7*t1^3 + 5/7*t1^2*t2 + t1*t2^2 + t2^3",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_fixed_corpus_is_canonical(self, text):
        f = P(text)
        assert format_polynomial(f) == text
        assert P(format_polynomial(f)) == f

    @given(f=polys(QR2))
    @settings(max_examples=100)
    def test_rational_round_trip(self, f):
        assert parse_polynomial(format_polynomial(f), QR2) == f

    @given(f=polys(F5R2))
    @settings(max_examples=100)
    def test_prime_round_trip(self, f):
        assert parse_polynomial(format_polynomial(f), F5R2) == f

    def test_three_variable_round_trip(self):
        rng = random.Random(23)
        for _ in range(100):
            f = random_polynomial(rng, QR3, max_degree=6, max_terms=6)
            assert parse_polynomial(format_polynomial(f), QR3) == f


def outcome(text, ring):
    """The package parser's raw dict, or its error as comparable fields."""
    try:
        return oracles.raw(parse_polynomial(text, ring))
    except ParseError as err:
        return (type(err).__name__, err.identifier, err.offset, err.message, err.expected)


def reference_outcome(text, ring):
    try:
        return oracles.reference_parse(text, ring.variables, ring.field.modulus)
    except oracles.ReferenceParseError as err:
        return (err.cls, err.identifier, err.offset, err.message, err.expected)


# The reference raises powers by repeated multiplication, so texts with an
# exponent of 10 or more are left to the fixed tests.
LARGE_EXPONENT = re.compile(r"\^[ \t\r\n]*0*[1-9][0-9]")

LITERALS = st.builds(
    lambda sign, num, den: f"{sign}{num}" + ("" if den is None else f"/{den}"),
    st.sampled_from(["", "", "-"]),
    st.integers(0, 12),
    st.none() | st.integers(0, 12),
)
EXPONENTS = st.sampled_from(["", "", "^0", "^1", "^2", "^3", " ^ 2"])
RINGS = [QR3, F5R3, F2XY]
FOLD_RINGS = [QR3, *(RingSpec.default(FieldSpec.prime(p), 3) for p in (2, 5, 32003))]


@st.composite
def expression_text(draw, names, depth=2):
    """Text in the grammar: signed literals, names, groups and small powers."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["name", "number", "group"][: 3 if depth else 2]))
            if kind == "name":
                atom = draw(names)
            elif kind == "number":
                atom = draw(LITERALS)
            else:
                atom = "(" + draw(expression_text(names, depth - 1)) + ")"
            factors.append(atom + draw(EXPONENTS))
        star = draw(st.sampled_from(["*", " * "]))
        terms.append(draw(st.sampled_from(["", "", "-", "- "])) + star.join(factors))
    ops = draw(st.lists(st.sampled_from([" + ", " - ", "+", "-"]), min_size=len(terms)))
    return terms[0] + "".join(op + term for op, term in zip(ops, terms[1:]))


@st.composite
def ring_and_text(draw):
    """A ring and grammar text over its names (and one unknown name), with up
    to two characters replaced to reach the errors."""
    ring = draw(st.sampled_from(RINGS))
    text = draw(expression_text(st.sampled_from([*ring.variables] * 4 + ["t9"])))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(["", "+", "-", "*", "^", "/", "(", ")", " ", "0",
                                      "12", "t2", "\u00e9", "@", "\udcff"]))
        text = text[:i] + piece + text[i + 1 :]
    return ring, text


class TestReferenceParser:
    """The package parser against the recursive-descent reference in oracles."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("t1*-3", "-3*t1"),
            ("--1", "1"),
            ("-t1^2", "-t1^2"),
            ("2*-3^2", "18"),
            ("-3^2", "-9"),
            ("0^0", "1"),
            ("(3/5)*t1", "3/5*t1"),
            ("t1^0", "1"),
            ("-(t1 + 1)", "-t1 - 1"),
            ("(t1 + 1)*2*t2*(t1 - 1)", "2*t1^2*t2 - 2*t2"),
        ],
    )
    def test_corners(self, text, expected):
        assert format_polynomial(P(text, QR3)) == expected
        for ring in (QR3, F5R3):
            assert outcome(text, ring) == reference_outcome(text, ring)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(0)^0*t1", "t1"),
            ("(t1 - t1)*t2", "0"),
            ("(2/3)^2*t1", "4/9*t1"),
            ("-(5)^2*t2", "-25*t2"),
            ("((3))^3", "27"),
            ("(t1 + 1)^0*(3)", "3"),
            ("2*(t1)*t2", "2*t1*t2"),
            ("(1/2 + 1/2)*t1", "t1"),
            ("(0*t1)^0*t2", "t2"),
            ("-(-3/4)^3*(t1 + 1)*(2)", "27/32*t1 + 27/32"),
        ],
    )
    def test_constant_groups(self, text, expected):
        # A group holding one literal folds into its term's scalar; any other
        # group, constant or not, is multiplied in as a polynomial.
        assert format_polynomial(P(text, QR3)) == expected
        for ring in FOLD_RINGS:
            assert outcome(text, ring) == reference_outcome(text, ring)

    def test_denominator_with_no_inverse(self):
        # A denominator of more than 10 digits is named by its length.
        for digits in (1, 10, 11, 4000):
            text = "t1 + 1/" + "5" * digits
            assert outcome(text, F5R3) == reference_outcome(text, F5R3)

    def test_groups_keep_the_degree_limit(self):
        # 2 * (2^31 - 1)^2 is under 2^63 - 1, and 3 * (2^31 - 1)^2 is over it.
        text = "((t1^2147483647)^2147483647)^{}"
        for ring in FOLD_RINGS:
            assert format_polynomial(P(text.format(2), ring)) == "t1^9223372028264841218"
            with pytest.raises(SizeLimitError):
                P(text.format(3), ring)

    @given(ring_text=ring_and_text())
    @settings(max_examples=600, deadline=None)
    def test_grammar_text_matches_reference(self, ring_text):
        ring, text = ring_text
        assume(not LARGE_EXPONENT.search(text))
        assert outcome(text, ring) == reference_outcome(text, ring)

    @given(text=st.text(), ring=st.sampled_from(RINGS))
    @settings(max_examples=600, deadline=None)
    def test_arbitrary_text_matches_reference(self, text, ring):
        # Any exception other than a ParseError escapes outcome() and fails.
        assume(not LARGE_EXPONENT.search(text))
        assert outcome(text, ring) == reference_outcome(text, ring)


# Signed coefficients with no denominator divisible by 5, so over F5R3 the
# only error is the one placed near the end.
DECK_COEFFICIENTS = st.builds(
    lambda sign, num, den: f"{sign}{num}" + ("" if den == 1 else f"/{den}"),
    st.sampled_from(["", "-"]),
    st.integers(0, 40),
    st.sampled_from([1, 1, 2, 3, 4, 7]),
)


@st.composite
def long_deck_text(draw):
    """A ring and 20-200 terms shaped like the decks' "(c)*t1^a*t2^b", with
    one character near the end replaced."""
    ring = draw(st.sampled_from([QR3, F5R3]))
    terms = []
    for _ in range(draw(st.integers(20, 200))):
        factors = [f"({draw(DECK_COEFFICIENTS)})"]
        for name in ring.variables:
            e = draw(st.integers(0, 4))
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        terms.append("*".join(factors))
    text = " + ".join(terms)
    i = len(text) - draw(st.integers(1, 12))
    piece = draw(st.sampled_from(["", "+", "-", "*", "^", "/", "(", ")", " ", "0", "12", "t2",
                                  "t9", "@", "é", "\udcff"]))
    return ring, text[:i] + piece + text[i + 1 :]


class TestLongTexts:
    """Offsets found again deep in a long token stream."""

    @given(ring_text=long_deck_text())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_long_text_matches_reference(self, ring_text):
        ring, text = ring_text
        assert outcome(text, ring) == reference_outcome(text, ring)


class CountingPattern:
    """A compiled pattern that counts the calls of each of its methods."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self.pattern, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


class TestTokenizerCounts:
    """One findall per parse; token offsets are scanned for again only on an error."""

    TEXT = format_polynomial(P("(t1+2*t2-3/5*t3+1)^8", QR3))

    @pytest.fixture
    def token_pattern(self, monkeypatch):
        pattern = CountingPattern(parse._TOKEN)
        monkeypatch.setattr(parse, "_TOKEN", pattern)
        return pattern

    def test_a_parse_scans_once(self, token_pattern):
        assert len(P(self.TEXT, QR3).terms) == 165
        assert token_pattern.calls == {"findall": 1}

    def test_an_error_at_the_last_token_scans_again_once(self, token_pattern):
        with pytest.raises(ParseError) as exc_info:
            P(self.TEXT + ")", QR3)
        assert exc_info.value.offset == len(self.TEXT)
        assert token_pattern.calls == {"findall": 1, "finditer": 1}
