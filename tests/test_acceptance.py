"""Acceptance criteria for the toolkit, one test per criterion.

Every check here is exact (tolerance zero): values are compared with ``==``
over exact scalars, never approximately.  Each test prints a single
``[criterion] <name>: PASS`` or ``FAIL`` line; run with ``pytest -s`` to see
them.  Randomized criteria use fixed seeds, so runs are reproducible.
"""

import contextlib
import functools
import io
import json
import random
from fractions import Fraction

import pytest

import oracles
from krullkit.chains import MonomialPrimeIdeal, extract_min_power, verify_chain
from krullkit.cli import main
from krullkit.errors import (
    DegenerateCharPolyError,
    ExhaustedFieldError,
    FieldTooSmallError,
    ZeroCosetError,
)
from krullkit.field import FieldSpec
from krullkit.integral import (
    MonicGenerator,
    ReductionCoefficients,
    characteristic_polynomial,
    contraction_witness,
    coset_integrality_witness,
    divide_monic,
    power_reduce,
    principal_member,
    subring_intersection_trivial,
)
from krullkit.normalize import LinearSubstitution, monicize, nonvanishing_point
from krullkit.parse import ParseError, format_polynomial, parse_polynomial
from krullkit.poly import Polynomial, RingSpec, embed, random_polynomial, random_scalar

Q = FieldSpec.rationals()
QR1 = RingSpec.default(Q, 1)
QR2 = RingSpec.default(Q, 2)
QR3 = RingSpec.default(Q, 3)
EXAMPLE = "t1^3 + 2*t1^2*t2 + 4*t2^3"


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion] {name}: FAIL")
                raise
            print(f"\n[criterion] {name}: PASS")

        return run

    return wrap


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@criterion("01 worked-example membership and split")
def test_01_worked_example_membership_and_split():
    code, out, err = run_cli("member", "--vars", "2", "--field", "Q", "-k", "1", EXAMPLE)
    assert (code, out, err) == (0, "false\n", "")
    code, out, err = run_cli("member", "--vars", "2", "--field", "Q", "-k", "2", EXAMPLE)
    assert (code, out, err) == (0, "true\n", "")
    code, out, err = run_cli("split", "--vars", "2", "--field", "Q", "-k", "1", EXAMPLE)
    assert (code, out, err) == (0, "dependent: t1^3 + 2*t1^2*t2\nfree: 4*t2^3\n", "")

    f = parse_polynomial(EXAMPLE, QR2)
    dependent, free = f.split_by_support(1)
    assert dependent == parse_polynomial("t1^3 + 2*t1^2*t2", QR2)
    assert free == parse_polynomial("4*t2^3", QR2)
    assert dependent + free == f
    assert f not in MonomialPrimeIdeal(QR2, 1)
    assert f in MonomialPrimeIdeal(QR2, 2)


@criterion("02 homogeneity law on 500+ random instances")
def test_02_homogeneity_law():
    # the pinned instance first: doubling the point scales by 2^3
    f = parse_polynomial(EXAMPLE, QR2)
    assert f.is_homogeneous()
    assert f.evaluate([2, 2]) == 56
    assert f.evaluate([2, 2]) == Q.element(2) ** 3 * f.evaluate([1, 1])

    rng = random.Random(20260815)
    checks = 0
    rings = [QR2, QR3, RingSpec.default(FieldSpec.prime(7), 2)]
    while checks < 500:
        ring = rings[checks % len(rings)]
        g = random_polynomial(rng, ring, max_degree=5, max_terms=5, nonzero=True)
        form = g.leading_form()
        d = form.total_degree()
        lam = random_scalar(rng, ring.field)
        point = [random_scalar(rng, ring.field) for _ in range(ring.nvars)]
        scaled = [lam * x for x in point]
        assert form.evaluate(scaled) == lam**d * form.evaluate(point)
        checks += 1
    assert checks >= 500


@criterion("03 too-small field is a definite, reported failure")
def test_03_field_too_small_counterexample():
    ring = RingSpec.default(FieldSpec.prime(2), 2)
    f = parse_polynomial("t1^2 + t1*t2", ring)
    # every point with both coordinates nonzero in F2 is (1,1), a root
    assert f.evaluate([1, 1]).is_zero

    with pytest.raises(FieldTooSmallError) as exc_info:
        nonvanishing_point(f)
    assert isinstance(exc_info.value.__cause__, ExhaustedFieldError)
    with pytest.raises(FieldTooSmallError):
        monicize(f)

    code, out, err = run_cli("nonvanish", "--vars", "2", "--field", "F2", "t1^2 + t1*t2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: FieldTooSmall:")

    # the same polynomial over F3 has a non-vanishing point
    f3 = parse_polynomial("t1^2 + t1*t2", RingSpec.default(FieldSpec.prime(3), 2))
    point = nonvanishing_point(f3)
    assert not f3.evaluate(point).is_zero


@criterion("04 monicization on 500+ random inputs")
def test_04_monicize():
    pinned = monicize(parse_polynomial(EXAMPLE, QR2))
    assert pinned.to_json_dict() == {
        "a": ["1"],
        "lambda": "7",
        "g": "1/7*t1^3 + 5/7*t1^2*t2 + t1*t2^2 + t2^3",
        "degree": 3,
    }

    rng = random.Random(40404)
    rings = [QR1, QR2, QR3, RingSpec.default(FieldSpec.prime(7), 2)]
    runs = 0
    while runs < 500:
        ring = rings[runs % len(rings)]
        max_degree = 4 if ring.field.modulus is None else 3
        f = random_polynomial(rng, ring, max_degree=max_degree, max_terms=4, nonzero=True)
        result = monicize(f)
        sub = result.substitution
        n = ring.nvars
        d = f.total_degree()
        assert result.degree == d
        assert sub.scale * result.monic == sub.apply(f)
        assert result.monic.degree_in(n) == (d if d > 0 else 0)
        if d == 0:
            assert result.monic == ring.one()
        else:
            assert MonicGenerator(result.monic).degree == d
        inverse = LinearSubstitution(tuple(-c for c in sub.coefficients), sub.scale)
        assert inverse.apply(sub.apply(f)) == f
        runs += 1
    assert runs >= 500


@criterion("05 strict chains verified for 1 through 5 variables")
def test_05_chain_verification():
    for n in range(1, 6):
        report = verify_chain(RingSpec.default(Q, n), checks_per_level=1000)
        assert report.accepted
        assert report.proper
        assert report.failures == ()
        assert report.zero_ideal_checks_passed == 1000
        assert len(report.levels) == n
        for k, level in enumerate(report.levels, start=1):
            assert level.level == k
            assert str(level.witness) == f"t{k}"
            assert level.in_upper
            assert not level.in_lower
            assert level.product_checks_passed == 1000
        doc = report.to_json_dict()
        for entry in doc["levels"]:
            assert set(entry) == {
                "level",
                "witness",
                "in_upper",
                "in_lower",
                "product_checks_passed",
            }


@criterion("06 min-power decomposition on 500+ random members")
def test_06_min_power():
    pinned = extract_min_power(parse_polynomial("t1*t3 + t2^2*t3 + t2^3", QR3), 2)
    assert pinned.power == 2
    assert pinned.lower_part == parse_polynomial("t1*t3", QR3)
    assert pinned.cofactor == parse_polynomial("t3 + t2", QR3)

    rng = random.Random(60606)
    rings = [QR3, RingSpec.default(FieldSpec.prime(5), 3)]
    runs = 0
    while runs < 500:
        ring = rings[runs % len(rings)]
        k = rng.randint(1, ring.nvars)
        f = _strict_member(rng, ring, k)
        dec = extract_min_power(f, k)
        assert dec.power >= 1
        assert dec.lower_part + ring.gen(k) ** dec.power * dec.cofactor == f
        assert MonomialPrimeIdeal(ring, k - 1).contains(dec.lower_part)
        assert not MonomialPrimeIdeal(ring, k).contains(dec.cofactor)
        assert min(e[k - 1] for e in dec.cofactor.terms) == 0
        runs += 1
    assert runs >= 500


def _strict_member(rng, ring, k):
    while True:
        if k > 1:
            lower = random_polynomial(rng, ring, max_degree=3, max_terms=3)
            lower = lower * ring.gen(rng.randint(1, k - 1))
        else:
            lower = ring.zero()
        cofactor = random_polynomial(rng, ring, max_degree=3, max_terms=3, nonzero=True)
        f = lower + ring.gen(k) ** rng.randint(1, 3) * cofactor
        if MonomialPrimeIdeal(ring, k).contains(f) and not MonomialPrimeIdeal(
            ring, k - 1
        ).contains(f):
            return f


@criterion("07 division, uniqueness, subring triviality, Gaussian witness")
def test_07_division_and_witnesses():
    rng = random.Random(70707)
    for _ in range(500):
        g = _random_monic(rng, QR2, max_degree=4)
        d = MonicGenerator(g).degree
        # identity + degree bound, checked against naive raw-dict arithmetic
        f = random_polynomial(rng, QR2, max_degree=6, max_terms=5)
        q, r = divide_monic(f, g)
        assert oracles.naive_add(
            oracles.naive_mul(oracles.raw(q), oracles.raw(g)), oracles.raw(r)
        ) == oracles.raw(f)
        assert r.is_zero or r.degree_in(2) < d
        # uniqueness by exact reconstruction
        q_expected = random_polynomial(rng, QR2, max_degree=3, max_terms=3)
        r_expected = _low_remainder(rng, QR2, d)
        q2, r2 = divide_monic(q_expected * g + r_expected, g)
        assert q2 == q_expected and r2 == r_expected

    for _ in range(500):
        g = _random_monic(rng, QR2, max_degree=4)
        candidate = _subring_element(rng, QR2, nonzero=True)
        assert subring_intersection_trivial(candidate, g)
        assert not principal_member(candidate, g)
    assert subring_intersection_trivial(QR2.zero(), _random_monic(rng, QR2, 3))

    # Gaussian-integer action: symbolic characteristic polynomial
    ring = RingSpec(Q, ("a", "b"))
    a, b = ring.gens()
    coeffs = characteristic_polynomial([[a, b], [-b, a]])
    assert coeffs == [a * a + b * b, -2 * a, ring.one()]
    # Cayley-Hamilton for the symbolic matrix, multiplied out by hand
    m = [[a, b], [-b, a]]
    m2 = [
        [m[0][0] * m[0][0] + m[0][1] * m[1][0], m[0][0] * m[0][1] + m[0][1] * m[1][1]],
        [m[1][0] * m[0][0] + m[1][1] * m[1][0], m[1][0] * m[0][1] + m[1][1] * m[1][1]],
    ]
    for i in range(2):
        for j in range(2):
            diag = coeffs[0] if i == j else ring.zero()
            assert m2[i][j] + coeffs[1] * m[i][j] + diag == ring.zero()
    # and the pinned instance at (a, b) = (1, 1)
    assert characteristic_polynomial([[1, 1], [-1, 1]]) == [2, -2, 1]


def _random_monic(rng, ring, max_degree):
    n = ring.nvars
    d = rng.randint(1, max_degree)
    g = ring.gen(n) ** d
    for e in range(d):
        g = g + _subring_element(rng, ring) * ring.gen(n) ** e
    return g


def _subring_element(rng, ring, nonzero=False):
    n = ring.nvars
    if n == 1:
        c = random_scalar(rng, ring.field)
        while nonzero and c.is_zero:
            c = random_scalar(rng, ring.field)
        return ring.constant(c)
    while True:
        f = embed(
            random_polynomial(rng, ring.subring(n - 1), max_degree=2, max_terms=2),
            ring,
        )
        if not (nonzero and f.is_zero):
            return f


def _low_remainder(rng, ring, d):
    n = ring.nvars
    r = ring.zero()
    for e in range(d):
        r = r + _subring_element(rng, ring) * ring.gen(n) ** e
    return r


@criterion("08 power reduction against dense division, full grid")
def test_08_power_reduce_grid():
    rng = random.Random(80808)
    for d in range(1, 7):
        for i in range(26):
            for _ in range(2):
                relation = ReductionCoefficients(
                    tuple(Fraction(rng.randint(-4, 4)) for _ in range(d))
                )
                got = power_reduce(relation, i, zero=Fraction(0), one=Fraction(1))
                expected = oracles.power_coords_by_division(
                    list(relation.coefficients), i
                )
                assert list(got.coefficients) == expected
    # ring-valued coordinates agree with actual monomial reduction
    t2 = QR2.gen(2)
    for _ in range(50):
        g = _random_monic(rng, QR2, max_degree=3)
        gen = MonicGenerator(g)
        relation = ReductionCoefficients(tuple(-c for c in gen.coefficients))
        i = rng.randint(0, 12)
        got = power_reduce(relation, i, zero=QR2.zero(), one=QR2.one())
        buckets = divide_monic(t2**i, gen)[1].coefficients_in(2)
        assert got.coefficients == tuple(
            buckets.get(j, QR2.zero()) for j in range(gen.degree)
        )


@criterion("09 Cayley-Hamilton and contraction witnesses, 200+ each")
def test_09_cayley_hamilton_and_contraction():
    pinned_constant, pinned_cofactor = contraction_witness(
        parse_polynomial("t2", QR2), parse_polynomial("t2^2 - t1", QR2)
    )
    assert pinned_constant == parse_polynomial("-t1", QR2)
    assert pinned_cofactor.residue == parse_polynomial("-t2", QR2)

    rng = random.Random(90909)
    ch_checks = 0
    witness_checks = 0
    while ch_checks < 200 or witness_checks < 200:
        d = rng.randint(1, 5)
        g = _int_monic(rng, QR2, d)
        f = _int_poly(rng, QR2)
        witness = coset_integrality_witness(f, g)
        assert len(witness.coefficients) == d + 1
        assert witness.coefficients[-1] == QR2.one()
        assert witness.annihilates_modulo(g)
        ch_checks += 1
        try:
            constant, cofactor = contraction_witness(f, g)
        except (ZeroCosetError, DegenerateCharPolyError):
            continue
        assert not constant.is_zero
        assert constant.degree_in(2) in (None, 0)
        assert principal_member(f * cofactor.residue - constant, g)
        witness_checks += 1
    assert ch_checks >= 200 and witness_checks >= 200


def _int_monic(rng, ring, d):
    g = ring.gen(2) ** d
    for e in range(d):
        c = Polynomial(
            ring,
            {
                (rng.randint(0, 2), 0): Fraction(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2))
            },
        )
        g = g + c * ring.gen(2) ** e
    return g


def _int_poly(rng, ring):
    return Polynomial(
        ring,
        {
            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3))
        },
    )


@criterion("10 parse/format round-trips and positioned parse errors")
def test_10_round_trips_and_errors():
    rng = random.Random(101010)
    count = 0
    for ring in [QR2, RingSpec.default(FieldSpec.prime(5), 2)]:
        for _ in range(1000):
            f = random_polynomial(rng, ring, max_degree=6, max_terms=6)
            text = format_polynomial(f)
            assert parse_polynomial(text, ring) == f
            assert format_polynomial(parse_polynomial(text, ring)) == text
            count += 1
    assert count >= 2000

    invalid = [
        ("", 0),
        ("t1 +", 4),
        ("2t1", 1),
        ("t1 t2", 3),
        ("t1^", 3),
        ("(t1", 3),
        ("t1)", 2),
        ("@", 0),
        ("1/0", 2),
        ("t1 + t9", 5),
        ("t1^2147483648", 3),
        ("t1 / 2", 3),
    ]
    for text, offset in invalid:
        with pytest.raises(ParseError) as exc_info:
            parse_polynomial(text, QR2)
        assert exc_info.value.offset == offset
