"""Layer cases for the scalar and polynomial kernel, timed in pairs in one process.

Each case runs a fixed input.  The script uses only the standard library.  It
loads krullkit twice, as the packages ``kk_a`` and ``kk_b`` (``src/krullkit``
imports only relatively): A from the directory given with ``--ab`` and B from
``src/`` next to this directory.  It prints one JSON object with the Python
version, the platform, both directories and one entry per case.  There is no
timing gate; the numbers are a record, not a test.

    python3 bench/layers.py --ab PARENT/src            # PARENT (A) against src (B)
    python3 bench/layers.py --ab src > aa.json         # A/A: the noise floor
    python3 bench/layers.py --ab PARENT/src --smoke    # smallest sizes, 3 rounds

It first checks that every case gives the same ``repr`` on both sides, so a
timing run is also a differential test of the two checkouts.  Then each of
``AB_ROUNDS`` rounds times every case once on each side, back to back, in a
shuffled order of cases and of sides, with the garbage collector off while
timing.  Per case it reports the median of the rounds' B/A time ratios, their
interquartile range, the number of rounds in which B was slower, and A's
median seconds per call, which keeps absolute costs in view.  Both sides
share one interpreter, so import cost, start-up and memory layout are not
compared; end-to-end claims come from ``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import sys
import timeit
from fractions import Fraction

POWER = "(t1+2*t2-3/5*t3+1)^{e}"
OTHER = "(t1-7/3*t2+5/2*t3-4/5)^{e}"
SIX = ("t1^2 - 2/3*t1*t2 + 5/7*t2^2 + 3*t1 - 1/2*t3 + 4/5",
       "3/4*t1^2 + t2*t3 - 7/5*t2 + 2/9*t3^2 - 5*t1 + 1/3")
CUBIC = "t3^3 + t1*t3 - t2"
# Powers of a linear form in four variables: C(e+4, 4) terms, 210 at e=6
# and 1,820 at e=12.
LINEAR4 = "(t1-2/3*t2+5/7*t3-3*t4+1/2)^{e}"
MONICIZE = "t1 + t2^{e}"
SPARSE_WIDE = "t1*t2 + t3"
# A sparse coset like the integral deck's contract jobs: t1 + c*t2 modulo
# t2^d - c'*t1, here at its largest d = 7.
SPARSE = ("t1 + 3/2*t2", "t2^7 - 5/3*t1")
# Dense cosets in two variables, shaped like the integral deck's witness jobs
# (monic_generator with d lower terms of degree up to d, dense_coset_element):
# field -> d -> (generator, element).  The element uses every basis coset.
DENSE = {
    "Q": {
        6: ("2*t1^2*t2^4 + t2^6 + 5*t1^2*t2^3 - 3/5*t1*t2^4 + 4*t1^3*t2 + 3*t2 - 4",
            "-4/5*t2^5 + 1/2*t1*t2^3 + t2^4 + 4*t2^2 + 3/5*t2 + 5/2"),
        8: ("-2*t1^5*t2^3 + 5/3*t1^3*t2^5 + t1^2*t2^6 + t2^8 + 2*t1^4*t2^2 + 4*t1^3*t2"
            " + 5*t2^3 - 1/5*t2 + 5/3",
            "-3*t1*t2^6 + 2/5*t2^7 + 1/5*t1*t2^4 + 5/3*t2^5 - 1/5*t1*t2^3 + t1*t2^2 + t2 + 1"),
    },
    "F32003": {
        6: ("9761*t1^3*t2^3 + t2^6 + 10020*t1^3*t2^2 + 12608*t1^2*t2^3 + 14169*t2^2"
            " + 14874*t2 + 30165",
            "17474*t1*t2^5 + 31092*t1*t2^4 + 13435*t1*t2^3 + 10253*t1*t2^2 + 20388*t2 + 9187"),
        8: ("t2^8 + 10020*t1^3*t2^4 + 14169*t1*t2^3 + 14874*t1^2*t2 + 9187*t1*t2^2"
            " + 12608*t1*t2 + 20388*t2^2 + 9761*t1 + 30165*t2",
            "15631*t1*t2^7 + 10538*t1*t2^6 + 22387*t1*t2^5 + 5331*t1*t2^4 + 17474*t2^3"
            " + 31092*t2^2 + 10253*t1 + 13435*t2"),
    },
}
# power_reduce relations, a^d in the basis 1, ..., a^(d-1), parsed as the CLI
# and the integral deck parse them: constants over F32003 with d = 4, and
# polynomials in two variables over Q with d = 3.
RELATION_F32003 = ("3", "-5", "0", "7")
RELATION_Q = ("t1 - 2/3", "3*t1*t2", "t2 + 1")
# Scalar operands: a Q pair with small coprime parts, and residues mod 32003.
SCALARS = {"Q": (Fraction(-7, 3), Fraction(5, 12)), "F32003": (12345, 6789)}
# Tiny polynomials in a wide ring of n variables, like the wide deck's jobs.
WIDE_1X1 = ("3/5*t1*t{n}", "-7/3*t2*t{n}")
WIDE = "3*t{m}*t{n} + 2/3*t1^2*t{m} - t{n}^3*t2 + 5*t{n}"
# A member/split input of the wide deck, parenthesized coefficients and all.
WIDE_TEXT = "(3/2)*t2^2*t{m}^2 + (5)*t1^2*t{m}^2*t{n}^3 + (5)*t{n} + (-3/2)*t1^3*t2^3*t{m}^2"
# A strict member of level k, as in the wide deck's minpow jobs: lower terms
# in t1..t(k-1), then t_k^2 times a cofactor with a constant term.
WIDE_MINPOW = "2/3*t1^2*t{j} - 5*t{j} + 3/2*t{k}^2*t{m}*t{n} - 7/4*t{k}^3*t{n}^2 + 4*t{k}^2"
EVAL_ARGV = ["eval", "--vars", "2", "--at", "2,2", "t1^3 + 2*t1^2*t2 + 4*t2^3"]
# Polynomials per random_polynomial case, drawn as verify_chain draws them.
CHAIN_DRAWS = 20
# Paired rounds in --ab mode, and the time each paired measurement aims for.
AB_ROUNDS = 41
AB_TARGET_S = 0.01


def _primes(count: int, start: int) -> list[int]:
    # The first `count` primes at or above `start`, by trial division.
    found = []
    n = start
    while len(found) < count:
        if n > 1 and all(n % q for q in range(2, int(n**0.5) + 1)):
            found.append(n)
        n += 1
    return found


def draws(random_polynomial, ring) -> list:
    # CHAIN_DRAWS draws of up to 4 terms of degree up to 4, from a fresh seed.
    rng = random.Random(CHAIN_DRAWS)
    return [random_polynomial(rng, ring, max_degree=4, max_terms=4) for _ in range(CHAIN_DRAWS)]


def cases(smoke: bool, kk) -> dict:
    """Map each case name to (layer, zero-argument callable) for the package kk."""
    def sub(name):
        return importlib.import_module(f"{kk.__name__}.{name}")

    FieldSpec, RingSpec, parse_polynomial = kk.FieldSpec, kk.RingSpec, kk.parse_polynomial
    random_polynomial = kk.random_polynomial
    chains, main = sub("chains"), sub("cli").main
    verify_chain, extract_min_power = chains.verify_chain, chains.extract_min_power
    MonomialPrimeIdeal = chains.MonomialPrimeIdeal
    integral, normalize = sub("integral"), sub("normalize")
    contraction_witness = integral.contraction_witness
    coset_integrality_witness, divide_monic, reduce_mod = (
        integral.coset_integrality_witness, integral.divide_monic, integral.reduce_mod)
    monicize, nonvanishing_point = normalize.monicize, normalize.nonvanishing_point
    Polynomial = sub("poly").Polynomial
    ParseError = sub("parse").ParseError

    def parse_error(text, ring):
        try:
            parse_polynomial(text, ring)
        except ParseError as err:
            return err.offset, err.message, err.expected

    e = 2 if smoke else 8
    n_wide = 3 if smoke else 200
    out = {}
    for field in (FieldSpec.rationals(), FieldSpec.prime(32003)):
        ring = RingSpec.default(field, 3)

        def p(text, ring=ring):
            return parse_polynomial(text, ring)

        name = str(field)
        a, b = (field.element(v) for v in SCALARS[name])
        out[f"{name} scalar {a} + {b}"] = ("field", lambda a=a, b=b: a + b)
        out[f"{name} scalar {a} * {b}"] = ("field", lambda a=a, b=b: a * b)
        out[f"{name} scalar {a} / {b}"] = ("field", lambda a=a, b=b: a / b)
        out[f"{name} scalar ({a}) ** 8"] = ("field", lambda a=a: a**8)
        out[f"{name} scalar ({a}).inv()"] = ("field", lambda a=a: a.inv())
        big, other = p(POWER.format(e=e)), p(OTHER.format(e=e))
        one, one2 = p("3/5*t1*t2"), p("-7/3*t2*t3")
        six, six2 = p(SIX[0]), p(SIX[1])
        cubic = p(CUBIC)
        size = len(big.terms)
        out[f"{name} mul {size}x{len(other.terms)}: {POWER.format(e=e)} * {OTHER.format(e=e)}"] = (
            "poly.mul", lambda a=big, b=other: a * b)
        out[f"{name} Polynomial(ring, terms) of the {size}-term {POWER.format(e=e)}"] = (
            "poly.init", lambda r=ring, t=big.terms: Polynomial(r, t))
        out[f"{name} mul 6x6"] = ("poly.mul", lambda a=six, b=six2: a * b)
        out[f"{name} add 6+6"] = ("poly.add", lambda a=six, b=six2: a + b)
        out[f"{name} coefficients_in(3) of the {size}-term {POWER.format(e=e)}"] = (
            "poly.coefficients_in", lambda a=big: a.coefficients_in(3))
        out[f"{name} mul 1x1"] = ("poly.mul", lambda a=one, b=one2: a * b)
        # The cli deck's chain-verify shape.
        out[f"{name} verify_chain n=3, checks_per_level=20"] = (
            "chains.verify_chain", lambda r=ring: verify_chain(r, checks_per_level=20))
        product = big * other
        out[f"{name} str of the {len(product.terms)}-term product "
            f"{POWER.format(e=e)} * {OTHER.format(e=e)}"] = ("poly.str", lambda f=product: str(f))
        wide = RingSpec.default(field, n_wide)
        one, one2 = (parse_polynomial(text.format(n=n_wide), wide) for text in WIDE_1X1)
        out[f"{name} mul 1x1 in {n_wide} variables: {WIDE_1X1[0]} * {WIDE_1X1[1]}".format(
            n=n_wide)] = ("poly.mul", lambda a=one, b=one2: a * b)
        out[f"{name} monicize {size}-term {POWER.format(e=e)}"] = (
            "normalize.monicize", lambda a=big: monicize(a))
        lead = big.leading_form()
        out[f"{name} nonvanishing_point of the {len(lead.terms)}-term leading form of "
            f"{POWER.format(e=e)}"] = ("normalize.nonvanishing_point",
                                       lambda f=lead: nonvanishing_point(f))
        if field.modulus is None:
            out[f"Q divide_monic: {size}-term {POWER.format(e=e)} by {CUBIC}"] = (
                "integral.divide_monic", lambda a=big, g=cubic: divide_monic(a, g))
            out[f"Q reduce_mod: {size}-term {POWER.format(e=e)} by {CUBIC}"] = (
                "integral.reduce_mod", lambda a=big, g=cubic: reduce_mod(a, g))
            # The same supports with pairwise-coprime 20-bit denominators:
            # the worst case for one common denominator per factor.
            primes = _primes(2 * size, 1 << 19)
            left = Polynomial(ring, {k: Fraction(i + 1, q) for i, (k, q) in
                                     enumerate(zip(big.terms, primes[:size]))})
            right = Polynomial(ring, {k: Fraction(i + 2, q) for i, (k, q) in
                                      enumerate(zip(other.terms, primes[size:]))})
            out[f"Q mul {size}x{size}, pairwise-coprime 20-bit denominators"] = (
                "poly.mul", lambda a=left, b=right: a * b)
        ring2 = RingSpec.default(field, 2)
        for d, (gen_text, element_text) in DENSE[name].items():
            f, g = parse_polynomial(element_text, ring2), parse_polynomial(gen_text, ring2)
            out[f"{name} coset_integrality_witness of the dense coset, d={d}"] = (
                "integral.coset_integrality_witness",
                lambda f=f, g=g: coset_integrality_witness(f, g))
        gen_text, element_text = DENSE[name][6]
        dividend = parse_polynomial(element_text, ring2) ** 3
        out[f"{name} divide_monic: the {len(dividend.terms)}-term cube of the d=6 dense "
            "element by its generator"] = (
            "integral.divide_monic",
            lambda f=dividend, g=parse_polynomial(gen_text, ring2): divide_monic(f, g))
        ring4 = RingSpec.default(field, 4)
        # The expand deck's power jobs raise a 4-variable linear form to the 4th and 5th.
        base = parse_polynomial(LINEAR4.format(e=1), ring4)
        e_pow = 2 if smoke else 5
        out[f"{name} pow {len((base**e_pow).terms)} terms: {LINEAR4.format(e=e_pow)}"] = (
            "poly.pow", lambda f=base, e=e_pow: f**e)
        for power in (2, 3) if smoke else (6, 12):
            f = parse_polynomial(LINEAR4.format(e=power), ring4)
            text = str(f)
            out[f"{name} parse {len(f.terms)} terms: canonical {LINEAR4.format(e=power)}"] = (
                "parse.parse_polynomial", lambda t=text, r=ring4: parse_polynomial(t, r))
        if field.modulus is None:
            shear = [t + ring4.gen(4) for t in ring4.gens()[:3]] + [ring4.gen(4)]
            out[f"Q substitute t_j -> t_j + t4 into the {len(f.terms)}-term "
                f"{LINEAR4.format(e=power)}"] = (
                "poly.substitute", lambda f=f, images=shear: f.substitute(images))
        # The form the benchmark decks send: "(c)*t1^2*t2 + ...".
        grouped = " + ".join(
            "*".join([f"({c})"] + [f"t{j + 1}" if k == 1 else f"t{j + 1}^{k}"
                                   for j, k in enumerate(exps) if k])
            for exps, c in f.terms.items())
        out[f"{name} parse {len(f.terms)} terms, parenthesized coefficients"] = (
            "parse.parse_polynomial", lambda t=grouped, r=ring4: parse_polynomial(t, r))
        if field.modulus is None:
            # The same text with a stray ')' at the end: the error path's cost.
            out[f"{name} parse error at the last token of the parenthesized-coefficients text"] = (
                "parse.parse_polynomial", lambda t=grouped + ")", r=ring4: parse_error(t, r))
    e_mon = 100 if smoke else 100000
    ring2 = RingSpec.default(FieldSpec.rationals(), 2)
    g = parse_polynomial(MONICIZE.format(e=e_mon), ring2)
    out[f"Q monicize {MONICIZE.format(e=e_mon)}"] = (
        "normalize.monicize", lambda f=g: monicize(f))
    f, g = (parse_polynomial(text, ring2) for text in SPARSE)
    out[f"Q contraction_witness of the sparse coset {SPARSE[0]} modulo {SPARSE[1]}"] = (
        "integral.contraction_witness", lambda f=f, g=g: contraction_witness(f, g))
    power_reduce, ReductionCoefficients = integral.power_reduce, integral.ReductionCoefficients
    for ring, texts, i in ((RingSpec.default(FieldSpec.prime(32003), 1), RELATION_F32003, 10**6),
                           (ring2, RELATION_Q, 30)):
        i = 10 if smoke else i
        relation = ReductionCoefficients(tuple(parse_polynomial(t, ring) for t in texts))
        out[f"{ring.field} power_reduce of the relation {', '.join(texts)} at i={i}"] = (
            "integral.power_reduce", lambda rel=relation, i=i: power_reduce(rel, i))
    # The same F32003 relation with FieldElement coordinates, as a library caller builds it.
    F32003 = FieldSpec.prime(32003)
    relation = ReductionCoefficients(tuple(F32003.element(int(t)) for t in RELATION_F32003))
    i = 10 if smoke else 10**6
    out[f"F32003 power_reduce of the FieldElement relation {', '.join(RELATION_F32003)} "
        f"at i={i}"] = ("integral.power_reduce", lambda rel=relation, i=i: power_reduce(rel, i))
    # A remainder linear in the dividend's t_n-degree: e/2 steps of the division walk.
    e_rem = 1000 if smoke else 100000
    f, g = parse_polynomial(f"t2^{e_rem}", ring2), parse_polynomial("t2^2 - t1", ring2)
    out[f"Q reduce_mod of t2^{e_rem} modulo t2^2 - t1"] = (
        "integral.reduce_mod", lambda f=f, g=g: reduce_mod(f, g))
    # The shift matrix of t1 modulo t1^d: d - 1 of its d^2 entries are nonzero.
    d_shift, t1 = 8 if smoke else 30, RingSpec.default(FieldSpec.rationals(), 1).gen(1)
    out[f"Q coset_integrality_witness of t1 modulo t1^{d_shift}"] = (
        "integral.coset_integrality_witness",
        lambda f=t1, g=t1**d_shift: coset_integrality_witness(f, g))
    out[f"Q RingSpec.default(Q, {n_wide})"] = (
        "poly.ring", lambda: RingSpec.default(FieldSpec.rationals(), n_wide))
    ring = RingSpec.default(FieldSpec.rationals(), n_wide)
    text = WIDE_TEXT.format(n=n_wide, m=n_wide // 2 + 1)
    out[f"Q parse in {n_wide} variables: {text}"] = (
        "parse.parse_polynomial", lambda t=text, r=ring: parse_polynomial(t, r))
    for n in (3, 20, 200):
        wide = RingSpec.default(FieldSpec.rationals(), n)
        out[f"Q random_polynomial x{CHAIN_DRAWS} in {n} variables"] = (
            "poly.random_polynomial", lambda r=wide: draws(random_polynomial, r))
        # verify_chain's product check, on consecutive draws paired as its g and h.
        sample = draws(random_polynomial, wide)
        pairs, ideal = list(zip(sample[::2], sample[1::2])), MonomialPrimeIdeal(wide, n // 2)
        out[f"Q product_check of the x{CHAIN_DRAWS} chain draws in {n} variables, "
            f"level {n // 2}"] = (
            "chains.product_check",
            lambda ideal=ideal, pairs=pairs: [ideal.product_check(g, h) for g, h in pairs])
    out[f"Q verify_chain n={n_wide}, checks_per_level=2"] = (
        "chains.verify_chain", lambda: verify_chain(ring, checks_per_level=2))
    f, k = parse_polynomial(WIDE.format(n=n_wide, m=n_wide // 2 + 1), ring), n_wide // 2
    out[f"Q split_by_support k={k} of {WIDE}".format(n=n_wide, m=n_wide // 2 + 1)] = (
        "poly.split_by_support", lambda f=f, k=k: f.split_by_support(k))
    out[f"Q in_variable_ideal k={k} of {WIDE}".format(n=n_wide, m=n_wide // 2 + 1)] = (
        "poly.in_variable_ideal", lambda f=f, k=k: f.in_variable_ideal(k))
    k = n_wide // 2 + 1
    text = WIDE_MINPOW.format(j=k - 1, k=k, m=(k + n_wide) // 2, n=n_wide)
    f = parse_polynomial(text, ring)
    out[f"Q extract_min_power k={k} of {text}"] = (
        "chains.extract_min_power", lambda f=f, k=k: extract_min_power(f, k))
    # Three variables of a wide ring: work per variable the input contains.
    sparse = parse_polynomial(SPARSE_WIDE, ring)
    out[f"Q nonvanishing_point of {SPARSE_WIDE} in {n_wide} variables"] = (
        "normalize.nonvanishing_point", lambda f=sparse: nonvanishing_point(f))
    out[f"Q monicize {SPARSE_WIDE} in {n_wide} variables"] = (
        "normalize.monicize", lambda f=sparse: monicize(f))

    def cli_eval():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            main(EVAL_ARGV)
        return out.getvalue()

    out[f"cli.main in process: krullkit {' '.join(EVAL_ARGV)}"] = ("cli.main", cli_eval)
    return out


def load(name: str, src: str):
    """The krullkit package in the directory src, imported as package ``name``."""
    path = os.path.join(os.path.abspath(src), "krullkit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def paired(smoke: bool, kk_a, kk_b) -> dict:
    """Each case's B/A time ratios over shuffled paired rounds; see the module docstring."""
    a, b = cases(smoke, kk_a), cases(smoke, kk_b)
    if list(a) != list(b):
        raise SystemExit(f"the two sides name different cases: {sorted(set(a) ^ set(b))}")
    numbers = {}
    for name, (_, fn) in a.items():
        shown_a, shown_b = repr(fn()), repr(b[name][1]())
        if shown_a != shown_b:
            raise SystemExit(f"{name}: A gives {shown_a[:200]}, B gives {shown_b[:200]}")
        once = min(timeit.repeat(fn, number=1, repeat=3))
        numbers[name] = 1 if smoke else max(1, int(AB_TARGET_S / max(once, 1e-7)))
    rng = random.Random(0)
    times: dict[str, list[dict]] = {name: [] for name in a}
    for _ in range(3 if smoke else AB_ROUNDS):
        order = list(a)
        rng.shuffle(order)
        for name in order:
            sides = [a[name][1], b[name][1]]
            first = rng.randrange(2)
            # timeit turns the garbage collector off while it times.
            times[name].append({side: timeit.Timer(sides[side]).timeit(numbers[name])
                                for side in (first, 1 - first)})
    result = {}
    for name, ts in times.items():
        rs = [t[1] / t[0] for t in ts]
        q1, median, q3 = statistics.quantiles(rs, n=4, method="inclusive")
        result[name] = {"layer": a[name][0], "median_b_over_a": median, "iqr": q3 - q1,
                        "b_slower": sum(r > 1 for r in rs), "rounds": len(rs),
                        "number": numbers[name],
                        "median_a_s": statistics.median(t[0] for t in ts) / numbers[name]}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, fewest rounds")
    ap.add_argument("--ab", metavar="PARENT_SRC", required=True,
                    help="the directory holding the krullkit package to time as A")
    args = ap.parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    report = {"python": platform.python_version(), "platform": platform.platform(),
              "a": os.path.abspath(args.ab), "b": os.path.abspath(src)}
    report["cases"] = paired(args.smoke, load("kk_a", args.ab), load("kk_b", src))
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
