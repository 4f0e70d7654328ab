"""Seeded job decks for the benchmark workloads.

A deck is one round of jobs.  Every round has the same templates in the same
order, and :class:`Gen` keeps their cost fixed, so the seed and the round
only change inputs in ways that leave the work the same.  Because the
benchmark always finishes whole rounds, the latency quantiles land on the
same templates in every run.

Inputs are text (and argv for the ``cli`` workload) only, so parsing is part
of every timed job and the package sees nothing benchmark-specific.  The
timed runners and the checks of the answers are in ``certify.py``.

Inputs that hang the seed commit (the 2^127-1 modulus, ``(t1+t2+t3+1)^300``,
``power-reduce -i 10^8``) are robustness bugs and are not generated here.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction

P = 32003
FP = f"F{P}"
WORKLOADS = ("expand", "integral", "wide", "cli")


@dataclass
class Job:
    """One job: a runner kind, a ring (field and variable count), text inputs
    and, where the answer is known in advance, what it must be."""

    kind: str
    field: str = "Q"
    nvars: int = 1
    args: dict = dataclasses.field(default_factory=dict)
    expect: dict = dataclasses.field(default_factory=dict)


# ----------------------------------------------------------------- generation


class Gen:
    """The random choices of one round.

    ``rng`` is seeded by the workload alone, so it fixes the deck's shape:
    job templates, supports, exponents and the sizes of rational
    coefficients.  ``vary`` is seeded by the benchmark seed and the round, and
    picks only what leaves the work unchanged: the signs of rational
    coefficients, the residues of prime-field coefficients, chain seeds and a
    jitter of a few units in ``power_reduce`` exponents.  No two rounds or
    seeds send the same input, yet every one of them costs the same, which is
    what lets runs with different seeds be compared.
    """

    def __init__(self, workload: str, seed: int, round_no: int):
        self.rng = random.Random(f"{workload}:deck")
        self.vary = random.Random(f"{workload}:{seed}:{round_no}")

    def coef(self, fld: str) -> str:
        """A nonzero scalar literal: a small rational, or a residue mod p."""
        if fld == "Q":
            num = self.rng.randint(1, 5)
            den = self.rng.choice([1, 1, 2, 3, 5])
            text = str(num) if den == 1 else f"{num}/{den}"
            return text if self.vary.random() < 0.5 else f"-{text}"
        return str(self.vary.randrange(1000, int(fld[1:])))

    def terms(self, fld, nvars, nterms, max_deg, *, last_below=None):
        """Distinct random monomials with nonzero coefficients."""
        seen = {}
        while len(seen) < nterms:
            exps = [0] * nvars
            for _ in range(self.rng.randint(0, max_deg)):
                exps[self.rng.randrange(nvars)] += 1
            if last_below is not None and exps[-1] >= last_below:
                continue
            if tuple(exps) not in seen:
                seen[tuple(exps)] = self.coef(fld)
        return [(c, e) for e, c in seen.items()]

    def poly(self, fld, nvars, nterms, max_deg, **kw) -> str:
        return _poly_text(self.terms(fld, nvars, nterms, max_deg, **kw))

    def linear_form(self, fld, nvars) -> str:
        """``(t1 + c2*t2 + ... + cn*tn + c0)``, to be raised to a power."""
        parts = ["t1"] + [f"({self.coef(fld)})*t{j}" for j in range(2, nvars + 1)]
        parts.append(f"({self.coef(fld)})")
        return "(" + " + ".join(parts) + ")"

    def expanded_power(self, fld, nvars, power) -> str:
        """A linear form's power, expanded and written as a flat sum of terms.

        The terms come in a shuffled order with explicit coefficients, so the
        parser reads a large flat sum rather than a compact power.
        """
        # The coefficient of t1 is 1, then t2..tn, and the last is the constant.
        coeffs = [Fraction(1)] + [Fraction(self.coef(fld)) for _ in range(nvars)]
        terms = {(0,) * nvars: Fraction(1)}
        for _ in range(power):
            nxt = {}
            for exps, c in terms.items():
                for j in range(nvars + 1):
                    key = exps if j == nvars else exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                    nxt[key] = nxt.get(key, 0) + c * coeffs[j]
            terms = nxt
        if fld != "Q":
            terms = {e: int(c) % P for e, c in terms.items()}
        items = [(str(c), e) for e, c in terms.items() if c]
        self.rng.shuffle(items)
        return _poly_text(items)

    def monic_generator(self, fld, nvars, degree, *, lower_terms, lower_deg) -> str:
        """t_n^degree plus lower terms in t_n with coefficients in t1..t(n-1)."""
        lower = self.poly(fld, nvars, lower_terms, lower_deg, last_below=degree)
        return f"t{nvars}^{degree} + {lower}"

    def dense_coset_element(self, fld, nvars, degree) -> str:
        """An element whose residue uses every basis coset 1, t_n, ..., t_n^(d-1)."""
        terms = []
        for k in range(degree):
            exps = [0] * nvars
            exps[-1] = k
            exps[self.rng.randrange(nvars - 1)] += self.rng.randint(0, 1)
            terms.append((self.coef(fld), tuple(exps)))
        return _poly_text(terms)

    def tiny_poly(self, n, nterms, lo, hi) -> list:
        """A few terms, each touching one to three of the variables lo+1..hi."""
        terms = {}
        while len(terms) < nterms:
            exps = [0] * n
            for j in self.rng.sample(range(lo, hi), self.rng.randint(1, min(3, hi - lo))):
                exps[j] = self.rng.randint(1, 3)
            if tuple(exps) not in terms:
                terms[tuple(exps)] = self.coef("Q")
        return [(c, e) for e, c in terms.items()]


def _monomial(exps) -> str:
    return "*".join(
        f"t{j + 1}" if e == 1 else f"t{j + 1}^{e}" for j, e in enumerate(exps) if e
    )


def _term(coef: str, exps) -> str:
    mono = _monomial(exps)
    return f"({coef})*{mono}" if mono else f"({coef})"


def _poly_text(terms) -> str:
    return " + ".join(_term(c, e) for c, e in terms) if terms else "0"


# The decks.  Block 0 of each deck holds the heavy tail once; the further
# blocks repeat the light templates with other structure, so that a deck has
# over 100 templates and p90 has at least ten templates above it.


def expand_deck(g: Gen, *, smoke: bool = False) -> list[Job]:
    """Kernel jobs: parse, power, multiply, print, monicize, divide."""
    big = 3 if smoke else 8
    jobs = []
    for block in range(1 if smoke else 7):
        for fld in ("Q", FP):
            # Small sparse products in 3 variables.
            for _ in range(3):
                a, b = g.poly(fld, 3, 6, 4), g.poly(fld, 3, 6, 4)
                jobs.append(Job("product", fld, 3, {"a": a, "b": b}))
            # Powers in 4 variables: 70 and 126 terms.
            for power in (4, 5):
                jobs.append(Job("power", fld, 4, {"a": f"{g.linear_form(fld, 4)}^{power}"}))
            # Monicize and divide a 35-term expanded power.
            f = g.expanded_power(fld, 3, 4)
            jobs.append(Job("monicize", fld, 3, {"f": f}))
            gen = g.monic_generator(fld, 3, 3, lower_terms=3, lower_deg=2)
            jobs.append(Job("divide", fld, 3, {"f": f, "g": gen}))
            if block:
                continue
            # The 165-term expanded power: monicize it, divide it, and
            # multiply it by a compact power (165 x 165 term products).
            f = g.expanded_power(fld, 3, big)
            jobs.append(Job("monicize", fld, 3, {"f": f}))
            gen = g.monic_generator(fld, 3, 3, lower_terms=3, lower_deg=2)
            jobs.append(Job("divide", fld, 3, {"f": f, "g": gen}))
            jobs.append(Job("product", fld, 3, {"a": f, "b": f"{g.linear_form(fld, 3)}^{big}"}))
        if not block:
            # Over F2 and F3 these forms vanish at every point with nonzero
            # coordinates, so the point search must fail with FieldTooSmall.
            jobs.append(Job("monicize", "F2", 2, {"f": "t1^2 + t1*t2"}, {"error": "FieldTooSmall"}))
            jobs.append(
                Job("monicize", "F3", 2, {"f": "t1^3*t2 - t1*t2^3"}, {"error": "FieldTooSmall"})
            )
    return jobs


def integral_deck(g: Gen, *, smoke: bool = False) -> list[Job]:
    """Division, membership, witnesses, contraction and power reduction."""
    jobs = []
    for block in range(1 if smoke else 3):
        heavy = block == 0 and not smoke
        for fld in ("Q", FP):
            # Division and principal membership by a monic cubic, n = 3.
            gen = g.monic_generator(fld, 3, 3, lower_terms=4, lower_deg=2)
            h = g.poly(fld, 3, 6, 4)
            s = g.poly(fld, 3, 3, 3, last_below=3)
            jobs.append(Job("divide", fld, 3, {"f": f"({h})*({gen})", "g": gen}))
            jobs.append(Job("pmember", fld, 3, {"f": f"({h})*({gen})", "g": gen}, {"member": True}))
            jobs.append(
                Job("pmember", fld, 3, {"f": f"({h})*({gen}) + {s}", "g": gen}, {"member": False})
            )
            # Sparse cosets: t1 + c*t2 modulo t2^d - c*t1, d = 2..7.
            for d in (2, 3, 5, 7):
                gen = f"t2^{d} - ({g.coef(fld)})*t1"
                f = f"t1 + ({g.coef(fld)})*t2"
                jobs.append(Job("witness", fld, 2, {"f": f, "g": gen}))
                jobs.append(Job("contract", fld, 2, {"f": f, "g": gen}))
            # Dense cosets: the O(2^d) char poly, d = 3..6 (5 and 6 once).
            for d in (3, 4, 5, 6) if heavy else (3, 4):
                gen = g.monic_generator(fld, 2, d, lower_terms=d, lower_deg=d)
                jobs.append(Job("witness", fld, 2, {"f": g.dense_coset_element(fld, 2, d), "g": gen}))
            gen = g.monic_generator(fld, 3, 3, lower_terms=3, lower_deg=2)
            f = g.dense_coset_element(fld, 3, 3)
            jobs.append(Job("witness", fld, 3, {"f": f, "g": gen}))
            jobs.append(Job("contract", fld, 3, {"f": f, "g": gen}))
            # Zero divisors and multiples of the generator have no witness.
            a, b = g.rng.sample(range(1, 9), 2)
            gen = f"(t2 - {a}*t1)*(t2 - {b}*t1)"
            degenerate = {"error": "DegenerateCharPoly"}
            jobs.append(Job("contract", fld, 2, {"f": f"t2 - {a}*t1", "g": gen}, degenerate))
            power = f"t2^{g.rng.randint(2, 4)}"
            jobs.append(Job("contract", fld, 2, {"f": "t2", "g": power}, degenerate))
            h = g.poly(fld, 2, 2, 2)
            jobs.append(
                Job("contract", fld, 2, {"f": f"({h})*({gen})", "g": gen}, {"error": "ZeroCoset"})
            )
        # Power reduction, linear in i: periodic, Fibonacci-like and random
        # relations, i about 10^3, and up to 10^4 once.
        for fld, relation, top in (
            ("Q", "-1,0", 10_000),
            (FP, "1,1", 5_000),
            (FP, ",".join(g.coef(FP) for _ in range(3)), 3_000),
        ):
            sizes = (1_000, top) if heavy else (50 if smoke else 1_000,)
            for i in sizes:
                jobs.append(
                    Job("power_reduce", fld, 1, {"relation": relation, "i": i + g.vary.randint(0, 9)})
                )
    return jobs


def wide_deck(g: Gen, *, smoke: bool = False) -> list[Job]:
    """Wide rings with tiny polynomials: chains, membership, splits, min powers."""
    jobs = []
    for block in range(1 if smoke else 3):
        for n in (20, 50) if smoke else (20, 50, 100, 200):
            for _ in range(2):
                checks = 2 if smoke else max(2, 150 // n)
                jobs.append(
                    Job("chain", "Q", n, {"checks": checks, "seed": g.vary.randrange(1 << 30)})
                )
            for _ in range(3):
                k = g.rng.randint(1, n)
                f = _poly_text(g.tiny_poly(n, g.rng.randint(2, 4), 0, n))
                jobs.append(Job("member", "Q", n, {"f": f, "k": k}))
                jobs.append(Job("split", "Q", n, {"f": f, "k": k}))
                # A strict member of level k: f = lower + t_k^m * cofactor, where
                # the cofactor is free of t1..t(k-1) and has a constant term.
                k = g.rng.randint(2, n)
                m = g.rng.randint(1, 3)
                lower = g.tiny_poly(n, 2, 0, k - 1)
                cofactor = g.tiny_poly(n, 2, k - 1, n) + [(g.coef("Q"), (0,) * n)]
                shifted = [(c, e[: k - 1] + (e[k - 1] + m,) + e[k:]) for c, e in cofactor]
                jobs.append(Job("minpow", "Q", n, {"f": _poly_text(lower + shifted), "k": k}))
    return jobs


README_TRANSCRIPTS = (
    (
        ["split", "--vars", "2", "-k", "1", "t1^3 + 2*t1^2*t2 + 4*t2^3"],
        0,
        "dependent: t1^3 + 2*t1^2*t2\nfree: 4*t2^3\n",
    ),
    (
        ["monicize", "--vars", "2", "t1^3 + 2*t1^2*t2 + 4*t2^3"],
        0,
        "a: 1\nlambda: 7\ng: 1/7*t1^3 + 5/7*t1^2*t2 + t1*t2^2 + t2^3\ndegree: 3\n",
    ),
    (["eval", "--vars", "2", "--at", "2,2", "t1^3 + 2*t1^2*t2 + 4*t2^3"], 0, "56\n"),
    (
        ["chain-verify", "--vars", "3", "--checks", "200"],
        0,
        "ring: Q[t1,t2,t3]\naccepted: true\nproper: true\n"
        "zero ideal checks passed: 200\n"
        "level 1: witness t1 in_upper true in_lower false checks 200\n"
        "level 2: witness t2 in_upper true in_lower false checks 200\n"
        "level 3: witness t3 in_upper true in_lower false checks 200\n",
    ),
    (["power-reduce", "--relation=-1,0", "-i", "3"], 0, "0,-1\n"),
    (["degree", "--vars", "2", "t1 + t9"], 2, ""),
)


def cli_deck(g: Gen, *, smoke: bool = False) -> list[Job]:
    """Calls of ``krullkit.cli.main``: the README transcripts, then seeded
    variants of every subcommand, in text and in ``--json``.

    ``args["inputs"]`` repeats the inputs as the checks need them.
    """
    jobs = [
        Job("cli", args={"argv": argv}, expect={"code": code, "stdout": out})
        for argv, code, out in README_TRANSCRIPTS
    ]
    for block in range(1 if smoke else 4):
        fld = ("Q", FP)[block % 2]
        f2, f3 = g.poly(fld, 2, 4, 3), g.poly(fld, 3, 5, 4)
        form = f"(t1 + ({g.coef(fld)})*t2)^3 - t1^3"
        gen = g.monic_generator(fld, 2, 2, lower_terms=2, lower_deg=2)
        h = g.poly(fld, 2, 3, 2)
        k = g.rng.randint(1, 2)
        j = g.rng.randint(1, 3)
        point = ",".join(str(g.rng.randint(1, 9)) for _ in range(3))
        low = g.poly(fld, 2, 2, 2)
        minpow = f"t1*({low}) + t2^{g.rng.randint(1, 4)}*(1 + t1*({h}))"
        relation = f"{g.coef(fld)},{g.coef(fld)}"
        element = f"t1 + ({g.coef(fld)})*t2"
        chain_vars = g.rng.randint(2, 4)
        i = g.rng.randint(10, 60)
        variants = [
            ("eval", 3, ["--at", point, f3], {"f": f3, "point": point}),
            ("degree", 3, ["--in", str(j), f3], {"f": f3, "j": j}),
            ("homog", 2, ["--leading", f2], {"f": f2}),
            ("split", 3, ["-k", str(k), f3], {"f": f3, "k": k}),
            ("member", 3, ["-k", str(k), f3], {"f": f3, "k": k}),
            ("minpow", 2, ["-k", "2", minpow], {"f": minpow, "k": 2}),
            ("chain-verify", chain_vars,
             ["--checks", "20", "--seed", str(g.vary.randrange(1000))], {"checks": 20}),
            ("nonvanish", 2, ["--homogeneous", form], {"f": form}),
            ("monicize", 2, [f2], {"f": f2}),
            ("divide", 2, [f"({h})*({gen}) + t1", gen], {"f": f"({h})*({gen}) + t1", "g": gen}),
            ("pmember", 2, [f"({h})*({gen})", gen], {"member": True}),
            ("witness", 2, [element, gen], {"f": element, "g": gen}),
            ("power-reduce", 1, [f"--relation={relation}", "-i", str(i)],
             {"relation": relation, "i": i}),
            ("contract-witness", 2, [element, gen], {"f": element, "g": gen}),
        ]
        for cmd, nvars, tail, inputs in variants[:2] if smoke else variants:
            for mode in ([], ["--json"]):
                argv = [cmd, "--vars", str(nvars), "--field", fld, *mode, *tail]
                jobs.append(Job("cli", fld, nvars, {"argv": argv, "inputs": inputs}))
    return jobs


DECKS = {
    "expand": expand_deck,
    "integral": integral_deck,
    "wide": wide_deck,
    "cli": cli_deck,
}


def make_round(workload: str, seed: int, round_no: int, *, smoke: bool = False) -> list[Job]:
    """The jobs of one round; equal arguments give equal jobs."""
    return DECKS[workload](Gen(workload, seed, round_no), smoke=smoke)
