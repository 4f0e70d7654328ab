"""Timed job runners and the untimed checks of their answers.

``run_job`` is the timed region of one job.  It builds the ring from text,
parses the inputs, calls the package's public API and renders the canonical
text that the matching ``krullkit`` command prints.  ``check_job`` then
verifies the answer outside the timed region, using the naive routines of
``tests/oracles.py`` and exact specialisations of the last-variable
identities at seeded points: once the first n-1 variables are fixed, a
generator monic in t_n stays monic, so reduction modulo it commutes with the
specialisation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import types
from fractions import Fraction

import oracles


class CheckFailed(Exception):
    """An answer that fails its check."""


def _ring(kk, job):
    return kk.RingSpec.default(kk.FieldSpec.from_text(job.field), job.nvars)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_args(kk, job, *names):
    ring = _ring(kk, job)
    return ring, [kk.parse_polynomial(job.args[name], ring) for name in names]


def _run_product(kk, job):
    _, (a, b) = _parse_args(kk, job, "a", "b")
    c = a * b
    return str(c), (a, b, c)


def _run_power(kk, job):
    _, (a,) = _parse_args(kk, job, "a")
    return str(a), (a,)


def _run_monicize(kk, job):
    _, (f,) = _parse_args(kk, job, "f")
    res = kk.monicize(f)
    doc = res.to_json_dict()
    text = f"a: {','.join(doc['a'])}\nlambda: {doc['lambda']}\ng: {doc['g']}\ndegree: {doc['degree']}"
    return text, (f, res)


def _run_divide(kk, job):
    _, (f, g) = _parse_args(kk, job, "f", "g")
    q, r = kk.divide_monic(f, g)
    return f"quotient: {q}\nremainder: {r}", (f, g, q, r)


def _run_pmember(kk, job):
    _, (f, g) = _parse_args(kk, job, "f", "g")
    answer = kk.principal_member(f, g)
    return _bool(answer), answer


def _run_witness(kk, job):
    # As ``krullkit witness`` does: the witness must pass its own check.
    _, (f, g) = _parse_args(kk, job, "f", "g")
    witness = kk.coset_integrality_witness(f, g)
    if not witness.annihilates_modulo(g):
        raise CheckFailed("integral dependence failed its annihilation check")
    doc = witness.to_json_dict()
    text = f"char_poly: {', '.join(doc['char_poly'])}\nelement: {doc['element']}\ncheck: zero"
    return text, (f, g, witness)


def _run_contract(kk, job):
    _, (f, g) = _parse_args(kk, job, "f", "g")
    constant, cofactor = kk.contraction_witness(f, g)
    return f"constant: {constant}\ncofactor: {cofactor}", (f, g, constant, cofactor)


def _run_power_reduce(kk, job):
    ring = _ring(kk, job)
    coeffs = tuple(
        kk.parse_polynomial(part, ring) for part in job.args["relation"].split(",")
    )
    reduced = kk.power_reduce(
        kk.ReductionCoefficients(coeffs), job.args["i"], zero=ring.zero(), one=ring.one()
    )
    return ",".join(str(c) for c in reduced.coefficients), (coeffs, reduced)


def _run_chain(kk, job):
    ring = _ring(kk, job)
    report = kk.verify_chain(
        ring, checks_per_level=job.args["checks"], seed=job.args["seed"]
    )
    lines = [
        f"ring: {report.ring}",
        f"accepted: {_bool(report.accepted)}",
        f"proper: {_bool(report.proper)}",
        f"zero ideal checks passed: {report.zero_ideal_checks_passed}",
    ]
    lines.extend(
        f"level {lv.level}: witness {lv.witness} in_upper {_bool(lv.in_upper)} "
        f"in_lower {_bool(lv.in_lower)} checks {lv.product_checks_passed}"
        for lv in report.levels
    )
    lines.extend(f"failure: {msg}" for msg in report.failures)
    return "\n".join(lines), report


def _run_member(kk, job):
    ring, (f,) = _parse_args(kk, job, "f")
    answer = kk.MonomialPrimeIdeal(ring, job.args["k"]).contains(f)
    return _bool(answer), (f, answer)


def _run_split(kk, job):
    _, (f,) = _parse_args(kk, job, "f")
    dependent, free = f.split_by_support(job.args["k"])
    return f"dependent: {dependent}\nfree: {free}", (f, dependent, free)


def _run_minpow(kk, job):
    _, (f,) = _parse_args(kk, job, "f")
    dec = kk.extract_min_power(f, job.args["k"])
    text = f"power: {dec.power}\nlower: {dec.lower_part}\ncofactor: {dec.cofactor}"
    return text, (f, dec)


RUNNERS = {
    "product": _run_product,
    "power": _run_power,
    "monicize": _run_monicize,
    "divide": _run_divide,
    "pmember": _run_pmember,
    "witness": _run_witness,
    "contract": _run_contract,
    "power_reduce": _run_power_reduce,
    "chain": _run_chain,
    "member": _run_member,
    "split": _run_split,
    "minpow": _run_minpow,
}


def run_job(kk, job):
    """The timed region: returns (canonical text, value for the check).

    A domain error is an answer too: its text is ``error: <Identifier>``, as
    the CLI reports it, and the check decides whether it was expected.
    """
    try:
        return RUNNERS[job.kind](kk, job)
    except kk.KrullkitError as exc:
        return f"error: {exc.identifier}", exc


# --------------------------------------------------------------------- checks


def _modulus(job):
    return None if job.field == "Q" else int(job.field[1:])


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _red(values, mod):
    return [Fraction(v) % mod if mod else Fraction(v) for v in values]


def _same(a: dict, b: dict, mod) -> bool:
    return oracles.naive_add(a, {}, mod) == oracles.naive_add(b, {}, mod)


def _point(rng, k, mod):
    return [rng.randrange(1, mod) if mod else Fraction(rng.randint(2, 60)) for _ in range(k)]


def _specialize(poly, prefix, mod) -> list:
    """Dense coefficients in t_n after fixing t1..t(n-1) to ``prefix``."""
    raw = oracles.raw(poly)
    deg = max((e[-1] for e in raw), default=0)
    out = [Fraction(0)] * (deg + 1)
    for exps, c in raw.items():
        v = Fraction(c)
        for x, e in zip(prefix, exps[:-1]):
            v *= Fraction(x) ** e
        out[exps[-1]] += v
    return _red(out, mod)


def _urem(num, gen, mod):
    return _red(oracles.univariate_remainder(num, gen), mod)


def _umul(a, b, mod):
    return _red(oracles.dense_mul(a, b), mod)


def _constant(poly, mod):
    """The value of a polynomial that must be a constant."""
    raw = oracles.raw(poly)
    _require(all(not any(e) for e in raw), f"{poly} is not a constant")
    return _red([sum(raw.values(), 0)], mod)[0]


def _check_product(job, value, rng):
    a, b, c = value
    mod = _modulus(job)
    _require(
        _same(oracles.naive_mul(oracles.raw(a), oracles.raw(b), mod), oracles.raw(c), mod),
        "product differs from the schoolbook product",
    )


def _check_power(job, value, rng, kk):
    (a,) = value
    base_text, power = job.args["a"].rsplit("^", 1)
    base = kk.parse_polynomial(base_text, a.ring)
    expected = oracles.naive_pow(oracles.raw(base), int(power), job.nvars, _modulus(job))
    _require(_same(expected, oracles.raw(a), _modulus(job)), "power differs from repeated products")


def _check_monicize(job, value, rng):
    f, res = value
    mod = _modulus(job)
    raw_f, raw_g = oracles.raw(f), oracles.raw(res.monic)
    d = res.degree
    _require(d == oracles.total_deg(raw_f), "degree is not the total degree of f")
    top = {e: c for e, c in raw_g.items() if e[-1] >= d}
    _require(top == {(0,) * (job.nvars - 1) + (d,): 1}, "result is not monic of degree d")
    a = [c.value for c in res.substitution.coefficients]
    lam = res.substitution.scale.value
    for _ in range(2):
        x = _point(rng, job.nvars, mod)
        y = [xj + aj * x[-1] for xj, aj in zip(x, a)] + [x[-1]]
        lhs = oracles.naive_eval(raw_g, x, mod) * lam
        rhs = oracles.naive_eval(raw_f, y, mod)
        _require(_red([lhs - rhs], mod) == [0], "monic * lambda != f(t + a*t_n)")


def _check_divide(job, value, rng):
    f, g, q, r = value
    mod = _modulus(job)
    d = max(e[-1] for e in oracles.raw(g))
    qg = oracles.naive_mul(oracles.raw(q), oracles.raw(g), mod)
    _require(
        _same(oracles.naive_add(qg, oracles.raw(r), mod), oracles.raw(f), mod),
        "q*g + r != f",
    )
    _require(all(e[-1] < d for e in oracles.raw(r)), "deg_tn r >= d")


def _check_pmember(job, value, rng):
    _require(value == job.expect["member"], f"membership answer {value} is wrong")


def _check_witness(job, value, rng):
    f, g, witness = value
    mod = _modulus(job)
    chi = witness.coefficients
    gs_degree = max(e[-1] for e in oracles.raw(g))
    _require(len(chi) == gs_degree + 1, "char poly has the wrong length")
    for attempt in range(2):
        prefix = _point(rng, job.nvars - 1, mod)
        gs = _specialize(g, prefix, mod)
        fr = _urem(_specialize(f, prefix, mod), gs, mod)
        chi_x = [_constant_at(c, prefix, mod) for c in chi]
        _require(chi_x[-1] == 1, "char poly is not monic")
        # Cayley-Hamilton: chi(f) = 0 modulo g, in the specialised ring.
        acc = [Fraction(0)]
        for c in reversed(chi_x):
            acc = _urem(_umul(acc, fr, mod) if any(acc) else [Fraction(0)], gs, mod)
            acc[0] = _red([acc[0] + c], mod)[0]
        _require(not any(acc), "char poly does not annihilate f modulo g")
        if attempt == 0 and len(chi) - 1 <= 6:
            rows, row = [], fr
            for _ in range(len(chi) - 1):
                rows.append(row)
                row = _urem([Fraction(0)] + row, gs, mod)
            det = _red(oracles.leibniz_charpoly(rows), mod)
            _require(det == chi_x, "char poly differs from the permutation sum")


def _constant_at(poly, prefix, mod):
    values = _specialize(poly, prefix, mod)
    _require(all(v == 0 for v in values[1:]), f"{poly} is not free of t_n")
    return values[0]


def _check_contract(job, value, rng):
    f, g, constant, cofactor = value
    mod = _modulus(job)
    _require(not constant.is_zero, "contraction constant is zero")
    for _ in range(2):
        prefix = _point(rng, job.nvars - 1, mod)
        gs = _specialize(g, prefix, mod)
        c0 = _constant_at(constant, prefix, mod)
        prod = _umul(_specialize(f, prefix, mod), _specialize(cofactor.residue, prefix, mod), mod)
        prod[0] -= c0
        _require(not any(_urem(prod, gs, mod)), "f*w != c0 modulo g")


def _power_coords(relation, i, mod):
    if mod is None:
        return oracles.power_coords_by_division(relation, i)
    # Dense division of t^i by t^d - sum(c_j t^j), reduced mod p as it goes.
    d = len(relation)
    num = [0] * i + [1]
    for top in range(i, d - 1, -1):
        lead = num[top]
        if lead:
            for j in range(d):
                num[top - d + j] = (num[top - d + j] + lead * relation[j]) % mod
    return (num + [0] * d)[:d]


def _check_power_reduce(job, value, rng):
    coeffs, reduced = value
    mod = _modulus(job)
    relation = [_constant(c, mod) for c in coeffs]
    expected = _red(_power_coords(relation, job.args["i"], mod), mod)
    got = [_constant(c, mod) for c in reduced.coefficients]
    _require(got == expected, "power coordinates differ from dense division")


def _check_chain(job, report, rng):
    checks = job.args["checks"]
    _require(report.accepted and report.proper and not report.failures, "chain not accepted")
    _require(report.zero_ideal_checks_passed == checks, "zero ideal checks missing")
    _require(
        [lv.level for lv in report.levels] == list(range(1, job.nvars + 1)),
        "accepted without every level",
    )
    for lv in report.levels:
        _require(
            lv.in_upper and not lv.in_lower and lv.product_checks_passed == checks
            and str(lv.witness) == f"t{lv.level}",
            f"level {lv.level} is not fully checked",
        )


def _check_member(job, value, rng):
    f, answer = value
    _require(answer == oracles.member_scan(oracles.raw(f), job.args["k"]), "membership is wrong")


def _touches(exps, k) -> bool:
    return any(exps[:k])


def _check_split(job, value, rng):
    f, dependent, free = value
    k = job.args["k"]
    dep, fr = oracles.raw(dependent), oracles.raw(free)
    _require(oracles.naive_add(dep, fr) == oracles.raw(f), "dependent + free != f")
    _require(all(_touches(e, k) for e in dep), "a dependent term is free")
    _require(not any(_touches(e, k) for e in fr), "a free term touches t1..tk")


def _check_minpow(job, value, rng):
    f, dec = value
    k = job.args["k"]
    lower, cof = oracles.raw(dec.lower_part), oracles.raw(dec.cofactor)
    shift = tuple(dec.power if j == k - 1 else 0 for j in range(job.nvars))
    rebuilt = oracles.naive_add(lower, oracles.naive_mul(cof, {shift: 1}))
    _require(rebuilt == oracles.raw(f), "lower + t_k^m * cofactor != f")
    _require(all(_touches(e, k - 1) for e in lower), "lower part has a term free of t1..t(k-1)")
    _require(not any(_touches(e, k - 1) for e in cof), "cofactor touches t1..t(k-1)")
    _require(any(not _touches(e, k) for e in cof), "cofactor has no term free of t1..tk")


CHECKS = {
    "product": _check_product,
    "monicize": _check_monicize,
    "divide": _check_divide,
    "pmember": _check_pmember,
    "witness": _check_witness,
    "contract": _check_contract,
    "power_reduce": _check_power_reduce,
    "chain": _check_chain,
    "member": _check_member,
    "split": _check_split,
    "minpow": _check_minpow,
}


def check_job(kk, job, text, value) -> None:
    """Raise :class:`CheckFailed` unless the answer is right.

    An expected typed error passes only when its identifier is exact.
    """
    expected_error = job.expect.get("error")
    if isinstance(value, kk.KrullkitError) or expected_error:
        got = getattr(value, "identifier", None)
        _require(
            got == expected_error and text == f"error: {expected_error}",
            f"expected {expected_error or 'an answer'}, got {text!r}",
        )
        return
    rng = random.Random(f"{job.kind}:{job.field}:{sorted(job.args.items())}")
    if job.kind == "power":
        _check_power(job, value, rng, kk)
    elif job.kind == "cli":
        try:
            _check_cli(kk, job, value, rng)
        except (ValueError, KeyError, TypeError, kk.KrullkitError) as exc:
            raise CheckFailed(f"unreadable output: {exc!r}") from exc
    else:
        CHECKS[job.kind](job, value, rng)


# ------------------------------------------------------------------ cli calls


def _run_cli(kk, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kk.cli.main(job.args["argv"])
    return f"exit {code}\n{out.getvalue()}", (code, out.getvalue(), err.getvalue())


RUNNERS["cli"] = _run_cli

_LEVEL_RE = re.compile(
    r"level (\d+): witness (\S+) in_upper (true|false) in_lower (true|false) checks (\d+)\Z"
)


def _text_fields(cmd: str, out: str) -> dict:
    """The fields of a command's text output, in the shape of its JSON."""
    _require(out.endswith("\n"), "output does not end with a newline")
    body = out[:-1]
    if cmd == "eval":
        return {"value": body}
    if cmd == "degree":
        return {"degree": None if body == "undefined" else int(body)}
    if cmd == "homog":
        return {"leading_form": body}
    if cmd in ("member", "pmember"):
        _require(body in ("true", "false"), f"not a boolean: {body!r}")
        return {"member": body == "true"}
    if cmd == "nonvanish":
        return {"point": body.split(",")}
    if cmd == "power-reduce":
        return {"coordinates": body.split(",")}
    lines = body.split("\n")
    if cmd == "chain-verify":
        head = dict(line.split(": ", 1) for line in lines if not line.startswith(("level", "failure")))
        levels = []
        for line in lines:
            if line.startswith("level"):
                m = _LEVEL_RE.match(line)
                _require(m is not None, f"bad level line {line!r}")
                levels.append({
                    "level": int(m[1]), "witness": m[2], "in_upper": m[3] == "true",
                    "in_lower": m[4] == "true", "product_checks_passed": int(m[5]),
                })
        return {
            "accepted": head["accepted"] == "true",
            "proper": head["proper"] == "true",
            "zero_ideal_checks_passed": int(head["zero ideal checks passed"]),
            "levels": levels,
            "failures": [line for line in lines if line.startswith("failure")],
        }
    fields = dict(line.split(": ", 1) for line in lines)
    if cmd == "monicize":
        fields["a"] = fields["a"].split(",")
        fields["degree"] = int(fields["degree"])
    elif cmd == "minpow":
        fields["power"] = int(fields["power"])
    elif cmd == "witness":
        fields["char_poly"] = fields["char_poly"].split(", ")
    return fields


def _cli_ring(kk, job):
    return kk.RingSpec.default(kk.FieldSpec.from_text(job.field), job.nvars)


def _check_cli(kk, job, value, rng):
    """The printed answer of a command must be a valid certificate."""
    code, out, err = value
    if "code" in job.expect:
        _require(
            (code, out) == (job.expect["code"], job.expect["stdout"]),
            "output differs from the README transcript",
        )
        _require(bool(err) == bool(code), "stderr does not match the exit code")
        return
    _require(code == 0 and not err, f"exit {code}: {err.strip()}")
    argv, inputs = job.args["argv"], job.args["inputs"]
    cmd = argv[0]
    doc = json.loads(out) if "--json" in argv else _text_fields(cmd, out)
    ring = _cli_ring(kk, job)
    mod = _modulus(job)
    sub = type(job)(cmd, job.field, job.nvars, inputs)

    def poly(text):
        return kk.parse_polynomial(text, ring)

    f = poly(inputs["f"]) if "f" in inputs else None
    g = poly(inputs["g"]) if "g" in inputs else None
    if cmd == "eval":
        point = [Fraction(x) for x in inputs["point"].split(",")]
        want = oracles.naive_eval(oracles.raw(f), point, mod)
        _require(_red([Fraction(doc["value"]) - want], mod) == [0], "wrong value")
    elif cmd == "degree":
        want = max((e[inputs["j"] - 1] for e in oracles.raw(f)), default=None)
        _require(doc["degree"] == want, "wrong degree")
    elif cmd == "homog":
        raw = oracles.raw(f)
        top = oracles.total_deg(raw)
        want = {e: c for e, c in raw.items() if sum(e) == top}
        _require(oracles.raw(poly(doc["leading_form"])) == want, "wrong leading form")
    elif cmd == "split":
        _check_split(sub, (f, poly(doc["dependent"]), poly(doc["free"])), rng)
    elif cmd == "member":
        _check_member(sub, (f, doc["member"]), rng)
    elif cmd == "minpow":
        dec = types.SimpleNamespace(
            power=doc["power"], lower_part=poly(doc["lower"]), cofactor=poly(doc["cofactor"])
        )
        _check_minpow(sub, (f, dec), rng)
    elif cmd == "chain-verify":
        report = types.SimpleNamespace(**doc)
        report.levels = [types.SimpleNamespace(**lv) for lv in doc["levels"]]
        _check_chain(sub, report, rng)
    elif cmd == "nonvanish":
        point = [Fraction(x) for x in doc["point"]]
        _require(point[-1] == 1 and all(point), "point has a zero or a last coordinate != 1")
        value = oracles.naive_eval(oracles.raw(f), point, mod)
        _require(_red([value], mod) != [0], "the form vanishes at the point")
    elif cmd == "monicize":
        sub_res = types.SimpleNamespace(
            degree=doc["degree"],
            monic=poly(doc["g"]),
            substitution=types.SimpleNamespace(
                coefficients=[types.SimpleNamespace(value=Fraction(a)) for a in doc["a"]],
                scale=types.SimpleNamespace(value=Fraction(doc["lambda"])),
            ),
        )
        _check_monicize(sub, (f, sub_res), rng)
    elif cmd == "divide":
        _check_divide(sub, (f, g, poly(doc["quotient"]), poly(doc["remainder"])), rng)
    elif cmd == "pmember":
        _require(doc["member"] is inputs["member"], "wrong membership")
    elif cmd == "witness":
        _require(doc["check"] == "zero" and poly(doc["element"]) == f, "bad witness fields")
        witness = types.SimpleNamespace(coefficients=tuple(poly(c) for c in doc["char_poly"]))
        _check_witness(sub, (f, g, witness), rng)
    elif cmd == "power-reduce":
        relation = tuple(poly(c) for c in inputs["relation"].split(","))
        reduced = types.SimpleNamespace(coefficients=[poly(c) for c in doc["coordinates"]])
        _check_power_reduce(sub, (relation, reduced), rng)
    elif cmd == "contract-witness":
        cofactor = types.SimpleNamespace(residue=poly(doc["cofactor"]))
        _check_contract(sub, (f, g, poly(doc["constant"]), cofactor), rng)
    else:
        raise CheckFailed(f"no check for {cmd}")

