"""Command line interface over the toolkit.

Every command takes the ring description flags ``--vars`` (a count for the
default names t1..tn, or an explicit comma-separated name list) and
``--field`` (``Q`` or ``F<p>``), prints text by default or a single JSON
document under ``--json``, and exits 0 on success, 1 on a domain error
(reported as ``error: <Identifier>: <message>`` on stderr), or 2 on a
usage or parse error.  A reader that closes stdout early gets exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .chains import DEFAULT_SEED, MonomialPrimeIdeal, extract_min_power, verify_chain
from .errors import ArgumentError, KrullkitError, SelfCheckError, digit_limit, shown
from .field import FieldElement, FieldSpec
from .integral import (
    MonicGenerator,
    ReductionCoefficients,
    contraction_witness,
    coset_integrality_witness,
    divide_monic,
    power_reduce,
    principal_member,
)
from .normalize import monicize, nonvanishing_point, nonvanishing_point_homogeneous
from .parse import parse_polynomial
from .poly import RingSpec


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(value)
    return "undefined" if value is None else str(value)


def _text(doc: dict) -> str:
    """A one-key doc prints its value; a longer one, "key: value" lines in key order."""
    if len(doc) == 1:
        return _value_text(*doc.values())
    return "\n".join(f"{k}: {_value_text(v)}" for k, v in doc.items())


_INT = re.compile(r"\s*(-?([0-9]+))\s*")  # the grammar's integer literal, as in --at
_RATIONAL = re.compile(r"\s*-?([0-9]+)(?:/([0-9]+))?\s*")  # and its rational literal


class _IntError(argparse.ArgumentTypeError, ArgumentError):
    """A bad integer: argparse prints it as a usage error, main as InvalidArgument."""


def _int(text: str) -> int:
    """The one integer reader; a bad token is named as :func:`shown` names it."""
    if (match := _INT.fullmatch(text)) and len(match[2]) <= digit_limit():
        return int(match[1])
    named = shown(text)  # the token quoted, or "of N characters"
    raise _IntError(f"invalid int value{' ' if named.startswith('of ') else ': '}{named}")


def _make_ring(args: argparse.Namespace) -> RingSpec:
    field = FieldSpec.from_text(args.field)
    if _INT.fullmatch(args.vars):
        return RingSpec.default(field, _int(args.vars))
    return RingSpec(field, tuple(name.strip() for name in args.vars.split(",")))


def _parse_scalar(text: str, field: FieldSpec) -> FieldElement:
    # Only the grammar's rational literal, within the digit rule: Fraction()
    # also takes forms such as "1e100000000", which take unbounded time to expand.
    if (match := _RATIONAL.fullmatch(text)) and max(map(len, match.groups(""))) <= digit_limit():
        try:
            return field.element(Fraction(text))
        except ZeroDivisionError:  # 1/0, or 1/p over F_p
            pass
    raise ArgumentError(f"bad scalar literal {shown(text)}")


def _cmd_eval(args, ring, f):
    point = [_parse_scalar(part, ring.field) for part in args.at.split(",")]
    return {"value": str(f.evaluate(point))}


def _resolve_variable(ring: RingSpec, spec: str) -> int:
    # An index is range-checked by degree_in.
    if _INT.fullmatch(spec):
        return _int(spec)
    try:
        return ring.index_of(spec)
    except KeyError:
        raise ArgumentError(f"unknown variable {shown(spec, 'name')}") from None


def _cmd_degree(args, ring, f):
    if args.var is not None:
        return {"degree": f.degree_in(_resolve_variable(ring, args.var))}
    return {"degree": f.total_degree()}


def _cmd_homog(args, ring, f):
    if args.leading:
        return {"leading_form": str(f.leading_form())}
    if args.degree is not None:
        part = str(f.homogeneous_component(args.degree))
        return part, {"component": part, "degree": args.degree}
    return {"homogeneous": f.is_homogeneous()}


def _cmd_split(args, ring, f):
    dependent, free = f.split_by_support(args.level)
    return {"dependent": str(dependent), "free": str(free)}


def _cmd_member(args, ring, f):
    return {"member": MonomialPrimeIdeal(ring, args.level).contains(f)}


def _cmd_minpow(args, ring, f):
    dec = extract_min_power(f, args.level)
    return {"power": dec.power, "lower": str(dec.lower_part), "cofactor": str(dec.cofactor)}


def _cmd_chain_verify(args, ring):
    # The text is read off the doc, so each witness is formatted once.
    doc = verify_chain(ring, checks_per_level=args.checks, seed=args.seed).to_json_dict()
    lines = [_text({
        "ring": doc["ring"],
        "accepted": doc["accepted"],
        "proper": doc["proper"],
        "zero ideal checks passed": doc["zero_ideal_checks_passed"],
    })]
    for level in doc["levels"]:
        lines.append(
            f"level {level['level']}: witness {level['witness']} "
            f"in_upper {_value_text(level['in_upper'])} "
            f"in_lower {_value_text(level['in_lower'])} "
            f"checks {level['product_checks_passed']}"
        )
    lines.extend(f"failure: {msg}" for msg in doc["failures"])
    return "\n".join(lines), doc


def _cmd_nonvanish(args, ring, f):
    point = (
        nonvanishing_point_homogeneous(f)
        if args.homogeneous
        else nonvanishing_point(f)
    )
    return {"point": [str(c) for c in point]}


def _cmd_monicize(args, ring, f):
    return monicize(f).to_json_dict()


def _cmd_divide(args, ring, f, g):
    q, r = divide_monic(f, g)
    return {"quotient": str(q), "remainder": str(r)}


def _cmd_pmember(args, ring, f, g):
    return {"member": principal_member(f, g)}


def _cmd_witness(args, ring, f, g):
    gen = MonicGenerator(g)
    witness = coset_integrality_witness(f, gen)
    if not witness.annihilates_modulo(gen):
        raise SelfCheckError("integral dependence failed its annihilation check")
    doc = witness.to_json_dict()
    # The char poly's coefficients join with ", ", not ",".
    return _text({**doc, "char_poly": ", ".join(doc["char_poly"])}), doc


def _cmd_power_reduce(args, ring):
    coeffs = tuple(
        parse_polynomial(part, ring) for part in args.relation.split(",")
    )
    relation = ReductionCoefficients(coeffs)
    reduced = power_reduce(relation, args.power)
    return {"coordinates": [str(c) for c in reduced.coefficients]}


def _cmd_contract_witness(args, ring, f, g):
    constant, cofactor = contraction_witness(f, g)
    return {"constant": str(constant), "cofactor": str(cofactor)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: callers share it and must not change it."""
    # Safe to share: argparse looks up the streams and terminal width only to print.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--vars",
        default="1",
        help="variable count (default names t1..tn) or comma-separated names",
    )
    common.add_argument("--field", default="Q", help="coefficient field, Q or F<p>")
    common.add_argument(
        "--json", action="store_true", help="print one JSON document instead of text"
    )
    common.add_argument(
        "--seed", type=_int, default=DEFAULT_SEED, help="seed for randomized checks"
    )

    parser = argparse.ArgumentParser(
        prog="krullkit",
        description="Exact polynomial-ring toolkit: chains, monicization, "
        "integral extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, *positionals):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=handler, polys=positionals)
        for positional in positionals:
            p.add_argument(positional)
        return p

    p = command("eval", _cmd_eval, "evaluate a polynomial at a point", "poly")
    p.add_argument("--at", required=True, help="comma-separated coordinates")

    p = command("degree", _cmd_degree, "total degree, or degree in one variable", "poly")
    p.add_argument("--in", dest="var", metavar="VAR", help="variable name or 1-based index")

    p = command("homog", _cmd_homog, "homogeneity test, component, or leading form", "poly")
    p.add_argument("-d", "--degree", type=_int, help="extract this degree's component")
    p.add_argument(
        "--leading", action="store_true", help="extract the leading form"
    )

    p = command("split", _cmd_split, "split into dependent and free parts", "poly")
    p.add_argument("-k", "--level", type=_int, required=True)

    p = command("member", _cmd_member, "membership in the level-k variable ideal", "poly")
    p.add_argument("-k", "--level", type=_int, required=True)

    p = command("minpow", _cmd_minpow, "extract the minimal power of t_k", "poly")
    p.add_argument("-k", "--level", type=_int, required=True)

    p = command("chain-verify", _cmd_chain_verify, "verify the full ideal chain")
    p.add_argument(
        "--checks", type=_int, default=100, help="product checks per level"
    )

    p = command("nonvanish", _cmd_nonvanish, "find a non-vanishing point", "poly")
    p.add_argument(
        "--homogeneous",
        action="store_true",
        help="normalize the last coordinate to 1 (input must be a form)",
    )

    both = ("poly", "generator")
    command("monicize", _cmd_monicize, "make monic in the last variable", "poly")
    command("divide", _cmd_divide, "divide by a monic-in-t_n generator", *both)
    command("pmember", _cmd_pmember, "membership in a monic principal ideal", *both)
    command("witness", _cmd_witness, "integral dependence of a coset", *both)

    p = command("power-reduce", _cmd_power_reduce, "reduce a power to basis coordinates")
    p.add_argument(
        "--relation",
        required=True,
        help="comma-separated coordinates of a^d in the basis 1..a^(d-1)",
    )
    p.add_argument("-i", "--power", type=_int, required=True)

    command(
        "contract-witness",
        _cmd_contract_witness,
        "nonzero last-variable-free constant in the contracted ideal",
        *both,
    )

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ring = _make_ring(args)
        polys = [parse_polynomial(getattr(args, name), ring) for name in args.polys]
        # A handler returns its doc, or (text, doc) when its text is not _text(doc).
        doc = args.func(args, ring, *polys)
        text, doc = doc if isinstance(doc, tuple) else (_text(doc), doc)
    except KrullkitError as exc:
        print(f"error: {exc.identifier}: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        print(json.dumps(doc, indent=2) if args.json else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # flush at interpreter exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
