"""Command line golden transcripts: byte-exact text, JSON shapes, exit codes."""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krullkit.cli import build_parser, main
from krullkit.errors import KrullkitError
from krullkit.field import MAX_MODULUS
from krullkit.integral import IntegralityWitness, MonicGenerator
from krullkit.poly import MAX_VARIABLES, Polynomial

EXAMPLE = "t1^3 + 2*t1^2*t2 + 4*t2^3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_transcripts():
    """(argv, output) for each ``$ krullkit`` command in README's console blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = []
    for block in re.findall(r"^```console\n(.*?)^```$", text, re.S | re.M):
        first, *commands = re.split(r"^\$ krullkit ", block, flags=re.M)
        assert first == "", block
        for command in commands:
            line, _, output = command.partition("\n")
            found.append((shlex.split(line), output))
    return found


README_TRANSCRIPTS = readme_transcripts()


class TestReadmeTranscripts:
    """README's console transcripts, run as written."""

    def test_every_transcript_is_found(self):
        assert len(README_TRANSCRIPTS) == 6

    @pytest.mark.parametrize("argv, output", README_TRANSCRIPTS,
                             ids=[argv[0] for argv, _ in README_TRANSCRIPTS])
    def test_transcript(self, capsys, argv, output):
        _, out, err = run(capsys, *argv)
        assert out + err == output


class TestWorkedExampleTranscripts:
    def test_member_below_its_level(self, capsys):
        code, out, err = run(
            capsys, "member", "--vars", "2", "--field", "Q", "-k", "1", EXAMPLE
        )
        assert (code, out, err) == (0, "false\n", "")

    def test_member_at_its_level(self, capsys):
        code, out, err = run(
            capsys, "member", "--vars", "2", "--field", "Q", "-k", "2", EXAMPLE
        )
        assert (code, out, err) == (0, "true\n", "")

    def test_split(self, capsys):
        code, out, err = run(
            capsys, "split", "--vars", "2", "--field", "Q", "-k", "1", EXAMPLE
        )
        assert code == 0
        assert out == "dependent: t1^3 + 2*t1^2*t2\nfree: 4*t2^3\n"

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "--vars", "2", "--at", "2,2", EXAMPLE)
        assert (code, out) == (0, "56\n")

    def test_monicize_text(self, capsys):
        code, out, _ = run(capsys, "monicize", "--vars", "2", EXAMPLE)
        assert code == 0
        assert out == (
            "a: 1\n"
            "lambda: 7\n"
            "g: 1/7*t1^3 + 5/7*t1^2*t2 + t1*t2^2 + t2^3\n"
            "degree: 3\n"
        )

    def test_monicize_json(self, capsys):
        code, out, _ = run(capsys, "monicize", "--vars", "2", "--json", EXAMPLE)
        assert code == 0
        assert json.loads(out) == {
            "a": ["1"],
            "lambda": "7",
            "g": "1/7*t1^3 + 5/7*t1^2*t2 + t1*t2^2 + t2^3",
            "degree": 3,
        }

    def test_minpow(self, capsys):
        code, out, _ = run(
            capsys, "minpow", "--vars", "3", "-k", "2", "t1*t3 + t2^2*t3 + t2^3"
        )
        assert code == 0
        assert out == "power: 2\nlower: t1*t3\ncofactor: t2 + t3\n"

    def test_divide(self, capsys):
        code, out, _ = run(
            capsys, "divide", "--vars", "2", "t2^5 + t1*t2", "t2^2 - t1"
        )
        assert code == 0
        assert out == "quotient: t2^3 + t1*t2\nremainder: t1^2*t2 + t1*t2\n"

    def test_pmember(self, capsys):
        code, out, _ = run(
            capsys, "pmember", "--vars", "2", "t2^4 - 2*t1*t2^2 + t1^2", "t2^2 - t1"
        )
        assert (code, out) == (0, "true\n")

    def test_witness(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--vars", "2", "--json", "t1 + t2", "t2^2 - t1"
        )
        assert code == 0
        assert json.loads(out) == {
            "char_poly": ["t1^2 - t1", "-2*t1", "1"],
            "element": "t1 + t2",
            "check": "zero",
        }

    def test_witness_text(self, capsys):
        code, out, _ = run(capsys, "witness", "--vars", "2", "t1 + t2", "t2^2 - t1")
        assert code == 0
        assert out == "char_poly: t1^2 - t1, -2*t1, 1\nelement: t1 + t2\ncheck: zero\n"

    def test_witness_builds_the_generator_once(self, capsys, monkeypatch):
        # The char poly and its annihilation check read one MonicGenerator of g.
        built = 0
        init = MonicGenerator.__init__

        def counted(self, polynomial):
            nonlocal built
            built += 1
            init(self, polynomial)

        monkeypatch.setattr(MonicGenerator, "__init__", counted)
        code, out, _ = run(capsys, "witness", "--vars", "2", "t1 + 3*t2", "t2^2 - t1")
        assert (code, built) == (0, 1)
        assert out == "char_poly: t1^2 - 9*t1, -2*t1, 1\nelement: t1 + 3*t2\ncheck: zero\n"

    def test_contract_witness(self, capsys):
        code, out, _ = run(
            capsys, "contract-witness", "--vars", "2", "t2", "t2^2 - t1"
        )
        assert code == 0
        assert out == "constant: -t1\ncofactor: -t2\n"

    def test_power_reduce(self, capsys):
        code, out, _ = run(capsys, "power-reduce", "--relation=-1,0", "-i", "3")
        assert (code, out) == (0, "0,-1\n")

    def test_nonvanish(self, capsys):
        code, out, _ = run(capsys, "nonvanish", "--vars", "2", EXAMPLE)
        assert (code, out) == (0, "1,1\n")

    def test_nonvanish_homogeneous(self, capsys):
        code, out, _ = run(
            capsys, "nonvanish", "--vars", "2", "--homogeneous", "--json", EXAMPLE
        )
        assert code == 0
        assert json.loads(out) == {"point": ["1", "1"]}

    def test_degree(self, capsys):
        assert run(capsys, "degree", "--vars", "2", EXAMPLE)[:2] == (0, "3\n")
        assert run(capsys, "degree", "--vars", "2", "0")[:2] == (0, "undefined\n")
        assert run(capsys, "degree", "--vars", "2", "--in", "2", "t1^3 + t2")[:2] == (
            0,
            "1\n",
        )
        assert run(capsys, "degree", "--vars", "2", "--in", "t2", "t1^3 + t2")[:2] == (
            0,
            "1\n",
        )
        assert run(capsys, "degree", "--vars", "x,y", "--in", "y", "x^3 + y^2")[:2] == (
            0,
            "2\n",
        )

    def test_degree_bad_variable(self, capsys):
        for spec in ("t9", "3", "0"):
            code, _, err = run(capsys, "degree", "--vars", "2", "--in", spec, "t1")
            assert code == 2
            assert err.startswith("error: InvalidArgument:")

    def test_degree_json_null(self, capsys):
        code, out, _ = run(capsys, "degree", "--vars", "2", "--json", "0")
        assert code == 0
        assert json.loads(out) == {"degree": None}

    def test_homog(self, capsys):
        assert run(capsys, "homog", "--vars", "2", EXAMPLE)[:2] == (0, "true\n")
        assert run(capsys, "homog", "--vars", "2", "t1 + 1")[:2] == (0, "false\n")
        assert run(capsys, "homog", "--vars", "2", "--leading", "t1^2 + t2")[:2] == (
            0,
            "t1^2\n",
        )
        assert run(capsys, "homog", "--vars", "2", "-d", "1", "t1^2 + t2 + 1")[:2] == (
            0,
            "t2\n",
        )


class TestChainVerify:
    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "chain-verify", "--vars", "2", "--checks", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ring: Q[t1,t2]"
        assert lines[1] == "accepted: true"
        assert lines[2] == "proper: true"
        assert lines[3] == "zero ideal checks passed: 5"
        assert lines[4] == "level 1: witness t1 in_upper true in_lower false checks 5"
        assert lines[5] == "level 2: witness t2 in_upper true in_lower false checks 5"

    def test_json_shape_and_seed_determinism(self, capsys):
        args = ["chain-verify", "--vars", "3", "--checks", "8", "--seed", "5", "--json"]
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        doc = json.loads(out_a)
        assert doc["accepted"] is True
        assert doc["proper"] is True
        assert [entry["level"] for entry in doc["levels"]] == [1, 2, 3]
        assert set(doc["levels"][0]) == {
            "level",
            "witness",
            "in_upper",
            "in_lower",
            "product_checks_passed",
        }

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_each_witness_is_formatted_once(self, capsys, monkeypatch, mode):
        # The text lines are read off the JSON doc, so the n witnesses go
        # through str() once each, in either mode, and no failure line needs one.
        formatted = 0
        to_text = Polynomial.__str__

        def counted(self):
            nonlocal formatted
            formatted += 1
            return to_text(self)

        monkeypatch.setattr(Polynomial, "__str__", counted)
        code, out, _ = run(capsys, "chain-verify", "--vars", "5", "--checks", "3", *mode)
        assert (code, formatted) == (0, 5)
        witnesses = [f"t{k}" for k in range(1, 6)]
        if mode:
            assert [level["witness"] for level in json.loads(out)["levels"]] == witnesses
        else:
            assert [line.split()[3] for line in out.splitlines()[4:]] == witnesses

    def test_nonpositive_checks_rejected(self, capsys):
        code, out, err = run(capsys, "chain-verify", "--vars", "2", "--checks", "-5")
        assert (code, out) == (2, "")
        assert err.startswith("error: InvalidArgument:")

    def test_prime_field(self, capsys):
        code, out, _ = run(
            capsys, "chain-verify", "--vars", "2", "--field", "F5", "--checks", "5",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["ring"] == "F5[t1,t2]"


def _levels(n, checks):
    return [
        {"level": j, "witness": f"t{j}", "in_upper": True, "in_lower": False,
         "product_checks_passed": checks}
        for j in range(1, n + 1)
    ]


# (argv, document): every subcommand and mode under --json.
JSON_DOCUMENTS = [
    (("eval", "--vars", "2", "--at", "2,2", EXAMPLE), {"value": "56"}),
    (("degree", "--vars", "2", EXAMPLE), {"degree": 3}),
    (("degree", "--vars", "2", "--in", "2", "t1^3 + t2"), {"degree": 1}),
    (("degree", "--vars", "2", "0"), {"degree": None}),
    (("homog", "--vars", "2", "--leading", "t1^2 + t2"), {"leading_form": "t1^2"}),
    (("homog", "--vars", "2", "-d", "1", "t1^2 + t2 + 1"), {"component": "t2", "degree": 1}),
    (("homog", "--vars", "2", EXAMPLE), {"homogeneous": True}),
    (("homog", "--vars", "2", "t1 + 1"), {"homogeneous": False}),
    (("split", "--vars", "2", "-k", "1", EXAMPLE),
     {"dependent": "t1^3 + 2*t1^2*t2", "free": "4*t2^3"}),
    (("member", "--vars", "2", "-k", "1", EXAMPLE), {"member": False}),
    (("minpow", "--vars", "3", "-k", "2", "t1*t3 + t2^2*t3 + t2^3"),
     {"power": 2, "lower": "t1*t3", "cofactor": "t2 + t3"}),
    (("chain-verify", "--vars", "2", "--checks", "5"),
     {"ring": "Q[t1,t2]", "accepted": True, "proper": True, "zero_ideal_checks_passed": 5,
      "levels": _levels(2, 5), "failures": []}),
    (("chain-verify", "--vars", "2", "--field", "F5", "--checks", "3", "--seed", "7"),
     {"ring": "F5[t1,t2]", "accepted": True, "proper": True, "zero_ideal_checks_passed": 3,
      "levels": _levels(2, 3), "failures": []}),
    (("nonvanish", "--vars", "2", "t1^2 - t2^2"), {"point": ["1", "2"]}),
    (("nonvanish", "--vars", "2", "--homogeneous", "t1^2 - t2^2"), {"point": ["1/2", "1"]}),
    (("monicize", "--vars", "2", EXAMPLE),
     {"a": ["1"], "lambda": "7", "g": "1/7*t1^3 + 5/7*t1^2*t2 + t1*t2^2 + t2^3", "degree": 3}),
    (("monicize", "--vars", "3", "t1*t3 + t2*t3"),
     {"a": ["1", "1"], "lambda": "2", "g": "1/2*t1*t3 + 1/2*t2*t3 + t3^2", "degree": 2}),
    (("divide", "--vars", "2", "t2^5 + t1*t2", "t2^2 - t1"),
     {"quotient": "t2^3 + t1*t2", "remainder": "t1^2*t2 + t1*t2"}),
    (("pmember", "--vars", "2", "t2^4 - 2*t1*t2^2 + t1^2", "t2^2 - t1"), {"member": True}),
    (("witness", "--vars", "2", "t1 + t2", "t2^2 - t1"),
     {"char_poly": ["t1^2 - t1", "-2*t1", "1"], "element": "t1 + t2", "check": "zero"}),
    (("power-reduce", "--relation=-1,0", "-i", "3"), {"coordinates": ["0", "-1"]}),
    (("contract-witness", "--vars", "2", "t2", "t2^2 - t1"),
     {"constant": "-t1", "cofactor": "-t2"}),
]


class TestJsonDocuments:
    @pytest.mark.parametrize(
        "argv, doc", JSON_DOCUMENTS, ids=[" ".join(argv[:4]) for argv, _ in JSON_DOCUMENTS]
    )
    def test_document(self, capsys, argv, doc):
        # The whole printed document, so a changed key order or an extra key fails.
        assert run(capsys, *argv, "--json") == (0, json.dumps(doc, indent=2) + "\n", "")

    def test_every_subcommand_is_pinned(self):
        pinned = {argv[0] for argv, _ in JSON_DOCUMENTS}
        helped = {argv[0] for argv, *_ in ARGPARSE_TRANSCRIPTS if argv[1:] == ("--help",)}
        assert pinned == helped and len(pinned) == 14


class TestErrorsAndExitCodes:
    def test_readme_error_table_is_the_classes_table(self):
        # Every error class has a row in README's table, which says "exit 2"
        # exactly when the class's exit_code is 2.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Errors and exit codes", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
        classes, todo = [], [KrullkitError]
        while todo:
            subclasses = todo.pop().__subclasses__()
            classes += subclasses
            todo += subclasses
        for cls in classes:
            [row] = [r for r in rows if f"`{cls.identifier}`" in r[1]]
            assert ("exit 2" in row[2]) == (cls.exit_code == 2), cls.__name__

    def test_domain_error_exits_one(self, capsys):
        code, out, err = run(
            capsys, "nonvanish", "--vars", "2", "--field", "F2", "t1^2 + t1*t2"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: FieldTooSmall:")

    def test_zero_polynomial_error(self, capsys):
        code, _, err = run(capsys, "monicize", "--vars", "2", "0")
        assert code == 1
        assert err.startswith("error: ZeroPolynomial:")

    def test_not_monic_error(self, capsys):
        code, _, err = run(capsys, "divide", "--vars", "2", "t1", "2*t2^2")
        assert code == 1
        assert err.startswith("error: NotMonic:")

    def test_precondition_error(self, capsys):
        code, _, err = run(capsys, "minpow", "--vars", "2", "-k", "1", "t2 + 1")
        assert code == 1
        assert err.startswith("error: PreconditionViolated:")

    def test_zero_coset_error(self, capsys):
        code, _, err = run(
            capsys, "contract-witness", "--vars", "2", "t2^2 - t1", "t2^2 - t1"
        )
        assert code == 1
        assert err.startswith("error: ZeroCoset:")

    def test_degenerate_error(self, capsys):
        code, _, err = run(capsys, "contract-witness", "--vars", "2", "t2", "t2^2")
        assert code == 1
        assert err.startswith("error: DegenerateCharPoly:")

    def test_failed_self_check_exits_one(self, capsys, monkeypatch):
        # A witness that fails its own check is a domain error, not a traceback.
        monkeypatch.setattr(IntegralityWitness, "annihilates_modulo", lambda self, g: False)
        assert run(capsys, "witness", "--vars", "2", "t1 + t2", "t2^2 - t1") == (
            1, "", "error: SelfCheckFailed: integral dependence failed its annihilation check\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--vars", "1", "--at", "2", "t1^20000"],
         "a coefficient of more than 4300 digits cannot be printed"),
        (["power-reduce", "--relation=2", "-i", "20000"],
         "a coefficient of more than 4300 digits cannot be printed"),
        (["degree", "--vars", "1", "((t1^2147483647)^2147483647)^2147483647"],
         "a monomial's total degree is over 9223372036854775807"),
    ], ids=["eval", "power-reduce", "degree"])
    def test_size_limit_exits_one(self, capsys, argv, message):
        # A valid input whose answer is too large: the result is computed,
        # then refused with one typed line, not CPython's text as bad input.
        assert run(capsys, *argv) == (1, "", f"error: SizeLimit: {message}\n")
        assert run(capsys, *argv, "--json") == (1, "", f"error: SizeLimit: {message}\n")

    def test_parse_error_exits_two(self, capsys):
        code, out, err = run(capsys, "member", "--vars", "2", "-k", "1", "t1 +")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParseError:")
        assert "byte 4" in err

    def test_unknown_variable_exits_two(self, capsys):
        code, _, err = run(capsys, "member", "--vars", "2", "-k", "1", "t1 + t9")
        assert code == 2
        assert err.startswith("error: UnknownVariable:")

    def test_bad_field_exits_two(self, capsys):
        code, _, err = run(capsys, "degree", "--vars", "2", "--field", "F4", "t1")
        assert code == 2
        assert err.startswith("error: InvalidArgument:")

    def test_bad_vars_exits_two(self, capsys):
        code, _, err = run(capsys, "degree", "--vars", "t1,t1", "t1")
        assert code == 2

    def test_bad_scalar_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "--vars", "1", "--at", "x", "t1")
        assert code == 2
        assert err.startswith("error: InvalidArgument:")

    def test_oversized_modulus_names_the_cap(self, capsys):
        code, out, err = run(capsys, "degree", "--field", "F" + "7" * 5000, "t1")
        assert (code, out) == (2, "")
        assert err == f"error: InvalidArgument: modulus must be below {MAX_MODULUS}\n"

    @pytest.mark.parametrize(
        "argv, tail",
        [
            (("degree", "t1^" + "9" * 5000), "exponent of 5000 digits exceeds 2147483647 (byte 3)"),
            (("eval", "--vars", "1", "--at", "9" * 5000, "t1"), "bad scalar literal of 5000 characters"),
            (("degree", "t1 " + "9" * 5000),
             "unexpected token of 5000 characters after expression (byte 3), "
             "expected '+' or '-' or '*' or end of input"),
            (("degree", "x" * 5000), "unknown variable name of 5000 characters (byte 0)"),
        ],
    )
    def test_huge_token_error_line_stays_short(self, capsys, argv, tail):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(tail + "\n")
        assert len(err.encode()) < 200

    def test_short_token_errors_unchanged(self, capsys):
        _, _, err = run(capsys, "degree", "t1^9999999999")
        assert err == "error: ParseError: exponent 9999999999 exceeds 2147483647 (byte 3)\n"
        _, _, err = run(capsys, "eval", "--vars", "1", "--at", "1/0", "t1")
        assert err == "error: InvalidArgument: bad scalar literal '1/0'\n"

    def test_scalar_with_no_value_in_the_field(self, capsys):
        # Exit 2, as the same literal inside a polynomial is a ParseError.
        assert run(capsys, "eval", "--field", "F5", "--at", "1/5", "t1") == (
            2, "", "error: InvalidArgument: bad scalar literal '1/5'\n"
        )

    def test_non_ascii_digits(self, capsys):
        # '²' is a digit to str.isdigit() but not a number to int().
        assert run(capsys, "eval", "--vars", "²", "--at", "1", "t1") == (
            2, "", "error: InvalidArgument: invalid variable name '²'\n"
        )
        assert run(capsys, "degree", "--vars", "2", "--in", "²", "t1") == (
            2, "", "error: InvalidArgument: unknown variable '²'\n"
        )
        assert run(capsys, "degree", "--vars", "2", "--in", "3", "t1") == (
            2, "", "error: InvalidArgument: variable index must be in 1..2, got 3\n"
        )
        # str.isdecimal() once read "\u0663" as 3: --vars built Q[t1,t2,t3].
        assert run(capsys, "eval", "--vars", "\u0663", "--at", "1", "t1") == (
            2, "", "error: InvalidArgument: invalid variable name '\u0663'\n"
        )
        assert run(capsys, "degree", "--vars", "2", "--in", "\u0662", "t2") == (
            2, "", "error: InvalidArgument: unknown variable '\u0662'\n"
        )

    @pytest.mark.parametrize(
        "command,message",
        [
            ("split", "k must be in 0..3, got 9"),
            ("member", "level must be in 0..3, got 9"),
            ("minpow", "k must be in 1..3, got 9"),
        ],
    )
    def test_level_out_of_range(self, capsys, command, message):
        for extra in ([], ["--json"]):
            assert run(capsys, command, "--vars", "3", "-k", "9", *extra, "t1 + t2") == (
                2, "", f"error: InvalidArgument: {message}\n"
            )

    def test_long_refused_counts_are_named_by_length(self, capsys):
        # A refused count of more than 10 characters is not echoed whole.
        assert run(capsys, "split", "--vars", "2", "-k", "9" * 4300, "t1") == (
            2, "", "error: InvalidArgument: k must be in 0..2, got a value of 4300 characters\n"
        )
        assert run(capsys, "homog", "--vars", "2", "--degree", "-12345678901", "t1") == (
            2, "", "error: InvalidArgument: degree must be a nonnegative int,"
            " got a value of 12 characters\n"
        )
        assert run(capsys, "split", "--vars", "2", "-k", "-123456789", "t1") == (
            2, "", "error: InvalidArgument: k must be in 0..2, got -123456789\n"
        )

    @pytest.mark.parametrize("scalar", ["1.5", "1e3", "1_000", "+3", "\u0663", "1/-2", "inf"])
    def test_scalar_outside_the_rational_grammar(self, capsys, scalar):
        # --at takes the grammar's rational := "-"? int ("/" posint)?, nothing else.
        assert run(capsys, "eval", "--at", scalar, "t1") == (
            2, "", f"error: InvalidArgument: bad scalar literal {scalar!r}\n"
        )

    def test_rational_scalars(self, capsys):
        assert run(capsys, "eval", "--vars", "3", "--at", "-3/4, 007 ,2", "t1 + t2 + t3") == (
            0, "33/4\n", ""
        )

    def test_huge_variable_count_is_described_by_its_length(self, capsys):
        # The count is read by the integer reader, as every integer option is.
        assert run(capsys, "degree", "--vars", "9" * 5000, "t1") == (
            2, "", "error: InvalidArgument: invalid int value of 5000 characters\n"
        )
        assert run(capsys, "degree", "--vars", "9" * 11, "t1") == (
            2, "", f"error: InvalidArgument: variable count must be in 0..{MAX_VARIABLES},"
            " got a value of 11 characters\n"
        )

    def test_variable_count_limit(self, capsys):
        # 99999999 once ended in a MemoryError traceback from building the names.
        assert run(capsys, "degree", "--vars", "99999999", "t1") == (
            2, "", f"error: InvalidArgument: variable count must be in 0..{MAX_VARIABLES},"
            " got 99999999\n"
        )
        assert run(capsys, "degree", "--vars", str(MAX_VARIABLES), "t1 + t99999") == (0, "1\n", "")

    @pytest.mark.parametrize("argv,message", [
        (("--field", "x" * 3000, "t1"),
         "unrecognized field of 3000 characters, expected Q or F<p>"),
        (("--vars", "t1," + "x" * 3000 + "-", "t1"), "invalid variable name of 3001 characters"),
        (("--in", "x" * 3000 + "-", "t1"), "unknown variable name of 3001 characters"),
    ])
    def test_long_refused_texts_are_named_by_length(self, capsys, argv, message):
        assert run(capsys, "degree", *argv) == (2, "", f"error: InvalidArgument: {message}\n")

    def test_unknown_variable_line_is_short_in_a_wide_ring(self, capsys):
        # The line once named the whole ring: 16,944 bytes at 3000 variables.
        code, out, err = run(capsys, "degree", "--vars", "3000", "--in", "y", "t1")
        assert (code, out, err) == (2, "", "error: InvalidArgument: unknown variable 'y'\n")
        assert len(err.encode()) < 100

    def test_short_scalar_with_a_long_quoted_form_is_named_by_its_length(self, capsys):
        # Ten U+E0001 characters were once quoted whole, a 146-byte line.
        assert run(capsys, "eval", "--at", "\U000e0001" * 10, "t1") == (
            2, "", "error: InvalidArgument: bad scalar literal of 10 characters\n"
        )

    @pytest.mark.parametrize("bug", [ValueError, ZeroDivisionError])
    def test_a_bug_is_not_an_argument_error(self, monkeypatch, bug):
        # Only the typed errors are reported; any other exception escapes main.
        def total_degree(self):
            raise bug("bug in a handler")

        monkeypatch.setattr(Polynomial, "total_degree", total_degree)
        with pytest.raises(bug) as info:
            main(["degree", "t1"])
        assert type(info.value) is bug

    def test_too_many_checks_per_level(self, capsys):
        assert run(capsys, "chain-verify", "--checks", "-99999999999999999999") == (
            2, "", "error: InvalidArgument: checks per level must be in 1..10000,"
            " got a value of 21 characters\n"
        )

    def test_short_trailing_and_unknown_tokens_unchanged(self, capsys):
        # Tokens of up to 10 characters are still echoed whole.
        _, _, err = run(capsys, "degree", "t1 abcdefghij")
        assert err == (
            "error: ParseError: unexpected 'abcdefghij' after expression (byte 3), "
            "expected '+' or '-' or '*' or end of input\n"
        )
        _, _, err = run(capsys, "degree", "abcdefghij + abcdefghijk")
        assert err == "error: UnknownVariable: unknown variable 'abcdefghij' (byte 0)\n"
        _, _, err = run(capsys, "degree", "t1 + abcdefghijk")
        assert err == "error: UnknownVariable: unknown variable name of 11 characters (byte 5)\n"

    def test_field_literal_error_line(self, capsys):
        # FieldLiteralError is reported under the ParseError identifier.
        assert run(capsys, "degree", "--field", "F2", "1/2*t1") == (
            2, "", "error: ParseError: denominator 2 is not invertible in F2 (byte 2)\n"
        )

    LONG_NAME = "x" * 3001

    @pytest.mark.parametrize("argv, code, line, short_argv, short_line", [
        (("witness", "--vars", "2", "t1", "(t1+3)^200*t2^2+t1"), 1,
         "NotMonic: leading coefficient in t2 is a polynomial of 20047 characters, not 1",
         ("divide", "--vars", "2", "t1", "2*t2^2"),
         "NotMonic: leading coefficient in t2 is 2, not 1"),
        (("witness", "--vars", "2", "t1", "10^4299*10^4299*t1*t2^2 + t1"), 1,
         "NotMonic: leading coefficient in t2 is a polynomial of more than 4300 digits, not 1",
         ("witness", "--vars", "2", "t1", "(t1+1)*t2^2 + t1"),
         "NotMonic: leading coefficient in t2 is t1 + 1, not 1"),
        (("nonvanish", "--homogeneous", "--vars", "2", "(t1+t2)^200+1"), 1,
         "NotHomogeneous: a polynomial of 11747 characters is not homogeneous",
         ("nonvanish", "--homogeneous", "--vars", "2", "t1^2 + t2"),
         "NotHomogeneous: t1^2 + t2 is not homogeneous"),
        (("nonvanish", "--homogeneous", "--vars", "2", "10^4299*10^4299*t1^2 + t2"), 1,
         "NotHomogeneous: a polynomial of more than 4300 digits is not homogeneous",
         ("nonvanish", "--homogeneous", "--vars", "2", "9*t1^2 - 1"),
         "NotHomogeneous: 9*t1^2 - 1 is not homogeneous"),
        (("divide", "--vars", f"t1,{LONG_NAME}", "t1", "t1"), 1,
         "NotMonic: generator must have positive degree in a variable of 3001 characters",
         ("divide", "--vars", "2", "t1", "t1"),
         "NotMonic: generator must have positive degree in t2"),
        (("divide", "--vars", f"t1,{LONG_NAME}", "t1", f"2*{LONG_NAME}"), 1,
         "NotMonic: leading coefficient in a variable of 3001 characters is 2, not 1",
         ("divide", "--vars", "t1,abcdefghij", "t1", "2*abcdefghij"),
         "NotMonic: leading coefficient in abcdefghij is 2, not 1"),
        (("nonvanish", "--vars", f"t1,{LONG_NAME}", "--field", "F2", f"t1^2 + t1*{LONG_NAME}"),
         1, "FieldTooSmall: F2 has too few nonzero elements to fix variable name of"
         " 3001 characters (degree 1)",
         ("nonvanish", "--vars", "2", "--field", "F2", "t1^2 + t1*t2"),
         "FieldTooSmall: F2 has too few nonzero elements to fix variable t2 (degree 1)"),
        (("degree", "--field", "F5", "t1 + 1/" + "5" * 4000), 2,
         "ParseError: denominator of 4000 characters is not invertible in F5 (byte 7)",
         ("degree", "--field", "F5", "t1 + 1/" + "5" * 10),
         "ParseError: denominator 5555555555 is not invertible in F5 (byte 7)"),
    ], ids=["not-monic", "not-monic-unprintable", "not-homogeneous",
            "not-homogeneous-unprintable", "not-monic-degree-name", "not-monic-name",
            "field-too-small-name", "field-literal-denominator"])
    def test_long_values_in_domain_errors_are_named_by_their_length(
            self, capsys, argv, code, line, short_argv, short_line):
        # Each line once echoed the value whole (up to 20,101 bytes), or, for a
        # value CPython cannot print, said SizeLimit instead of its own identifier.
        got, out, err = run(capsys, *argv)
        assert (got, out, err) == (code, "", f"error: {line}\n")
        assert len(err.encode()) <= 200
        # A value of at most 10 characters is still written out.
        assert run(capsys, *short_argv) == (code, "", f"error: {short_line}\n")

    def test_usage_error_exits_two(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()
        assert main([]) == 2
        capsys.readouterr()
        assert main(["member", "--vars", "2", "t1"]) == 2  # missing -k
        capsys.readouterr()

    def test_deep_nesting_exits_two(self, capsys):
        text = "(" * 3000 + "t1" + ")" * 3000
        code, out, err = run(capsys, "degree", "--vars", "1", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: ParseError:")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_custom_variable_names(self, capsys):
        code, out, _ = run(
            capsys, "degree", "--vars", "x,y", "--field", "F5", "x^2*y"
        )
        assert (code, out) == (0, "3\n")

    @pytest.mark.parametrize("argv, code, line", [
        (("degree", "--vars", "0", "t1"), 2,
         "InvalidArgument: a ring needs at least one variable"),
        (("homog", "-d", "-1", "t1"), 2,
         "InvalidArgument: degree must be a nonnegative int, got -1"),
        (("monicize", "--vars", "2", "0"), 1,
         "ZeroPolynomial: the zero polynomial has no leading form"),
    ], ids=["vars-0", "homog-d-negative", "monicize-zero"])
    def test_each_argument_rule_has_one_message(self, capsys, argv, code, line):
        assert run(capsys, *argv) == (code, "", f"error: {line}\n")


# The grammar's integer literal, as the command line reads it: -?[0-9]+ with
# surrounding whitespace, at most 4300 digits.  Kept apart from krullkit.cli.
INT_LITERAL = re.compile(r"\s*(-?[0-9]{1,4300})\s*")


def run_in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestIntegerOptions:
    """Every integer on the command line is read by one rule, the one --at uses."""

    @given(token=st.one_of(
        st.text(),
        st.from_regex(r"\s*-?[0-9]{1,3}\s*", fullmatch=True),
        st.sampled_from(["+1", "1_0", "\u0661", " 1", "-0", "9" * 5000]),
    ))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_level_token(self, token):
        # --level=TOKEN, the long form of -k TOKEN, so that argparse never
        # takes a token that starts with "-" for an option.
        forms = [[f"--level={token}"]] + ([] if token.startswith("-") else [["-k", token]])
        for level in forms:
            code, out, err = run_in_process("split", "--vars", "2", *level, "t1")
            match = INT_LITERAL.fullmatch(token)
            if match and 0 <= int(match[1]) <= 2:
                assert (code, err) == (0, "")
                continue
            assert (code, out) == (2, "") and "Traceback" not in err
            if not match:
                [line] = [line for line in err.splitlines() if "error:" in line]
                assert line.startswith("krullkit split: error: argument -k/--level: invalid int")
                assert len(line) <= 120

    @pytest.mark.parametrize("token", ["+1", "1_0", "\u0661"])
    @pytest.mark.parametrize("argv, option", [
        (("homog", "-d", "{}", "t1"), "-d/--degree"),
        (("member", "-k", "{}", "t1"), "-k/--level"),
        (("minpow", "-k", "{}", "t1"), "-k/--level"),
        (("chain-verify", "--checks", "{}"), "--checks"),
        (("power-reduce", "--relation=2", "-i", "{}"), "-i/--power"),
        (("degree", "--seed", "{}", "t1"), "--seed"),
    ])
    def test_every_integer_option_refuses_what_is_not_an_int_literal(self, argv, option, token):
        code, out, err = run_in_process(*[arg.format(token) for arg in argv])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid int value: {token!r}\n")

    def test_long_token_is_named_by_its_length(self):
        code, _, err = run_in_process("split", "--vars", "2", "-k", "1" * 10 + "x", "t1")
        assert code == 2
        assert err.endswith("error: argument -k/--level: invalid int value of 11 characters\n")
        # A short token whose quoted form is long is named by its length too.
        code, _, err = run_in_process("split", "--vars", "2", "-k", "\U000e0001" * 2, "t1")
        assert err.endswith("error: argument -k/--level: invalid int value of 2 characters\n")

    def test_variable_index_of_5000_digits(self, capsys):
        # Once CPython's "Exceeds the limit (4300 digits) ... set_int_max_str_digits()".
        assert run(capsys, "degree", "--vars", "2", "--in", "9" * 5000, "t1") == (
            2, "", "error: InvalidArgument: invalid int value of 5000 characters\n"
        )

    def test_negative_seed_is_accepted_and_a_plus_sign_is_not(self, capsys):
        code, out, _ = run(capsys, "chain-verify", "--vars", "2", "--checks", "3", "--seed", "-5")
        assert code == 0 and out.startswith("ring: Q[t1,t2]\naccepted: true\n")
        code, _, err = run(capsys, "chain-verify", "--vars", "2", "--seed", "+5")
        assert code == 2 and err.endswith("error: argument --seed: invalid int value: '+5'\n")

    def test_signs_and_whitespace(self, capsys):
        assert run(capsys, "split", "--vars", "2", "-k", " 1 ", "t1") == (
            0, "dependent: t1\nfree: 0\n", ""
        )
        assert run(capsys, "degree", "--vars", "2", "--in", " 2 ", "t2^3") == (0, "3\n", "")
        assert run(capsys, "degree", "--vars", "-1", "t1") == (
            2, "", "error: InvalidArgument: variable count must be a nonnegative int, got -1\n"
        )


# argparse's own text: ``--help`` pages, usage lines and exit-2 errors, as
# CPython 3.11 lays them out at 80 columns.  (argv, exit code, stream, text);
# the other stream stays empty.
ARGPARSE_TRANSCRIPTS = [
    (('--help',), 0, 'out', """\
usage: krullkit [-h]
                {eval,degree,homog,split,member,minpow,chain-verify,nonvanish,monicize,divide,pmember,witness,power-reduce,contract-witness}
                ...

Exact polynomial-ring toolkit: chains, monicization, integral extensions

positional arguments:
  {eval,degree,homog,split,member,minpow,chain-verify,nonvanish,monicize,divide,pmember,witness,power-reduce,contract-witness}
    eval                evaluate a polynomial at a point
    degree              total degree, or degree in one variable
    homog               homogeneity test, component, or leading form
    split               split into dependent and free parts
    member              membership in the level-k variable ideal
    minpow              extract the minimal power of t_k
    chain-verify        verify the full ideal chain
    nonvanish           find a non-vanishing point
    monicize            make monic in the last variable
    divide              divide by a monic-in-t_n generator
    pmember             membership in a monic principal ideal
    witness             integral dependence of a coset
    power-reduce        reduce a power to basis coordinates
    contract-witness    nonzero last-variable-free constant in the contracted
                        ideal

options:
  -h, --help            show this help message and exit
"""),
    (('eval', '--help'), 0, 'out', """\
usage: krullkit eval [-h] [--vars VARS] [--field FIELD] [--json] [--seed SEED]
                     --at AT
                     poly

positional arguments:
  poly

options:
  -h, --help     show this help message and exit
  --vars VARS    variable count (default names t1..tn) or comma-separated
                 names
  --field FIELD  coefficient field, Q or F<p>
  --json         print one JSON document instead of text
  --seed SEED    seed for randomized checks
  --at AT        comma-separated coordinates
"""),
    (('degree', '--help'), 0, 'out', """\
usage: krullkit degree [-h] [--vars VARS] [--field FIELD] [--json]
                       [--seed SEED] [--in VAR]
                       poly

positional arguments:
  poly

options:
  -h, --help     show this help message and exit
  --vars VARS    variable count (default names t1..tn) or comma-separated
                 names
  --field FIELD  coefficient field, Q or F<p>
  --json         print one JSON document instead of text
  --seed SEED    seed for randomized checks
  --in VAR       variable name or 1-based index
"""),
    (('homog', '--help'), 0, 'out', """\
usage: krullkit homog [-h] [--vars VARS] [--field FIELD] [--json]
                      [--seed SEED] [-d DEGREE] [--leading]
                      poly

positional arguments:
  poly

options:
  -h, --help            show this help message and exit
  --vars VARS           variable count (default names t1..tn) or comma-
                        separated names
  --field FIELD         coefficient field, Q or F<p>
  --json                print one JSON document instead of text
  --seed SEED           seed for randomized checks
  -d DEGREE, --degree DEGREE
                        extract this degree's component
  --leading             extract the leading form
"""),
    (('split', '--help'), 0, 'out', """\
usage: krullkit split [-h] [--vars VARS] [--field FIELD] [--json]
                      [--seed SEED] -k LEVEL
                      poly

positional arguments:
  poly

options:
  -h, --help            show this help message and exit
  --vars VARS           variable count (default names t1..tn) or comma-
                        separated names
  --field FIELD         coefficient field, Q or F<p>
  --json                print one JSON document instead of text
  --seed SEED           seed for randomized checks
  -k LEVEL, --level LEVEL
"""),
    (('member', '--help'), 0, 'out', """\
usage: krullkit member [-h] [--vars VARS] [--field FIELD] [--json]
                       [--seed SEED] -k LEVEL
                       poly

positional arguments:
  poly

options:
  -h, --help            show this help message and exit
  --vars VARS           variable count (default names t1..tn) or comma-
                        separated names
  --field FIELD         coefficient field, Q or F<p>
  --json                print one JSON document instead of text
  --seed SEED           seed for randomized checks
  -k LEVEL, --level LEVEL
"""),
    (('minpow', '--help'), 0, 'out', """\
usage: krullkit minpow [-h] [--vars VARS] [--field FIELD] [--json]
                       [--seed SEED] -k LEVEL
                       poly

positional arguments:
  poly

options:
  -h, --help            show this help message and exit
  --vars VARS           variable count (default names t1..tn) or comma-
                        separated names
  --field FIELD         coefficient field, Q or F<p>
  --json                print one JSON document instead of text
  --seed SEED           seed for randomized checks
  -k LEVEL, --level LEVEL
"""),
    (('chain-verify', '--help'), 0, 'out', """\
usage: krullkit chain-verify [-h] [--vars VARS] [--field FIELD] [--json]
                             [--seed SEED] [--checks CHECKS]

options:
  -h, --help       show this help message and exit
  --vars VARS      variable count (default names t1..tn) or comma-separated
                   names
  --field FIELD    coefficient field, Q or F<p>
  --json           print one JSON document instead of text
  --seed SEED      seed for randomized checks
  --checks CHECKS  product checks per level
"""),
    (('nonvanish', '--help'), 0, 'out', """\
usage: krullkit nonvanish [-h] [--vars VARS] [--field FIELD] [--json]
                          [--seed SEED] [--homogeneous]
                          poly

positional arguments:
  poly

options:
  -h, --help     show this help message and exit
  --vars VARS    variable count (default names t1..tn) or comma-separated
                 names
  --field FIELD  coefficient field, Q or F<p>
  --json         print one JSON document instead of text
  --seed SEED    seed for randomized checks
  --homogeneous  normalize the last coordinate to 1 (input must be a form)
"""),
    (('monicize', '--help'), 0, 'out', """\
usage: krullkit monicize [-h] [--vars VARS] [--field FIELD] [--json]
                         [--seed SEED]
                         poly

positional arguments:
  poly

options:
  -h, --help     show this help message and exit
  --vars VARS    variable count (default names t1..tn) or comma-separated
                 names
  --field FIELD  coefficient field, Q or F<p>
  --json         print one JSON document instead of text
  --seed SEED    seed for randomized checks
"""),
    (('divide', '--help'), 0, 'out', """\
usage: krullkit divide [-h] [--vars VARS] [--field FIELD] [--json]
                       [--seed SEED]
                       poly generator

positional arguments:
  poly
  generator

options:
  -h, --help     show this help message and exit
  --vars VARS    variable count (default names t1..tn) or comma-separated
                 names
  --field FIELD  coefficient field, Q or F<p>
  --json         print one JSON document instead of text
  --seed SEED    seed for randomized checks
"""),
    (('pmember', '--help'), 0, 'out', """\
usage: krullkit pmember [-h] [--vars VARS] [--field FIELD] [--json]
                        [--seed SEED]
                        poly generator

positional arguments:
  poly
  generator

options:
  -h, --help     show this help message and exit
  --vars VARS    variable count (default names t1..tn) or comma-separated
                 names
  --field FIELD  coefficient field, Q or F<p>
  --json         print one JSON document instead of text
  --seed SEED    seed for randomized checks
"""),
    (('witness', '--help'), 0, 'out', """\
usage: krullkit witness [-h] [--vars VARS] [--field FIELD] [--json]
                        [--seed SEED]
                        poly generator

positional arguments:
  poly
  generator

options:
  -h, --help     show this help message and exit
  --vars VARS    variable count (default names t1..tn) or comma-separated
                 names
  --field FIELD  coefficient field, Q or F<p>
  --json         print one JSON document instead of text
  --seed SEED    seed for randomized checks
"""),
    (('power-reduce', '--help'), 0, 'out', """\
usage: krullkit power-reduce [-h] [--vars VARS] [--field FIELD] [--json]
                             [--seed SEED] --relation RELATION -i POWER

options:
  -h, --help            show this help message and exit
  --vars VARS           variable count (default names t1..tn) or comma-
                        separated names
  --field FIELD         coefficient field, Q or F<p>
  --json                print one JSON document instead of text
  --seed SEED           seed for randomized checks
  --relation RELATION   comma-separated coordinates of a^d in the basis
                        1..a^(d-1)
  -i POWER, --power POWER
"""),
    (('contract-witness', '--help'), 0, 'out', """\
usage: krullkit contract-witness [-h] [--vars VARS] [--field FIELD] [--json]
                                 [--seed SEED]
                                 poly generator

positional arguments:
  poly
  generator

options:
  -h, --help     show this help message and exit
  --vars VARS    variable count (default names t1..tn) or comma-separated
                 names
  --field FIELD  coefficient field, Q or F<p>
  --json         print one JSON document instead of text
  --seed SEED    seed for randomized checks
"""),
    ((), 2, 'err', """\
usage: krullkit [-h]
                {eval,degree,homog,split,member,minpow,chain-verify,nonvanish,monicize,divide,pmember,witness,power-reduce,contract-witness}
                ...
krullkit: error: the following arguments are required: command
"""),
    (('bogus',), 2, 'err', """\
usage: krullkit [-h]
                {eval,degree,homog,split,member,minpow,chain-verify,nonvanish,monicize,divide,pmember,witness,power-reduce,contract-witness}
                ...
krullkit: error: argument command: invalid choice: 'bogus' (choose from 'eval', 'degree', 'homog', 'split', 'member', 'minpow', 'chain-verify', 'nonvanish', 'monicize', 'divide', 'pmember', 'witness', 'power-reduce', 'contract-witness')
"""),
    (('member', '--vars', '2', 't1'), 2, 'err', """\
usage: krullkit member [-h] [--vars VARS] [--field FIELD] [--json]
                       [--seed SEED] -k LEVEL
                       poly
krullkit member: error: the following arguments are required: -k/--level
"""),
    (('member', '-k', 'x', 't1'), 2, 'err', """\
usage: krullkit member [-h] [--vars VARS] [--field FIELD] [--json]
                       [--seed SEED] -k LEVEL
                       poly
krullkit member: error: argument -k/--level: invalid int value: 'x'
"""),
    (('chain-verify', '--checks', 'y'), 2, 'err', """\
usage: krullkit chain-verify [-h] [--vars VARS] [--field FIELD] [--json]
                             [--seed SEED] [--checks CHECKS]
krullkit chain-verify: error: argument --checks: invalid int value: 'y'
"""),
]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse's layout differs between CPython versions"
)
class TestArgparseText:
    @pytest.mark.parametrize(
        "argv, code, stream, text", ARGPARSE_TRANSCRIPTS,
        ids=[" ".join(case[0]) or "no-arguments" for case in ARGPARSE_TRANSCRIPTS],
    )
    def test_transcript(self, capsys, monkeypatch, argv, code, stream, text):
        monkeypatch.setenv("COLUMNS", "80")
        expected = (code, text, "") if stream == "out" else (code, "", text)
        assert run(capsys, *argv) == expected


class TestEntryPoints:
    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def env(self, **overrides):
        # The caller's PYTHONINTMAXSTRDIGITS would change the expected lines;
        # a test that wants a lower digit limit sets it.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [self.SRC, *filter(None, [env.get("PYTHONPATH")])]
        )
        return {**env, **overrides}

    def python(self, *args, timeout=60, **env):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=self.env(**env),
            timeout=timeout,
        )

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        # Each call in this sequence answers as it does in a process of its own.
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ("homog", "--vars", "2", "--leading", "t1^2 + t2"),
            ("homog", "--vars", "2", "-d", "2", "t1^2 + t2"),
            ("homog", "--vars", "2", "t1^2 + t2"),
            ("degree", "--vars", "2", "--in", "2", "t1^3 + t2"),
            ("degree", "--vars", "2", "t1^3 + t2"),
            ("member", "--vars", "2", "-k", "2", "--json", EXAMPLE),
            ("member", "--vars", "2", "-k", "2", EXAMPLE),
            ("member", "--vars", "2", "t1"),
            ("nonvanish", "--vars", "2", "--field", "F2", "t1^2 + t1*t2"),
            ("member", "--vars", "2", "-k", "1", EXAMPLE),
        ]
        in_sequence = [run(capsys, *argv) for argv in calls]
        alone = []
        for argv in calls:
            proc = self.python("-m", "krullkit", *argv)
            alone.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_sequence == alone

    def test_library_import_skips_cli_modules(self):
        proc = self.python(
            "-c",
            "import sys, krullkit; "
            "print(sorted({'argparse', 'json', 'krullkit.cli'} & set(sys.modules)))",
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_main_stays_importable(self):
        import krullkit

        assert krullkit.main is main
        with pytest.raises(AttributeError):
            krullkit.no_such_name

    @pytest.mark.parametrize("module", ["krullkit", "krullkit.cli"])
    def test_run_as_module(self, module):
        proc = self.python("-m", module, "eval", "--vars", "2", "--at", "2,2", EXAMPLE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "56\n", "")

    def test_huge_prime_modulus_rejected(self):
        # The timeout only guards against a hang; it is not a timing gate.
        proc = self.python(
            "-m", "krullkit", "degree", "--field", f"F{2**127 - 1}", "t1"
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: InvalidArgument: modulus must be below")

    def test_closed_pipe_exits_one_without_traceback(self):
        # About 175 KB of JSON, well past a pipe buffer, so the write fails.
        proc = subprocess.Popen(
            [sys.executable, "-m", "krullkit", "chain-verify", "--vars", "1200",
             "--checks", "1", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    def test_package_imports_only_stdlib(self):
        # The package stays stdlib-only: every import is relative or stdlib.
        for path in sorted(Path(self.SRC, "krullkit").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] in sys.stdlib_module_names, (path, name)

    def test_every_import_is_used(self):
        # Exempt: from __future__, and the names __init__ re-exports in __all__.
        for path in sorted(Path(self.SRC, "krullkit").glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            imported, used = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(a.asname or a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported.update(a.asname or a.name for a in node.names)
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif (
                    isinstance(node, ast.Assign)
                    and path.name == "__init__.py"
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
                ):
                    used.update(ast.literal_eval(node.value))
            assert imported <= used, (path.name, sorted(imported - used))

    def test_only_poly_reads_the_term_format(self):
        # The numerators and their denominator are poly.py's private format;
        # other modules use its API.
        for path in sorted(Path(self.SRC, "krullkit").glob("*.py")):
            if path.name == "poly.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute):
                    assert node.attr not in ("terms", "_keys", "_den", "_make"), (
                        path.name, node.lineno)

    def test_only_field_knows_the_field_kind(self):
        # Which field a scalar lives in is field.py's decision; other modules
        # ask FieldSpec.modulus.  __init__.py only re-exports the name.
        for path in sorted(Path(self.SRC, "krullkit").glob("*.py")):
            if path.name in ("field.py", "__init__.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                names = (getattr(node, key, None) for key in ("id", "attr", "name"))
                assert "FieldKind" not in names, (path.name, getattr(node, "lineno", None))

    def test_scalar_with_a_huge_exponent_is_refused(self):
        # Fraction() would expand 1e100000000; the timeout only guards against a hang.
        proc = self.python("-m", "krullkit", "eval", "--at", "1e100000000", "t1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: InvalidArgument: bad scalar literal of 11 characters\n"
        )

    def test_checks_over_the_limit_are_refused(self):
        # 10^8 checks per level once ran past a 10 s timeout; this one only guards against a hang.
        proc = self.python("-m", "krullkit", "chain-verify", "--vars", "3", "--checks", "100000000")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: InvalidArgument: checks per level must be in 1..10000, got 100000000\n"
        )

    def test_no_bug_is_reported_as_an_argument(self):
        # Validation raises the typed ArgumentError, never a bare ValueError, and
        # main reports only typed errors, so a bug stays a visible traceback.
        for path in sorted(Path(self.SRC, "krullkit").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    assert getattr(exc, "id", None) != "ValueError", (path.name, node.lineno)
        # _parse_scalar alone turns Fraction's and the field's refusals into ArgumentError.
        tree = ast.parse(Path(self.SRC, "krullkit", "cli.py").read_text())
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            handled = {
                name.id
                for handler in ast.walk(fn) if isinstance(handler, ast.ExceptHandler)
                for name in ast.walk(handler.type) if isinstance(name, ast.Name)
            }
            if fn.name == "main":
                assert handled == {"SystemExit", "KrullkitError", "BrokenPipeError"}
            elif fn.name != "_parse_scalar":
                assert not handled & {"ValueError", "ZeroDivisionError"}, fn.name

    def test_one_key_builder(self):
        # Exponents become a packed key only in _Codec.key, which raises the
        # degree limit; RingSpec.dot raises it for keys that are sums.  No bytes
        # are packed.
        tree = ast.parse(Path(self.SRC, "krullkit", "poly.py").read_text())
        raisers = []
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                for call in ast.walk(fn):
                    if not isinstance(call, ast.Call):
                        continue
                    assert getattr(call.func, "attr", None) != "pack", call.lineno
                    if getattr(call.func, "id", None) == "_over_the_degree_limit":
                        raisers.append(fn.name if fn is node else f"{node.name}.{fn.name}")
        assert sorted(raisers) == ["RingSpec.dot", "_Codec.key"]

    def test_one_stored_form_builder(self):
        # Outside Polynomial.__init__, only poly._reduced builds a polynomial
        # from numerators (through _new, object.__new__), and only poly.py uses it.
        tree = ast.parse(Path(self.SRC, "krullkit", "poly.py").read_text())
        builders = []
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                for call in ast.walk(fn):
                    if not isinstance(call, ast.Call):
                        continue
                    assert getattr(call.func, "attr", None) != "__new__", call.lineno
                    if getattr(call.func, "id", None) == "_new":
                        builders.append(fn.name if fn is node else f"{node.name}.{fn.name}")
        assert builders == ["_reduced"]
        for path in sorted(Path(self.SRC, "krullkit").glob("*.py")):
            if path.name == "poly.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
                assert "_reduced" not in [*names, getattr(node, "attr", None)], path.name

    @pytest.mark.parametrize("text", ["10^4300", "3^2147483647", "(2/3)^2147483647"])
    def test_literal_powers_past_the_digit_limit_are_refused(self, text):
        # 3^2147483647 once ran for minutes; the timeout only guards against a hang.
        proc = self.python("-m", "krullkit", "degree", "--vars", "1", f"{text}*t1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", "error: SizeLimit: a literal power of more than 4300 digits\n"
        )

    @pytest.mark.parametrize("field, text, value", [
        ("Q", "10^4299", "1" + "0" * 4299),
        ("F32003", "3^2147483647", str(pow(3, 2147483647, 32003))),
    ])
    def test_literal_powers_within_the_limit_parse(self, field, text, value):
        # The timeout only guards against a hang; it is not a timing gate.
        proc = self.python("-m", "krullkit", "eval", "--field", field, "--vars", "1",
                           "--at", "1", f"{text}*t1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, value + "\n", "")

    @pytest.mark.parametrize("argv, line", [
        (("degree", "t1 + " + "7" * 1000),
         "error: ParseError: number longer than 640 digits (byte 5)"),
        (("degree", "--vars", "9" * 1000, "t1"),
         "error: InvalidArgument: invalid int value of 1000 characters"),
        (("split", "--vars", "2", "-k", "9" * 1000, "t1"),
         "krullkit split: error: argument -k/--level: invalid int value of 1000 characters"),
    ], ids=["literal", "vars", "k"])
    def test_a_lower_digit_limit_ends_in_the_typed_error(self, argv, line):
        # Each once ended in a traceback, or in argparse's "invalid _int value"
        # with all 1000 digits.
        proc = self.python("-m", "krullkit", *argv, PYTHONINTMAXSTRDIGITS="640")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines()[-1] == line
        assert "Traceback" not in proc.stderr and len(line.encode()) <= 200

    @pytest.mark.parametrize("limit", ["0", "10000"])
    @pytest.mark.parametrize("argv, code, out, err", [
        (("--at", "7" * 4301, "t1"), 2, "",
         "error: InvalidArgument: bad scalar literal of 4301 characters\n"),
        (("--at", "1/" + "7" * 4301, "t1"), 2, "",
         "error: InvalidArgument: bad scalar literal of 4303 characters\n"),
        (("--at", "7" * 4300, "t1"), 0, "7" * 4300 + "\n", ""),
        (("--at", "2", "t1^20000"), 1, "",
         "error: SizeLimit: a coefficient of more than 4300 digits cannot be printed\n"),
        (("--at", "2", "t1^6000000"), 1, "",
         "error: SizeLimit: a coefficient of more than 4300 digits cannot be printed\n"),
    ], ids=["at-4301", "at-denominator-4301", "at-4300", "print-6021", "print-1806180"])
    def test_a_higher_or_no_digit_limit_changes_no_answer(self, argv, code, out, err, limit):
        # Under a raised or disabled interpreter limit, --at once took any length and
        # printing had no limit: t1^6000000 at 2 printed 1.8 MB in about 52 s.  The
        # timeout only guards against a hang.
        proc = self.python("-m", "krullkit", "eval", *argv, PYTHONINTMAXSTRDIGITS=limit)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("limit", [None, "0"], ids=["default", "no-limit"])
    def test_library_errors_name_a_long_int_by_the_digit_rule(self, limit):
        # With the interpreter's limit off, an int or an int in a vector was
        # once printed first and named by its length: "a value of 5002 characters".
        code = (
            "from krullkit.field import FieldSpec\n"
            "from krullkit.poly import Polynomial, RingSpec\n"
            "q1 = RingSpec.default(FieldSpec.rationals(), 1)\n"
            "for call in (lambda: FieldSpec(-10**5000), lambda: Polynomial(q1, {(10**5000, 1): 1})):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as error:\n"
            "        print(error)\n"
        )
        proc = self.python("-c", code, **({} if limit is None else {"PYTHONINTMAXSTRDIGITS": limit}))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "modulus must be a prime, got a value of more than 4300 digits",
            "bad exponent vector of more than 4300 digits for Q[t1]",
        ]

    @pytest.mark.parametrize("limit", [None, "0"], ids=["default", "no-limit"])
    def test_library_errors_name_a_long_fraction_by_the_digit_rule(self, limit):
        # With the interpreter's limit off, such a Fraction was once printed
        # first and named by its length: "a value of 5003 characters".
        code = (
            "from fractions import Fraction\n"
            "from krullkit.chains import verify_chain\n"
            "from krullkit.field import FieldSpec\n"
            "from krullkit.poly import RingSpec\n"
            "q2 = RingSpec.default(FieldSpec.rationals(), 2)\n"
            "for value in (Fraction(10**5000, 3), Fraction(3, 10**5000), Fraction(3, 7)):\n"
            "    try:\n"
            "        verify_chain(q2, checks_per_level=value)\n"
            "    except ValueError as error:\n"
            "        print(error)\n"
        )
        proc = self.python("-c", code, **({} if limit is None else {"PYTHONINTMAXSTRDIGITS": limit}))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "checks per level must be in 1..10000, got a value of more than 4300 digits",
            "checks per level must be in 1..10000, got a value of more than 4300 digits",
            "checks per level must be in 1..10000, got 3/7",
        ]

    def test_one_reader_of_the_digit_limit(self):
        # errors.digit_limit alone reads the interpreter's limit, and 4300 is
        # written in code only as errors.MAX_LITERAL_DIGITS.
        def mentions(root):
            return sum("get_int_max_str_digits" in (getattr(node, "attr", None),
                                                    getattr(node, "value", None))
                       for node in ast.walk(root))

        readers, fours = [], []
        for path in sorted(Path(self.SRC, "krullkit").glob("*.py")):
            source = path.read_text()
            tree = ast.parse(source, str(path))
            if total := mentions(tree):
                readers += [(path.name, fn.name) for fn in ast.walk(tree)
                            if isinstance(fn, ast.FunctionDef) and mentions(fn) == total]
            fours += [(path.name, source.splitlines()[node.lineno - 1])
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and type(node.value) is int
                      and node.value == 4300]
        assert readers == [("errors.py", "digit_limit")]
        assert fours == [("errors.py", "MAX_LITERAL_DIGITS = 4300  # CPython's default"
                                       " int/str limit, and the most krullkit allows")]

    def test_undecodable_argv_bytes(self):
        # argv bytes that are not UTF-8 arrive as surrogate escapes.
        proc = self.python("-m", "krullkit", "degree", b"t1 + \xff")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: ParseError: unexpected character 0xff (byte 5)\n"

    def test_monicize_at_the_exponent_cap_finishes(self):
        # The timeout only guards against a hang; it is not a timing gate.
        proc = self.python(
            "-m", "krullkit", "monicize", "--vars", "2", "t1 + t2^2147483647"
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            "a: 1\nlambda: 1\ng: t2^2147483647 + t1 + t2\ndegree: 2147483647\n"
        )

    @pytest.mark.parametrize("n", [990, 100_000])
    @pytest.mark.parametrize("argv, text", [
        (("nonvanish",), "t1*t2 + t3"),
        (("nonvanish", "--homogeneous"), "t1*t2 + t3^2"),
        (("monicize",), "t1*t2 + t3"),
    ], ids=["nonvanish", "homogeneous", "monicize"])
    def test_point_search_answers_in_wide_rings(self, argv, text, n):
        # Each once ended in a RecursionError traceback from about 990 variables
        # on; the timeout only guards against a hang.
        proc = self.python("-m", "krullkit", *argv, "--vars", str(n), text)
        if argv == ("monicize",):
            t = f"t{n}"
            expected = (f"a: {','.join(['1'] * (n - 1))}\nlambda: 1\n"
                        f"g: t1*t2 + t1*{t} + t2*{t} + {t}^2 + t3 + {t}\ndegree: 2\n")
        else:
            expected = ",".join(["1"] * n) + "\n"
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected

    @pytest.mark.parametrize("argv, expected", [
        (("witness", "--vars", "1", "t1", "t1^200"),
         "char_poly: " + "0, " * 200 + "1\nelement: t1\ncheck: zero\n"),
        (("contract-witness", "--vars", "1", "t1+1", "t1^200-2"),
         "constant: -1\ncofactor: -t1^199"
         + "".join(f" {'-' if k % 2 else '+'} t1^{k}" for k in range(198, 1, -1))
         + " - t1 + 1\n"),
    ], ids=["witness", "contract-witness"])
    def test_generators_of_degree_200_answer(self, argv, expected):
        # Berkowitz once zipped whole rows and columns of these nearly zero
        # matrices, about d^4/4 steps, and each ran past 30 s.  The 20 s
        # timeout only guards against a hang; it is not a timing gate.
        proc = self.python("-m", "krullkit", *argv, timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")

    def test_no_function_calls_itself(self):
        # A function that recursed once per variable ended in RecursionError
        # at about 990 variables, below MAX_VARIABLES.  The parser's mutual
        # descent is capped by MAX_DEPTH and is not direct.
        for path in sorted(Path(self.SRC, "krullkit").glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for call in ast.walk(fn):
                    if not isinstance(call, ast.Call):
                        continue
                    callee = call.func
                    direct = isinstance(callee, ast.Name) and callee.id == fn.name
                    method = (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                              and getattr(callee.value, "id", None) in ("self", "cls"))
                    assert not (direct or method), (path.name, fn.name, call.lineno)

    @pytest.mark.parametrize("power,coords", [(100_000_000, "1,0\n"), (100_000_001, "0,1\n")])
    def test_huge_power_reduce_finishes(self, power, coords):
        # The timeout only guards against a hang; it is not a timing gate.
        proc = self.python(
            "-m", "krullkit", "power-reduce", "--relation=-1,0", "-i", str(power)
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, coords, "")
