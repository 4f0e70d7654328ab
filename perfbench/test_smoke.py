"""Smoke test of the benchmark: smallest sizes, one round per workload.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in ``BENCHMARK.json`` is printed, in both
modes, and that the correctness gate fails answers that were deliberately
corrupted, so the gate cannot rot.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import krullkit as kk  # noqa: E402
import krullkit.cli  # noqa: E402,F401

import certify  # noqa: E402
import jobs  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "expand", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _first(workload, kind, **expect):
    for job in jobs.make_round(workload, 7, 0, smoke=True):
        if job.kind == kind and all(job.expect.get(k) == v for k, v in expect.items()):
            return job
    raise LookupError(kind)


def _shift(p):
    return p + p.ring.one()


def _corrupt(kind, value):
    """The answer with one deliberate error in it."""
    if kind == "product":
        a, b, c = value
        return a, b, _shift(c)
    if kind == "power":
        return (_shift(value[0]),)
    if kind == "monicize":
        f, res = value
        return f, dataclasses.replace(res, monic=_shift(res.monic))
    if kind == "divide":
        f, g, q, r = value
        return f, g, q, _shift(r)
    if kind == "pmember":
        return not value
    if kind == "witness":
        f, g, w = value
        coeffs = (_shift(w.coefficients[0]),) + tuple(w.coefficients[1:])
        return f, g, dataclasses.replace(w, coefficients=coeffs)
    if kind == "contract":
        f, g, c, w = value
        return f, g, _shift(c), w
    if kind == "power_reduce":
        coeffs, red = value
        return coeffs, kk.ReductionCoefficients((_shift(red.coefficients[0]),) + red.coefficients[1:])
    if kind == "chain":
        return dataclasses.replace(value, levels=value.levels[:-1])
    if kind == "member":
        f, answer = value
        return f, not answer
    if kind == "split":
        f, dependent, free = value
        return f, free, dependent
    if kind == "minpow":
        f, dec = value
        return f, dataclasses.replace(dec, power=dec.power + 1)
    raise KeyError(kind)


CASES = [
    ("expand", "product"), ("expand", "power"), ("expand", "monicize"),
    ("expand", "divide"), ("integral", "pmember"), ("integral", "witness"),
    ("integral", "contract"), ("integral", "power_reduce"), ("wide", "chain"),
    ("wide", "member"), ("wide", "split"), ("wide", "minpow"),
]


@pytest.mark.parametrize("workload,kind", CASES)
def test_gate_fails_a_corrupted_answer(workload, kind):
    job = _first(workload, kind)
    text, value = certify.run_job(kk, job)
    certify.check_job(kk, job, text, value)
    with pytest.raises(certify.CheckFailed):
        certify.check_job(kk, job, text, _corrupt(kind, value))


def test_gate_wants_the_exact_error_identifier():
    job = _first("integral", "contract", error="ZeroCoset")
    text, value = certify.run_job(kk, job)
    certify.check_job(kk, job, text, value)
    wrong = kk.DegenerateCharPolyError("wrong identifier")
    with pytest.raises(certify.CheckFailed):
        certify.check_job(kk, job, "error: DegenerateCharPoly", wrong)
    answer_job = _first("integral", "divide")
    with pytest.raises(certify.CheckFailed):
        certify.check_job(kk, answer_job, "error: ZeroCoset", kk.ZeroCosetError("unexpected"))


def test_client_counts_corrupted_answers(monkeypatch):
    run_product = certify.RUNNERS["product"]

    def corrupted(kk_, job):
        text, value = run_product(kk_, job)
        return text, _corrupt("product", value)

    monkeypatch.setitem(certify.RUNNERS, "product", corrupted)
    client = worker.Client(kk)
    deck = jobs.make_round("expand", 7, 0, smoke=True)
    for template, job in enumerate(deck):
        client.run(job, template, digest=True)
    assert client.failed == sum(job.kind == "product" for job in deck) > 0


@pytest.mark.parametrize("index", range(8))
def test_cli_gate_fails_a_changed_output(index):
    job = jobs.make_round("cli", 7, 0, smoke=True)[index]
    text, (code, out, err) = certify.run_job(kk, job)
    certify.check_job(kk, job, text, (code, out, err))
    # Change the last character of the printed answer.
    changed = out[:-2] + chr(ord(out[-2]) ^ 1) + out[-1:] if out else "x"
    with pytest.raises(certify.CheckFailed):
        certify.check_job(kk, job, text, (code, changed, err))
