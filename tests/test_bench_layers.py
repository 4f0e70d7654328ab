"""Smoke test of bench/layers.py: it runs paired and prints its JSON (no timing gate)."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def layers(*args):
    # The timeout only guards against a hang; it is not a timing gate.
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_paired_mode_smoke():
    # This tree against itself: both sides load, give equal results and pair up.
    report = layers("--ab", str(SRC))
    assert set(report) == {"python", "platform", "a", "b", "cases"}
    assert report["a"] == report["b"] == str(SRC)
    assert len(report["cases"]) == 73
    for case in report["cases"].values():
        assert set(case) == {"layer", "median_b_over_a", "iqr", "b_slower", "rounds", "number",
                             "median_a_s"}
        assert case["rounds"] == 3 and 0 <= case["b_slower"] <= 3 and case["median_a_s"] > 0
