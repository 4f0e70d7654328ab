"""Smoke test of bench/layers.py: it runs and prints its JSON (no timing gate)."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layer_cases_smoke():
    # The timeout only guards against a hang; it is not a timing gate.
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report) == {"python", "platform", "cases"}
    assert len(report["cases"]) == 51
    for case in report["cases"].values():
        assert set(case) == {"layer", "min_s", "number", "repeat"}
