"""Every committed BENCH_*.json reads under one of bench/trajectory.py's known schemas."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "bench" / "trajectory.py"
_spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

WORKLOADS, METRICS = trajectory.schema()
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_schema_is_four_workloads_by_five_metrics():
    assert len(WORKLOADS) == 4 and len(METRICS) == 5
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_every_file_gives_all_twenty_pairs(path):
    parent, rows = trajectory.read(path, WORKLOADS, METRICS)
    assert len(parent) == 40 and int(parent, 16) >= 0
    assert list(rows) == WORKLOADS
    for row in rows.values():
        assert list(row) == METRICS
        for before, after in row.values():
            assert before > 0 and after > 0


@pytest.mark.parametrize("value", [
    {"parent": {"median": 2.0}, "change": {"median": 3}},
    {"parent_median": 2.0, "change_median": 3, "rel": 0.5},
])
def test_both_value_shapes(value):
    assert trajectory.medians(value) == (2.0, 3)


@pytest.mark.parametrize("value", [
    {"parent": 2.0, "change": 3.0},
    {"parent": {"mean": 2.0}, "change": {"mean": 3.0}},
    {"parent_median": 2.0},
    {"parent_median": "2.0", "change_median": 3.0},
    {"parent_median": True, "change_median": 3.0},
    {"parent_runs": [2.0], "change_runs": [3.0]},
    2.0,
])
def test_an_unknown_value_shape_is_refused(value):
    with pytest.raises(ValueError):
        trajectory.medians(value)


def test_an_unknown_container_is_refused(tmp_path):
    entry = {"parent_median": 2.0, "change_median": 3.0}
    rows = {m: entry for m in METRICS}
    for workloads in (
        {w: {"results": rows} for w in WORKLOADS},  # another container name
        {w: rows for w in WORKLOADS[1:]},  # a workload missing
        {w: {m: entry for m in METRICS[1:]} for w in WORKLOADS},  # a metric missing
    ):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"parent_commit": "0" * 40, "workloads": workloads}))
        with pytest.raises(ValueError):
            trajectory.read(path, WORKLOADS, METRICS)


def test_the_script_prints_every_file():
    # The timeout only guards against a hang; it is not a timing gate.
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(FILES) * (1 + len(WORKLOADS) * len(METRICS))
    assert [line.split()[0] for line in lines if not line.startswith(" ")] == [
        path.name for path in FILES
    ]


def test_a_closed_pipe_ends_without_traceback():
    # Every file ten times, well past a pipe buffer, so a write after the
    # reader has gone fails.  The timeout only guards against a hang.
    proc = subprocess.Popen([sys.executable, str(SCRIPT), *map(str, FILES * 10)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"BENCH_")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")  # no traceback
