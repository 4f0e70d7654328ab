"""The benchmark trajectory: parent and change medians from the BENCH files.

Each committed ``BENCH_*.json`` records one change against its parent commit
on the workloads and end-to-end metrics that ``BENCHMARK.json`` names.  The
files use two containers, ``workloads.<w>.metrics.<m>`` and
``workloads.<w>.<m>``, and two value shapes, ``{"parent": {"median": ...},
"change": {"median": ...}}`` and ``{"parent_median": ..., "change_median":
...}``; this script reads all four combinations and refuses any other shape
with a ``ValueError``.  It uses only the standard library and prints, per
file, its ``parent_commit`` and one line per workload and metric::

    python3 bench/trajectory.py                  # every BENCH_*.json, by name
    python3 bench/trajectory.py BENCH_a.json ...  # the files given, in order

To read the files in the order they were committed::

    python3 bench/trajectory.py $(git log --reverse --diff-filter=A --format= \\
        --name-only -- 'BENCH_*.json')
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def schema() -> tuple[list[str], list[str]]:
    """The workload and end-to-end metric names that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]]


def medians(value) -> tuple[float, float]:
    """The (parent, change) medians of one metric entry, in either value shape."""
    if not isinstance(value, dict):
        raise ValueError(f"a metric entry must be an object, got {type(value).__name__}")
    if isinstance(value.get("parent"), dict) and isinstance(value.get("change"), dict):
        pair = value["parent"].get("median"), value["change"].get("median")
    else:
        pair = value.get("parent_median"), value.get("change_median")
    if not all(type(v) in (int, float) for v in pair):
        raise ValueError(f"no parent and change medians among the keys {sorted(value)}")
    return pair


def read(path: Path, workloads: list[str], metrics: list[str]) -> tuple[str, dict]:
    """A BENCH file's parent commit and {workload: {metric: (parent, change)}}."""
    doc = json.loads(path.read_text())
    rows = {}
    for w in workloads:
        body = doc["workloads"].get(w)
        if not isinstance(body, dict):
            raise ValueError(f"{path.name}: no workload {w!r}")
        container = body["metrics"] if isinstance(body.get("metrics"), dict) else body
        missing = [m for m in metrics if m not in container]
        if missing:
            raise ValueError(f"{path.name}: workload {w!r} lacks {', '.join(missing)}")
        rows[w] = {m: medians(container[m]) for m in metrics}
    return doc["parent_commit"], rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", type=Path, help="BENCH files (default: all, by name)")
    args = ap.parse_args()
    workloads, metrics = schema()
    try:
        for path in args.files or sorted(ROOT.glob("BENCH_*.json")):
            parent, rows = read(path, workloads, metrics)
            print(f"{path.name}  parent {parent[:12]}")
            for w, row in rows.items():
                for m, (before, after) in row.items():
                    print(f"  {w:<9} {m:<15} {before:>12.6g} -> {after:<12.6g} "
                          f"x{after / before:.3f}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, as `| head` does.  Point stdout at devnull
        # so that the flush at interpreter exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
