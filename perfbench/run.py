"""The krullkit benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload expand --seed 1729 --seconds 10 --trace 0

Workloads are ``expand``, ``integral``, ``wide`` and ``cli`` (see
``NOTES.md``).  The run measures set-up time (``import krullkit`` in fresh
interpreters), then starts one worker process that runs the workload's job
stream as a closed loop with one client and checks every answer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run of the same jobs.  Earlier lines are a
human-readable summary.  The exit code is 0 when a result was printed, and
2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 1729
SETUP_PROBES = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import krullkit; "
    "t = time.perf_counter() - t; import calib; print(t, calib.warm_up(20))"
)
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_seconds(env: dict) -> float:
    """Median time of ``import krullkit`` over fresh interpreters.

    Each probe times the import, then runs the calibration kernel in the same
    process, which scales the import time to reference seconds.
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=True,
        )
        import_s, calibration_s = map(float, proc.stdout.split())
        times.append(import_s * calib.scale(calibration_s))
    return statistics.median(times)


def expected_digest(workload: str, seed: int, smoke: bool):
    """The recorded round-0 output digest, for the default seed only."""
    if seed != DEFAULT_SEED or smoke:
        return None
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="krullkit benchmark")
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, one round")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "krullkit" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        print(
            f"error: no krullkit sources (src/krullkit, tests/oracles.py) under {ROOT}",
            file=sys.stderr,
        )
        return 2

    env = child_env()
    setup_s = None if args.trace else setup_seconds(env)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    plain = res["plain"]
    attempted, failed = plain["attempted"], plain["failed"]
    digest = plain["digest"]
    expected = expected_digest(args.workload, args.seed, args.smoke)
    digest_ok = expected is None or digest == expected
    correct = failed == 0 and digest_ok

    print(
        f"workload {args.workload}, seed {args.seed}: {attempted} jobs in "
        f"{res['rounds']} rounds, closed loop with 1 client; "
        f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted})"
    )
    print(
        f"latency samples: {plain['templates']} templates, each the median of its "
        f"{res['rounds']} runs in reference time; {plain['above_p90']} above p90; "
        f"unscaled {plain['raw_jobs_per_s']:.4g} jobs/s; calibration kernel "
        f"{plain['calibration_s'] * 1e3:.4g} ms, reference {calib.REFERENCE_S * 1e3:g} ms"
    )
    print(
        f"round-0 digest {digest} ({'matches' if expected else 'not recorded for this seed'}"
        f"{'' if digest_ok else ', MISMATCH'}); "
        f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}"
    )
    for failure in plain["failures"]:
        print(f"failed: {failure}")

    if args.trace:
        traced = res["traced"]
        same = traced["digest"] == digest
        correct = correct and same and traced["failed"] == 0
        attempted += traced["attempted"]
        failed += traced["failed"]
        for failure in traced["failures"]:
            print(f"failed (traced): {failure}")
        print(
            f"traced pass: digest {'matches' if same else 'DIFFERS from'} the untraced one; "
            f"spans in {res['spans']}"
        )
        metrics = {
            name: {"value": res["layers"][name], "unit": unit}
            for name, unit in tracing.LAYER_METRICS
        }
    else:
        metrics = {
            "jobs_per_s": {"value": plain["templates"] / plain["template_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": plain["latency_p50_s"] * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": plain["latency_p90_s"] * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
