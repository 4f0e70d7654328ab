"""The closed-loop client: one process that runs a workload's job stream.

Usage (``run.py`` starts it with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/worker.py --workload expand --seed 1729 --seconds 20

One client sends the next job only when the previous answer is back.  The
client runs the workload's deck of job templates in rounds until
``--seconds`` of wall time have passed (at least ``MIN_ROUNDS`` rounds); the
last round is always finished.  Every round sends new inputs of the same cost
(see ``jobs.Gen``).  Each job is timed on its own, and its answer is checked
right after, outside the timed region.  The last stdout line is a JSON
summary.

Every job time is scaled to reference seconds by the calibration kernel run
after it (see :mod:`calib`), and a template's latency is the median of its
scaled times over the rounds.

With ``--trace 1`` the same rounds run twice: untraced, then traced with the
wrappers of :mod:`tracing` installed; the ratio of the two job times is
``trace.overhead_ratio``, and both passes must give the same output digest.
On the ``cli`` workload the traced run also starts one fresh interpreter per
README transcript (``child.py``) for ``cli.import_s`` and ``cli.process_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.append(str(ROOT / "tests"))

import calib  # noqa: E402
import certify  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402

MIN_ROUNDS = 3
OUT_DIR = ROOT / ".perfbench_out"


class Client:
    """Runs jobs one at a time and keeps what the summary needs."""

    def __init__(self, kk, tracer=None):
        self.kk = kk
        self.tracer = tracer
        self.latencies: list[float] = []
        self.templates: list[int] = []
        self.calibration: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    def run(self, job, template: int, *, digest: bool) -> None:
        if self.tracer is not None:
            self.tracer.job = len(self.latencies)
            self.tracer.enable()
        t0 = perf_counter()
        try:
            text, value = certify.run_job(self.kk, job)
        except Exception as exc:  # an unexpected error is a failed job
            text, value = f"unexpected: {type(exc).__name__}: {exc}", exc
        t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.disable()
        self.latencies.append(t1 - t0)
        self.templates.append(template)
        self.calibration.append(calib.calibrate())
        if digest:
            self.digest.update(text.encode("utf-8") + b"\0")
        try:
            if text.startswith("unexpected: "):
                raise certify.CheckFailed(text)
            certify.check_job(self.kk, job, text, value)
        except Exception as exc:  # noqa: BLE001 - every failed check is counted
            self.fail(f"{job.kind} {job.field} {job.args}: {exc}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message[:400])


def run_rounds(client, workload, seed, *, seconds, min_rounds, rounds=None, smoke=False):
    """Run whole rounds until time and round count are both reached; return rounds."""
    start = perf_counter()
    done = 0
    while True:
        for template, job in enumerate(jobs.make_round(workload, seed, done, smoke=smoke)):
            client.run(job, template, digest=done == 0)
        done += 1
        if rounds is not None:
            if done >= rounds:
                return done
        elif perf_counter() - start >= seconds and done >= min_rounds:
            return done


def fresh_process_calls(client, span_lines: list[str]) -> dict:
    """Run each README transcript in a fresh traced interpreter.

    Returns the totals per call; ``cli.process_s`` is the wall time of the
    whole process as its caller sees it.  A transcript whose output differs
    counts as a failed job of ``client``.
    """
    totals: dict[str, float] = {}
    out = str(OUT_DIR / "child.json")
    for argv, code, stdout in jobs.README_TRANSCRIPTS:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), out, *argv],
            capture_output=True, text=True, timeout=60,
        )
        process_s = perf_counter() - t0
        if (proc.returncode, proc.stdout) != (code, stdout):
            client.fail(f"fresh process {argv}: exit {proc.returncode}, {proc.stdout!r}")
        with open(out) as fh:
            doc = json.load(fh)
        os.remove(out)
        doc["totals"]["cli.process_s"] = process_s
        for key, value in doc["totals"].items():
            totals[key] = totals.get(key, 0.0) + value / len(jobs.README_TRANSCRIPTS)
        span_lines.extend(
            "%s %.9f %.9f %d %s" % (doc["names"][s[0]], s[1], s[2], s[3], argv[0])
            for s in doc["spans"]
        )
    return totals


def template_latencies(client) -> list[float]:
    """Each template's median latency over the rounds, in reference seconds."""
    by_template: dict[int, list[float]] = {}
    scales = calib.scale_factors(client.calibration)
    for template, lat, scale in zip(client.templates, client.latencies, scales):
        by_template.setdefault(template, []).append(lat * scale)
    return [statistics.median(v) for _, v in sorted(by_template.items())]


def summary(client) -> dict:
    lat = template_latencies(client)
    deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
    return {
        "attempted": len(client.latencies),
        "failed": client.failed,
        "failures": client.failures,
        "templates": len(lat),
        "template_s": sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": deciles[8],
        "above_p90": sum(1 for x in lat if x > deciles[8]),
        "raw_jobs_per_s": len(client.latencies) / sum(client.latencies),
        "calibration_s": statistics.median(client.calibration),
        "digest": client.digest.hexdigest(),
    }


def traced_run(kk, workload, seed, rounds, smoke, plain) -> dict:
    """Run the same rounds again with tracing on; return the per-layer summary."""
    OUT_DIR.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.disable()
    traced = Client(kk, tracer)
    run_rounds(traced, workload, seed, seconds=0, min_rounds=0, rounds=rounds, smoke=smoke)
    jobs_done = len(traced.latencies)
    layers = {name: value / jobs_done for name, value in tracer.totals.items()}
    span_lines: list[str] = []
    if workload == "cli":
        for key, value in fresh_process_calls(traced, span_lines).items():
            if key in ("cli.import_s", "cli.process_s"):
                layers[key] = value
    layers["trace.overhead_ratio"] = (
        sum(template_latencies(traced)) / sum(template_latencies(plain))
    )
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.txt"
    tracer.dump(spans_path, span_lines)
    return {
        "traced": summary(traced),
        "layers": {name: layers.get(name, 0.0) for name, _ in tracing.LAYER_METRICS},
        "spans": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, one round")
    args = ap.parse_args(argv)

    import krullkit as kk
    import krullkit.cli  # noqa: F401 - the cli jobs call kk.cli.main

    calib.warm_up()
    plain = Client(kk)
    done = run_rounds(
        plain, args.workload, args.seed,
        seconds=args.seconds / 3 if args.trace else args.seconds,
        min_rounds=1 if args.smoke else MIN_ROUNDS,
        rounds=1 if args.smoke else None,
        smoke=args.smoke,
    )
    result = {
        "rounds": done,
        "plain": summary(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result.update(traced_run(kk, args.workload, args.seed, done, args.smoke, plain))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
