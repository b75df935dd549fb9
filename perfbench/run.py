#!/usr/bin/env python3
"""Benchmark for gpsf: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload quad --seed 1 --seconds 30 --trace 0

Runs the workload's seeded job list in whole rounds, one job at a time,
until the next round would end after ``--seconds``. Every output is
checked outside the timed region. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A results file with the run environment and per-job times
is written under ``perfbench/out/``. See perfbench/README.md.
"""

import os

# Pin BLAS to one thread before numpy is imported, here and in the set-up
# probes started below.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
MIN_ROUNDS = 3  # untraced rounds per run, so that every job time is a median of three or more
SETUP_PROBES = 5
END_TO_END = [
    ("wall_s", "s"),
    ("job_s.gmean", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("digits_min", "digits"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup():
    """Median wall time of a fresh interpreter importing gpsf and gpsf.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import gpsf, gpsf.cli"]
    times = []
    for i in range(SETUP_PROBES + 1):  # the first probe only warms the file cache
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"importing gpsf failed: {proc.stderr.decode(errors='replace').strip()}")
        if i:
            times.append(dt)
    return statistics.median(times), times


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_environment():
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_round(jobs):
    """One pass over the job list: per-job wall times and (output, error) pairs."""
    times, results = [], []
    for job in jobs:
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = (job.run(), None)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = (None, f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        results.append(result)
    return times, results


class Outcomes:
    """Checks each job's output and counts attempted and failed operations."""

    def __init__(self, jobs):
        self.first = [None] * len(jobs)
        self.errors = []  # measured errors of the outputs that passed
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures other than the known fault
        self.failures = {}

    def record_round(self, jobs, results):
        for i, (job, (out, raised)) in enumerate(zip(jobs, results)):
            self.record(i, job, out, raised)

    def record(self, i, job, out, raised):
        self.attempted += 1
        if raised is None:
            fp = job.fingerprint(out)
            if self.first[i] is not None and fp == self.first[i][0]:
                ok, errs = self.first[i][1]
            else:
                ok, errs = job.check(out)
                if self.first[i] is None:
                    self.first[i] = (fp, (ok, errs))
            why = None if ok else "output failed its check"
        else:
            ok, errs, why = False, [], raised
        if ok:
            self.errors.extend(errs)
            return
        self.failed += 1
        self.failures[job.name] = job.known_fault or why
        if not job.known_fault:
            self.unexpected.append(f"{job.name}: {why}")


def warm_up(workload):
    """Run the fixed warm-up jobs untimed, check them, and prove the checks can fail."""
    _, make_warmup, self_test = workload
    jobs = make_warmup()
    outputs = [job.run() for job in jobs]
    for job, out in zip(jobs, outputs):
        ok, _ = job.check(out)
        if not ok:
            return False, {"warm-up output": f"{job.name} failed its check"}
    found = self_test(jobs, outputs)
    missed = [label for label, caught in found.items() if not caught]
    if missed:
        fail(f"a check accepted a deliberately wrong output: {', '.join(missed)}")
    return True, found


def keep_going(rounds, elapsed, seconds, min_rounds):
    return rounds < min_rounds or elapsed + elapsed / rounds <= seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("quad", "spectrum", "recover"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "gpsf" / "__init__.py").is_file():
        fail(f"no gpsf sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))

    setup = measure_setup() if args.trace == 0 else None

    import numpy as np

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    jobs = workload[0](np.random.default_rng(args.seed))
    warm_ok, self_tests = warm_up(workload)

    outcomes = Outcomes(jobs)
    job_times = [[] for _ in jobs]
    untraced_walls, traced_walls, layer_rounds = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    traced_spans = []
    start = time.perf_counter()
    rounds = 0
    while True:
        times, results = run_round(jobs)
        outcomes.record_round(jobs, results)
        untraced_walls.append(sum(times))
        for k, t in enumerate(times):
            job_times[k].append(t)
        if tracer:
            tracer.install()
            try:
                times, results = run_round(jobs)
            finally:
                tracer.uninstall()
            outcomes.record_round(jobs, results)
            traced_walls.append(sum(times))
            layer_rounds.append(tracing.layer_metrics(tracer.spans))
            traced_spans.append(list(tracer.spans))
            tracer.spans.clear()
        rounds += 1
        if not keep_going(rounds, time.perf_counter() - start, args.seconds, 1 if tracer else MIN_ROUNDS):
            break
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    medians = [statistics.median(t) for t in job_times]
    metrics = {}
    if args.trace == 0:
        values = {
            "wall_s": sum(medians),
            "job_s.gmean": math.exp(statistics.fmean(math.log(t) for t in medians)),
            "setup_s": setup[0],
            "peak_rss_mb": peak_rss_mb,
            "digits_min": min(workloads.checks.digits(e) for e in outcomes.errors) if outcomes.errors else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        counts = [name for name, unit, _ in tracing.LAYER_METRICS if unit != "s"]
        if any(lr[k] != layer_rounds[0][k] for lr in layer_rounds for k in counts):
            print("perfbench: per-layer counts differ between traced rounds", file=sys.stderr)
        for name, unit, _ in tracing.LAYER_METRICS:
            if name == "trace.overhead_s":
                value = statistics.median(traced_walls) - statistics.median(untraced_walls)
            else:
                value = statistics.median(lr[name] for lr in layer_rounds)
            metrics[name] = {"value": value, "unit": unit}

    correct = warm_ok and not outcomes.unexpected
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": run_environment(),
        "rounds": rounds,
        "measured_s": measured_s,
        "setup_probes_s": setup[1] if setup else None,
        "self_tests": self_tests,
        "failures": outcomes.failures,
        "unexpected_failures": outcomes.unexpected,
        "jobs": [
            {"name": job.name, "times_s": t, "median_s": m, "check_errors": first and first[1][1]}
            for job, t, m, first in zip(jobs, job_times, medians, outcomes.first)
        ],
        "traced_round_s": traced_walls,
        "untraced_round_s": untraced_walls,
        "result": result,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    if traced_spans:
        write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", traced_spans)
    for line in outcomes.unexpected:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(json.dumps(result))


def write_spans(path, rounds):
    """One JSON line per span: round, index, name, start, end, parent index, extras."""
    with open(path, "w") as fh:
        for r, spans in enumerate(rounds):
            for i, (name, t0, t1, parent, extra) in enumerate(spans):
                fh.write(json.dumps([r, i, name, t0, t1, parent, [float(v) for v in extra]]) + "\n")


if __name__ == "__main__":
    main()
