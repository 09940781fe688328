"""Benchmark entry point: one workload, measured in fresh worker processes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mc-2k5 --seed 1 --seconds 20 --trace 0

Every repetition is a fresh ``worker.py`` process, started one at a time
(no pools), so each analysis is cold and nothing cached leaks between
repetitions or workloads.  Repetitions run until the next one would not fit
into ``--seconds`` (at least one always runs).  The last line of standard
output is one JSON object:

* ``--trace 0``: ``setup_s`` (median over every set-up the workers timed),
  ``time_to_stats_s`` and ``peak_rss_mb`` (medians over repetitions);
* ``--trace 1``: every per-layer metric of ``BENCHMARK.json``.  Each
  repetition is then an untraced worker followed by a traced one, and
  ``trace_overhead_s`` is the traced analysis time minus the untraced one.

``attempted`` counts checked results (one per analysis; 72 per
``corner-sweep`` worker), plus one check of the tracer per traced worker; a
failed check, a crashed worker, a shared memory segment left in
``/dev/shm`` or a tracer hook that is missing or cannot read its count
counts as failed.  Missing hooks and hook problems are also listed in the
metadata line printed before the result.  Without the
program's sources next to this directory it exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "BENCHMARK.json"
SCRATCH_ROOT = ROOT / ".perfbench-scratch"

#: BLAS threads of every worker (the machine has 2 CPUs; one thread keeps
#: the analysis single-threaded like the Python it drives).
BLAS_THREADS = "1"

#: Hard cap on one benchmark invocation, below the 180 s a run may take.
RUN_LIMIT_S = 170.0

#: Where Python's shared-memory segments live, and their name prefix.
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "psm_"


def shm_segments() -> set:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, trace: int, deadline: float, repeats=None) -> dict:
    """One worker process; returns its JSON report or ``{"error": ...}``."""
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH_ROOT))
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--scratch", str(scratch),
    ]
    if repeats is not None:
        command += ["--setup-repeats", str(repeats)]
    before = shm_segments()
    try:
        # subprocess.run kills and reaps the worker on any exception,
        # including the SystemExit that SIGTERM raises (see main).
        completed = subprocess.run(
            command,
            env=worker_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
            report = {"error": f"worker exited with {completed.returncode}: {tail[0]}"}
        else:
            report = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        report = {"error": "worker timed out"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    leaked = shm_segments() - before
    if leaked:
        message = f"shared-memory segments left behind: {sorted(leaked)}"
        if "error" in report:
            report["error"] += f"; {message}"
        else:
            report["failures"].append(message)
    return report


def per_layer_units() -> dict:
    with open(CONFIG) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2

    started = time.monotonic()
    hard_deadline = started + RUN_LIMIT_S
    budget_end = started + args.seconds
    SCRATCH_ROOT.mkdir(exist_ok=True)
    reps = []
    attempted = failed = 0
    try:
        while True:
            rep_started = time.monotonic()
            if args.trace:
                untraced = run_worker(args.workload, args.seed, 0, hard_deadline, repeats=1)
                traced = run_worker(args.workload, args.seed, 1, hard_deadline)
                pair = [untraced, traced]
            else:
                pair = [run_worker(args.workload, args.seed, 0, hard_deadline)]
            for report in pair:
                if "error" in report:
                    attempted += 1
                    failed += 1
                    print(f"perfbench: {report['error']}", file=sys.stderr)
                    continue
                attempted += report["checked"]
                failed += len(report["failures"])
                for failure in report["failures"]:
                    print(f"perfbench: check failed: {failure}", file=sys.stderr)
            if all("error" not in report for report in pair):
                reps.append(pair)
            now = time.monotonic()
            if now + (now - rep_started) > min(budget_end, hard_deadline):
                break
    finally:
        shutil.rmtree(SCRATCH_ROOT, ignore_errors=True)

    if not reps:
        print("perfbench: every repetition failed; no result", file=sys.stderr)
        return 1

    if args.trace:
        names = per_layer_units()
        traced = [pair[1]["metrics"] for pair in reps]
        values = {
            name: statistics.median(metrics.get(name, 0) for metrics in traced) for name in names
        }
        values["trace_overhead_s"] = statistics.median(
            pair[1]["metrics"]["traced_analysis_s"] - pair[0]["time_to_stats_s"] for pair in reps
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    else:
        runs = [pair[0] for pair in reps]
        metrics = {
            "setup_s": {
                "value": statistics.median(t for run in runs for t in run["setup_s"]),
                "unit": "s",
            },
            "time_to_stats_s": {
                "value": statistics.median(run["time_to_stats_s"] for run in runs),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(run["peak_rss_mb"] for run in runs),
                "unit": "MB",
            },
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": reps[0][0]["variant"],
        "repetitions": len(reps),
        "blas_threads": sorted({run["blas_threads"] for pair in reps for run in pair}),
    }
    if args.trace:
        for key in ("skipped_hooks", "hook_problems"):
            meta[key] = sorted({item for pair in reps for item in pair[1][key]})
            for item in meta[key]:
                print(f"perfbench: {key}: {item}", file=sys.stderr)
    print(json.dumps(meta))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
