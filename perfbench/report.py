"""Run every workload untraced and traced; print each metric with its unit.

Usage (from the root of a checkout)::

    python3 perfbench/report.py --seed 1

Each run measures for ``BENCHMARK.json``'s ``run_seconds``.

Exits non-zero when a run fails or a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = HERE.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` invocation; its result line, or ``None`` if it failed."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
    )
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    config = json.loads(CONFIG.read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in names:
        for trace in (0, 1):
            result = run_once(workload, args.seed, config["run_seconds"], trace)
            label = f"{workload} ({'traced' if trace else 'untraced'})"
            if result is None:
                print(f"{label}: run failed")
                ok = False
                continue
            print(
                f"{label}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
