"""A/B steadiness report: two sets of runs of identical code, interleaved.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py                  # measure, then report
    python3 perfbench/steadiness.py --report-only    # re-render from raw runs

Each set is ``RUNS`` runs of every workload, with seeds 1 to ``RUNS``, at
``BENCHMARK.json``'s ``run_seconds``.  For each seed and each workload, a
run of set A is followed by a run of set B, so that machine drift hits both sets alike.  For every end-to-end
metric x workload the report gives each set's median, its quartile spread
(``(q3 - q1) / median``, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) and the gap between the two medians, each against the metric's
bound in ``BENCHMARK.json``.  Raw results go to ``steadiness-runs.json``
and the report to ``STEADINESS.md``, both in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from report import CONFIG, run_once  # noqa: E402

RAW = HERE / "steadiness-runs.json"
REPORT = HERE / "STEADINESS.md"

#: Runs per set; set A and set B both use seeds ``1 .. RUNS``.
RUNS = 10

#: Metrics an earlier definition of this benchmark could not hold steady:
#: two sets of its runs gave medians 12.4%, 7.0% and 6.4% apart.
WATCHED = (
    ("opera-12k", "setup_s"),
    ("corner-sweep", "time_to_stats_s"),
    ("mor-25k", "time_to_stats_s"),
)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(workloads, seeds, seconds) -> dict:
    raw = {"seconds": seconds, "seeds": list(seeds), "runs": []}
    for seed in seeds:
        for workload in workloads:
            for side in ("A", "B"):
                started = time.time()
                result = run_once(workload, seed, seconds, 0)
                raw["runs"].append(
                    {
                        "set": side,
                        "workload": workload,
                        "seed": seed,
                        "started": started,
                        "duration_s": time.time() - started,
                        "result": result,
                    }
                )
                RAW.write_text(json.dumps(raw, indent=1) + "\n")
                values = result and {k: round(v["value"], 3) for k, v in result["metrics"].items()}
                print(f"{side} {workload:13s} seed {seed}: {values}", flush=True)
    return raw


def render(raw: dict, config: dict) -> str:
    metrics = config["end_to_end"]
    lines = [
        "# Steadiness report",
        "",
        f"Two sets (A, B) of identical code, interleaved A, B per workload and seed; "
        f"seeds {raw['seeds']}, `--seconds {raw['seconds']}`.  "
        "Spread = (q3 − q1) / median over a set's runs; gap = (median B − median A) / "
        "median A.  A metric passes when both spreads and the size of the gap are "
        "within its bound; \"steady\" means every spread is below a third of the "
        "bound.",
        "",
        "| workload | metric | bound | median A | median B | spread A | spread B | gap | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    failures = [run for run in raw["runs"] if run["result"] is None or not run["result"]["correct"]]
    gaps = {}
    for workload in [w["name"] for w in config["workloads"]]:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = {}
            for side in ("A", "B"):
                sets[side] = [
                    run["result"]["metrics"][name]["value"]
                    for run in raw["runs"]
                    if run["set"] == side and run["workload"] == workload and run["result"]
                ]
            if min(len(values) for values in sets.values()) < 2:
                continue
            median_a, median_b = (statistics.median(sets[side]) for side in ("A", "B"))
            spread_a, spread_b = (spread(sets[side]) for side in ("A", "B"))
            gap = (median_b - median_a) / median_a
            gaps[workload, name] = (gap, bound)
            within = abs(gap) <= bound and max(spread_a, spread_b) <= bound
            steady = max(spread_a, spread_b) < bound / 3
            verdict = ("steady" if steady else "passes") if within else "FAILS"
            lines.append(
                f"| {workload} | {name} | {bound:.2f} | {median_a:.4g} | {median_b:.4g} | "
                f"{spread_a:.3f} | {spread_b:.3f} | {gap:+.3f} | {verdict} |"
            )
    lines += ["", "Metrics an earlier definition of the benchmark could not hold steady:", ""]
    for workload, name in WATCHED:
        if (workload, name) in gaps:
            gap, bound = gaps[workload, name]
            lines.append(f"- `{workload}/{name}`: median gap {gap:+.3f}, bound {bound}.")
    lines += [
        "",
        f"Runs: {len(raw['runs'])}; failed or incorrect: {len(failures)}.  "
        f"Total measuring time: {sum(run['duration_s'] for run in raw['runs']) / 60:.1f} min.",
        "",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    config = json.loads(CONFIG.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report-only", action="store_true")
    args = parser.parse_args(argv)

    if args.report_only:
        raw = json.loads(RAW.read_text())
    else:
        workloads = [w["name"] for w in config["workloads"]]
        raw = measure(workloads, range(1, RUNS + 1), config["run_seconds"])
    text = render(raw, config)
    REPORT.write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
