"""One workload repetition in a fresh process; prints one JSON line.

Started by ``run.py`` (never imported by it), with ``PYTHONPATH`` pointing
at the checkout's ``src`` and the BLAS thread count fixed in the
environment.  The process times the set-up ``--setup-repeats`` times, then
the analysis (once; three warm passes for ``corner-sweep``), checks the
statistics against ``references.json`` after the clocks stop, and reports
its peak resident memory.  With ``--trace 1``
it installs the span wrappers of ``spans.py`` first and reports per-layer
metrics instead; the tracer then counts as one more check, failed when an
entry point it hooks is missing or an after-hook cannot read its count.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


def blas_threads() -> int:
    """Threads the BLAS numpy loaded will use (its own report, else the env)."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(ctypes.CDLL(path), symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))


def load_reference(workload: str, index: int) -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)["workloads"][workload][str(index)]


def run(workload, seed: int, repeats: int, scratch: Path) -> dict:
    """Set up ``repeats`` times, then analyse; returns the measurements.

    Every result is checked after the clocks stop, including the results
    a set-up leaves (the sweep's cold pass).
    """
    variant = workload.variant(seed)
    reference = load_reference(workload.name, variant.index)
    setup_times = []
    analysis_times = []
    outcomes = []
    state = None
    started = time.perf_counter()
    for _ in range(repeats):
        state = None
        gc.collect()
        begin = time.perf_counter()
        state = workload.setup(variant, scratch)
        setup_times.append(time.perf_counter() - begin)
    outcomes.extend(workload.setup_outcomes(state))
    for index in range(workload.analysis_repeats):
        begin = time.perf_counter()
        outcomes.append(workload.analyse(state, variant, scratch / f"pass-{index}"))
        analysis_times.append(time.perf_counter() - begin)
    finished = time.perf_counter()
    checked, failures = 0, []
    for outcome in outcomes:
        count, found = workload.check(outcome, reference)
        checked += count
        failures += found
    facts = {}
    for outcome in outcomes:
        for key, value in outcome.facts.items():
            facts[key] = facts.get(key, 0) + value
    return {
        "setup_s": setup_times,
        "time_to_stats_s": statistics.median(analysis_times),
        "wall_s": finished - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checked": checked,
        "failures": failures,
        "facts": facts,
        "variant": variant.index,
    }


def traced_metrics(measured: dict, recorder, telemetry) -> dict:
    """Per-layer metrics of a traced run: self times, counts, remainder."""
    import spans

    from repro.sim.linear import factorization_counters

    metrics = spans.summarize(recorder, measured["wall_s"])
    metrics.update(measured["facts"])
    metrics["traced_analysis_s"] = measured["time_to_stats_s"]
    counters = telemetry.summary().get("counters", {})
    for name in ("macromodels_built", "macromodels_reused"):
        metrics[f"mor.{name}"] = counters.get(name, 0)
    metrics["sweep.batched_cases"] = counters.get("batched_cases", 0)
    for name in ("symbolic_analysis", "symbolic_reuse", "numeric_refactor"):
        metrics[f"linear.{name}"] = factorization_counters()[name]
    hits = misses = 0
    for session in recorder.sessions:
        for entry in session.cache_info().values():
            hits += entry["hits"]
            misses += entry["misses"]
    metrics["api.cache_hits"] = hits
    metrics["api.cache_misses"] = misses
    if "grid.nodes" not in metrics and recorder.sessions:
        stamped = recorder.sessions[0].stamped
        metrics["grid.nodes"] = stamped.num_nodes
        metrics["grid.sources"] = len(stamped.source_nodes)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-repeats", type=int, default=None)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)

    import repro.api  # noqa: F401  (every engine registered before hooks go in)

    workload = workloads.WORKLOADS[args.workload]
    repeats = args.setup_repeats or workload.setup_repeats
    if args.trace:
        import spans

        from repro.telemetry import profile

        recorder = spans.SpanRecorder()
        skipped = spans.install(recorder)
        with profile() as telemetry:
            measured = run(workload, args.seed, 1, args.scratch)
        measured["metrics"] = traced_metrics(measured, recorder, telemetry)
        measured["skipped_hooks"] = skipped
        measured["hook_problems"] = recorder.problems
        measured["checked"] += 1
        problems = [f"hook target missing: {name}" for name in skipped] + recorder.problems
        if problems:
            measured["failures"].append("tracer: " + "; ".join(problems))
    else:
        measured = run(workload, args.seed, repeats, args.scratch)
    measured["blas_threads"] = blas_threads()
    measured.pop("facts")
    print(json.dumps(measured))
    return 0


if __name__ == "__main__":
    sys.exit(main())
