"""Regenerate ``references.json``, the correctness references of the benchmark.

Run from the root of a checkout::

    python3 perfbench/make_references.py              # every workload
    python3 perfbench/make_references.py --workload mor-25k
    python3 perfbench/make_references.py --check-seeds

Each workload x variant is computed in a fresh process, one at a time.

* ``mc-2k5``, ``opera-12k``: the workload's own analysis (the program's
  results when the benchmark was defined); checked at ``SEED_STATE_RTOL``.
* ``corner-sweep``: the ``opera`` and ``deterministic`` cases of the sweep,
  likewise.  Its ``mor`` cases have no stored reference: they are checked
  against the same corner's ``opera`` case at run time.
* ``mor-25k``: the exact ``hierarchical`` engine on the same inputs, checked
  at the ``mor`` accuracy gate (``MOR_RTOL``).  It takes about 85 s and
  5.4 GB of memory per variant on a 2-CPU x86 machine.

``--check-seeds`` re-derives the equal-work grid seeds of ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import digest as digests  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

#: Search range and tolerance of the equal-work grid seeds.
SEED_RANGE = 3000
SEED_TOLERANCE = 0.005


def reference_for(name: str, index: int, scratch: Path) -> dict:
    """Digests of one workload variant, keyed by result label."""
    workload = workloads.WORKLOADS[name]
    variant = workload.variant(index)
    state = workload.setup(variant, scratch)
    if name == "mor-25k":
        from repro.api import Analysis

        netlist, stamped, system = state
        session = Analysis(
            netlist, stamped=stamped, system=system, transient=workloads.transient()
        )
        view = session.run("hierarchical", order=workloads.CHAOS_ORDER)
        return {name: digests.make_digest(view.mean(), view.std(), float(system.vdd))}
    outcome = workload.analyse(state, variant, scratch)
    return {
        result.label: digests.make_digest(result.mean, result.std, result.vdd)
        for result in outcome.results
        if result.engine != "mor"
    }


def equal_work_seeds(nodes: int) -> tuple:
    import numpy as np

    from repro.grid.blocks import place_blocks
    from repro.grid.generator import spec_for_node_count

    spec = spec_for_node_count(nodes)
    covered = []
    for seed in range(SEED_RANGE):
        blocks = place_blocks(spec.nx, spec.ny, spec.num_blocks, np.random.default_rng(seed))
        covered.append(sum(len(list(block.node_coordinates())) for block in blocks))
    median = float(np.median(covered))
    tolerance = SEED_TOLERANCE * median
    near = [seed for seed, count in enumerate(covered) if abs(count - median) <= tolerance]
    return tuple(near[: workloads.VARIANTS])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--check-seeds", action="store_true")
    parser.add_argument("--one", nargs=3, metavar=("WORKLOAD", "VARIANT", "SCRATCH"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.one:
        name, index, scratch = args.one
        print(json.dumps(reference_for(name, int(index), Path(scratch))))
        return 0
    if args.check_seeds:
        sys.path.insert(0, str(bench.SRC))
        for nodes, seeds in workloads.GRID_SEEDS.items():
            derived = equal_work_seeds(nodes)
            print(f"{nodes}: stored {seeds}, derived {derived}")
            if derived != seeds:
                return 1
        return 0

    path = HERE / "references.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("workloads", {})
    data["tolerances"] = {
        "seed_state_rtol": digests.SEED_STATE_RTOL,
        "mor_rtol": digests.MOR_RTOL,
    }
    bench.SCRATCH_ROOT.mkdir(exist_ok=True)
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            entry = data["workloads"].setdefault(name, {})
            for index in range(workloads.VARIANTS):
                scratch = bench.SCRATCH_ROOT / f"ref-{name}-{index}"
                completed = subprocess.run(
                    [sys.executable, __file__, "--one", name, str(index), str(scratch)],
                    env=bench.worker_env(),
                    cwd=bench.ROOT,
                    capture_output=True,
                    text=True,
                    check=True,
                )
                entry[str(index)] = json.loads(completed.stdout.strip().splitlines()[-1])
                print(f"{name} variant {index}: {len(entry[str(index)])} digest(s)", flush=True)
                path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    finally:
        import shutil

        shutil.rmtree(bench.SCRATCH_ROOT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
