"""Batched sweeps: topology-grouped scheduling, identical numbers, more cases/s.

A corner sweep runs many scenarios on the *same* grid.  With
``SweepRunner(batch=True)`` the plan is regrouped by grid topology and each
group executes through the batched scheduler
(:class:`~repro.sweep.BatchedCaseRunner`), which deduplicates everything
the topology determines: identical step matrices share one LU through the
session's content-fingerprint solver cache, one stacked multi-RHS march for
all RHS-only ``opera``/``decoupled`` cases, and one run per distinct scenario
(``deterministic`` corners replicate, ``opera``/``decoupled`` twins share a
trajectory).

This demo runs the same corner plan unbatched and batched, shows the
statistics are bit-identical case by case, and inspects the artifact
fields the batched path adds (``reused_factorization`` per case,
``cases_per_second`` in the record config, the ``batched_cases``
telemetry counter).

Run with:  PYTHONPATH=src python examples/batched_sweep.py
"""

import numpy as np

from repro import SweepPlan, SweepRunner
from repro.sim import TransientConfig
from repro.sweep import group_cases, record_from_outcome, topology_key


def main() -> None:
    plan = SweepPlan.grid(
        [250],
        engines=("opera", "decoupled", "deterministic"),
        orders=(2,),
        corners=("rhs-only", "rhs-wide", "rhs-tight"),
        transient=TransientConfig(t_stop=1.2e-9, dt=0.2e-9),
        base_seed=7,
    )
    groups = group_cases(plan.cases)
    print(f"{len(plan.cases)} case(s) in {len(groups)} topology group(s):")
    for group in groups:
        print(f"  {topology_key(group[0])}: {[case.name for case in group]}")

    # The same plan, scheduled per case and per topology group.
    unbatched = SweepRunner(workers=1, keep_statistics=True).run(plan)
    batched = SweepRunner(workers=1, keep_statistics=True, batch=True).run(plan)

    # Statistics are bit-identical for every case -- stacked solves are
    # split to the exact column shapes of the unbatched solves.
    for ref, cand in zip(unbatched, batched):
        assert ref.name == cand.name
        np.testing.assert_array_equal(ref.mean, cand.mean)
        np.testing.assert_array_equal(ref.std, cand.std)
    print("statistics bit-identical to the unbatched run")

    # Replicated / deduplicated cases are flagged in the results ...
    reused = [result.name for result in batched if result.reused_factorization]
    print(f"reused factorization for {len(reused)} of {len(plan.cases)} case(s):")
    for name in reused:
        print(f"  {name}")

    # ... and the exported record carries the throughput of the run.
    record = record_from_outcome(batched)
    print(f"batched: {record.config['batched']}")
    print(f"throughput: {record.config['cases_per_second']:.1f} cases/s")

    # Telemetry counts how many cases rode a stacked march.
    profiled = SweepRunner(workers=1, keep_statistics=True, batch=True, telemetry=True).run(plan)
    counters = (profiled.telemetry_summary() or {}).get("counters", {})
    print(f"stacked cases: {counters.get('batched_cases', 0)}")


if __name__ == "__main__":
    main()
