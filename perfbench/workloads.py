"""The four benchmark workloads: inputs, set-up, the timed analysis, checks.

Each workload is built so that a different layer of the program does most
of its work (see ``README.md`` in this directory):

``mc-2k5``        Monte Carlo sampling path (per-source waveform evaluation).
``opera-12k``     The paper's method: explicit Galerkin assembly + SuperLU.
``mor-25k``       The large-grid ``mor`` engine, cold (PRIMA reduction).
``corner-sweep``  A batched in-process sweep, second pass with warm caches.

Inputs come only from the benchmark seed.  The seed picks one of
``VARIANTS`` input variants per workload; a variant fixes the grid seed and
the Monte Carlo / sweep seed, and has a stored reference digest.  The grid
seeds of a grid size were chosen so every variant draws the same work: they
are the first seeds, counting up from 0, whose functional blocks cover a
number of bottom-layer nodes within 0.5% of the median over seeds 0..2999
(``make_references.py --check-seeds`` re-derives them).  The number of
current sources -- which sets the excitation cost -- otherwise varies by
+-20% between grid seeds, which would read as timing noise across seeds.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

import digest as digests

#: Input variants per workload; the benchmark seed selects ``seed % VARIANTS``.
VARIANTS = 4

#: Equal-work grid seeds per target node count (see the module docstring).
GRID_SEEDS = {
    2500: (54, 59, 124, 220),
    12000: (24, 135, 220, 270),
    25700: (24, 36, 59, 196),
}

#: Transient of every workload: 12 steps of 0.2 ns.
STEPS = 12
DT = 0.2e-9

MC_SAMPLES = 20
CHAOS_ORDER = 2
SWEEP_CORNERS = ("paper", "wide", "tight", "rhs-only", "rhs-wide", "rhs-tight")
SWEEP_ENGINES = ("opera", "mor", "deterministic")


@dataclasses.dataclass(frozen=True)
class Variant:
    """The inputs one benchmark seed selects for one workload."""

    index: int
    grid_seed: int
    #: Monte Carlo seed (``mc-2k5``) or sweep plan base seed (``corner-sweep``).
    run_seed: int


def transient():
    from repro.sim.transient import TransientConfig

    return TransientConfig(t_stop=STEPS * DT, dt=DT)


class Result(NamedTuple):
    """Per-node mean voltage and std, shape ``(times, nodes)``, of one analysis."""

    label: str
    engine: str
    corner: str
    mean: np.ndarray
    std: np.ndarray
    vdd: float


@dataclasses.dataclass
class Outcome:
    """What an analysis leaves in memory: its results plus counts for the trace."""

    results: List[Result]
    facts: Dict[str, float] = dataclasses.field(default_factory=dict)


class Workload:
    """One workload: ``setup`` (repeatable) then the timed ``analyse``."""

    name = ""
    nodes = 0
    #: How often the set-up is repeated inside one process (median reported).
    setup_repeats = 1
    #: How often the analysis is timed inside one process (median reported);
    #: more than 1 only where every pass does the same work.
    analysis_repeats = 1
    #: Tolerance and error scale of the check (see ``digest.py``).
    rtol = digests.SEED_STATE_RTOL
    scale = "drop"

    def variant(self, seed: int) -> Variant:
        index = int(seed) % VARIANTS
        return Variant(index, GRID_SEEDS[self.nodes][index], 1000 + index)

    def setup(self, variant: Variant, scratch: Path):
        raise NotImplementedError

    def setup_outcomes(self, state) -> List[Outcome]:
        """Results a set-up state holds that need checking too."""
        return []

    def analyse(self, state, variant: Variant, scratch: Path) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome, reference: Dict) -> Tuple[int, List[str]]:
        """``(results checked, one message per failed result)`` against the reference."""
        failures = []
        for result in outcome.results:
            expected = reference.get(result.label)
            if expected is None:
                failures.append(f"{result.label}: no reference digest")
                continue
            found = _compare(expected, result, self.rtol, self.scale)
            if found:
                failures.append(f"{result.label}: " + "; ".join(found))
        return len(outcome.results), failures


class SingleAnalysis(Workload):
    """Grid generation, stamping and the stochastic-system build, then one engine."""

    engine = ""
    options: Dict = {}

    def setup(self, variant: Variant, scratch: Path):
        from repro.grid.generator import generate_power_grid, spec_for_node_count
        from repro.grid.stamping import stamp
        from repro.variation.model import VariationSpec, build_stochastic_system

        netlist = generate_power_grid(spec_for_node_count(self.nodes, seed=variant.grid_seed))
        stamped = stamp(netlist)
        system = build_stochastic_system(stamped, VariationSpec.paper_defaults())
        return netlist, stamped, system

    def run_options(self, variant: Variant) -> Dict:
        return dict(self.options)

    def analyse(self, state, variant: Variant, scratch: Path) -> Outcome:
        from repro.api import Analysis

        netlist, stamped, system = state
        session = Analysis(netlist, stamped=stamped, system=system, transient=transient())
        view = session.run(self.engine, **self.run_options(variant))
        mean, std = view.mean(), view.std()
        facts = {"grid.nodes": stamped.num_nodes, "grid.sources": len(stamped.source_nodes)}
        return Outcome([Result(self.name, self.engine, "paper", mean, std, system.vdd)], facts)


class MonteCarlo2k5(SingleAnalysis):
    name = "mc-2k5"
    nodes = 2500
    setup_repeats = 10
    engine = "montecarlo"

    def run_options(self, variant: Variant) -> Dict:
        return {"samples": MC_SAMPLES, "seed": variant.run_seed, "solver": "direct", "workers": 1}


class Opera12k(SingleAnalysis):
    name = "opera-12k"
    nodes = 12000
    setup_repeats = 3
    engine = "opera"
    options = {"order": CHAOS_ORDER}


class Mor25k(SingleAnalysis):
    """Checked against the exact ``hierarchical`` engine at the mor accuracy gate."""

    name = "mor-25k"
    nodes = 25700
    setup_repeats = 3
    engine = "mor"
    options = {"order": CHAOS_ORDER}
    rtol = digests.MOR_RTOL
    scale = "voltage"


class CornerSweep(Workload):
    """Set-up is the cold first pass; the timed analysis is a warm later pass.

    Every warm pass finds the same caches filled, so the worker times three
    of them (each into a fresh store) and reports their median.
    """

    name = "corner-sweep"
    nodes = 2500
    analysis_repeats = 3

    def plan(self, variant: Variant):
        from repro.sweep import SweepCase, SweepPlan

        cases = tuple(
            SweepCase(
                engine=engine,
                nodes=self.nodes,
                grid_seed=variant.grid_seed,
                order=CHAOS_ORDER if engine != "deterministic" else None,
                corner=corner,
            ).with_derived_seed(variant.run_seed)
            for corner in SWEEP_CORNERS
            for engine in SWEEP_ENGINES
        )
        return SweepPlan(cases=cases, transient=transient(), base_seed=variant.run_seed)

    def _pass(self, runner, plan, store: Path) -> Outcome:
        from repro.sweep import ShardedNpzBackend

        outcome = runner.run(plan, store=ShardedNpzBackend(store))
        # The outcome is a lazy view of the store: read every case once.
        cases = list(outcome)
        results = [
            Result(case.name, case.engine, case.corner, case.mean, case.std, case.vdd)
            for case in cases
        ]
        facts = {
            "sweep.cases": outcome.executed,
            "sweep.reused_factorization_cases": sum(
                1 for case in cases if case.reused_factorization
            ),
        }
        return Outcome(results, facts)

    def setup(self, variant: Variant, scratch: Path):
        from repro.sweep import SweepRunner

        runner = SweepRunner(workers=1, batch=True, retain_sessions=True, keep_statistics=True)
        plan = self.plan(variant)
        cold = self._pass(runner, plan, scratch / "cold-store")
        return runner, plan, cold

    def setup_outcomes(self, state) -> List[Outcome]:
        return [state[2]]

    def analyse(self, state, variant: Variant, scratch: Path) -> Outcome:
        runner, plan, _ = state
        return self._pass(runner, plan, scratch / "warm-store")

    def check(self, outcome: Outcome, reference: Dict) -> Tuple[int, List[str]]:
        """opera/deterministic cases against the seed state; mor cases against
        the same corner's opera case (exact Galerkin) at the mor accuracy gate."""
        exact = [result for result in outcome.results if result.engine != "mor"]
        checked, failures = super().check(Outcome(exact), reference)
        opera = {result.corner: result for result in exact if result.engine == "opera"}
        for result in outcome.results:
            if result.engine != "mor":
                continue
            checked += 1
            base = opera.get(result.corner)
            if base is None:
                failures.append(f"{result.label}: no opera case of the same corner")
                continue
            expected = digests.make_digest(base.mean, base.std, base.vdd)
            found = _compare(expected, result, digests.MOR_RTOL, "voltage")
            if found:
                failures.append(f"{result.label}: " + "; ".join(found))
        return checked, failures


def _compare(expected: Dict, result: Result, rtol: float, scale: str) -> List[str]:
    candidate = digests.digest_at(expected, result.mean, result.std, result.vdd)
    return digests.compare(expected, candidate, rtol, scale)


WORKLOADS = {
    workload.name: workload
    for workload in (MonteCarlo2k5(), Opera12k(), Mor25k(), CornerSweep())
}

