"""The ``hierarchical`` analysis engine: partitioned OPERA.

The engine runs the paper's stochastic Galerkin analysis through the
Schur-complement machinery of this package instead of a monolithic
factorisation.  Because every parameter matrix of the affine variation
model shares the grid's sparsity, the augmented (Galerkin) system inherits
the grid's partition structure exactly: if node sets ``I_1 .. I_A`` are
mutually decoupled interiors of the grid, the index sets
``{j * n + i : i in I_k}`` (all chaos blocks ``j``) are mutually decoupled
interiors of the augmented system.  The engine therefore

1. tiles the grid into a *fixed* set of fine blocks ("atoms"),
2. lifts the tiling to the augmented system,
3. condenses every atom onto its interface ports (exact Schur reduction),
4. time-marches the reduced interface system, back-substituting every
   atom's interior chaos coefficients per step, and
5. reassembles the node statistics from the per-atom solutions.

Determinism contract
--------------------
The atom tiling depends only on the grid (see
:func:`~repro.partition.partitioner.default_atom_count`), *never* on the
requested partition count or worker count.  ``partitions=K`` groups the
atoms into ``K`` schedule units -- the two-level hierarchy grid -> groups ->
atoms -- and ``workers=W`` fans those groups over a process pool
(:mod:`repro.partition.workers`).  Per-atom arithmetic is identical on every
schedule and group results are folded in fixed atom order, so the returned
statistics are **bit-identical for every K and every W**.  Overriding
``atoms=`` changes the tiling (and therefore the floating-point path); the
result still matches the monolithic ``opera`` engine to solver precision.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..api.engines import (
    _check_mode,
    _reject_unknown,
    _resolve_transient,
    register_engine,
)
from ..api.result import StochasticResultView
from ..chaos.galerkin import GalerkinSystem
from ..chaos.response import StochasticField, StochasticTransientResult
from ..errors import AnalysisError
from ..sim.transient import TransientConfig
from ..variation.model import StochasticSystem
from .partitioner import (
    GridPartition,
    augment_partition,
    default_atom_count,
    node_coordinates,
    partition_matrix,
    union_structure,
)
from ..stepping import SchurSystemAdapter, StepLoop
from .schur import SchurComplement
from .workers import split_groups

__all__ = [
    "system_partition",
    "run_hierarchical_transient",
    "run_hierarchical_dc",
]


def system_partition(system: StochasticSystem, num_atoms: Optional[int] = None) -> GridPartition:
    """The engine's fixed fine tiling of a stochastic system's node set.

    The separator is computed against the union sparsity of the nominal
    matrices *and every sensitivity matrix*, so no coupling of any germ
    realisation crosses two interiors.  Generator-style node names enable
    coordinate bisection; other netlists fall back to graph bisection.
    """
    if num_atoms is None:
        num_atoms = default_atom_count(system.num_nodes)
    structure = union_structure(
        system.g_nominal,
        system.c_nominal,
        *system.g_sensitivities.values(),
        *system.c_sensitivities.values(),
    )
    coords = None
    if system.node_names is not None:
        coords = node_coordinates(system.node_names)
    return partition_matrix(structure, num_atoms, coords=coords)


def run_hierarchical_transient(
    system: StochasticSystem,
    galerkin: GalerkinSystem,
    transient: TransientConfig,
    partition: Optional[GridPartition] = None,
    atoms: Optional[int] = None,
    partitions: Optional[int] = None,
    workers: int = 1,
    solver: Optional[str] = None,
    store_coefficients: bool = False,
) -> StochasticTransientResult:
    """Partitioned stochastic Galerkin transient (exact Schur reduction).

    Parameters
    ----------
    system, galerkin:
        The stochastic system and its assembled augmented Galerkin system.
    transient:
        Time axis and integration scheme (matches ``run_transient``).
    partition:
        Optional node partition; defaults to :func:`system_partition`.
    atoms:
        Fine-tiling override (changes the floating-point path; see the
        module docstring).
    partitions:
        Schedule group count ``K`` (default: one group per atom).  Purely a
        scheduling parameter: results are bit-identical for every value.
    workers:
        Worker processes for per-block work; ``1`` runs in-process.
    solver:
        Step-solver backend: ``"schur"`` (default, exact reduction) or a
        registered iterative backend such as ``"cg"``, which runs
        matrix-free on the stepping operator and is warm-started across
        steps by the shared loop.
    store_coefficients:
        Keep the full chaos-coefficient tensor (memory-hungry on large
        grids); by default only mean/variance waveforms are stored.
    """
    if workers < 1:
        raise AnalysisError(f"workers must be at least 1, got {workers}")
    if partitions is not None and partitions < 1:
        raise AnalysisError(f"partitions must be at least 1, got {partitions}")
    started = time.perf_counter()
    basis = galerkin.basis
    num_nodes = system.num_nodes
    if partition is None:
        partition = system_partition(system, num_atoms=atoms)
    augmented = augment_partition(partition, basis.size)

    atom_ids = [k for k, interior in enumerate(partition.interiors) if interior.size]
    groups = split_groups(atom_ids, partitions if partitions is not None else len(atom_ids))
    adapter = SchurSystemAdapter(
        galerkin,
        augmented,
        groups=groups,
        workers=workers,
        solver=solver if solver is not None else "schur",
    )

    times = transient.times()
    if store_coefficients:
        coefficients = np.zeros((times.size, basis.size, num_nodes))
    else:
        mean = np.zeros((times.size, num_nodes))
        variance = np.zeros((times.size, num_nodes))

    def collect(step: int, t: float, stacked: np.ndarray) -> None:
        blocks = stacked.reshape(basis.size, num_nodes)
        if store_coefficients:
            coefficients[step] = blocks
        else:
            mean[step] = blocks[0]
            if basis.size > 1:
                variance[step] = np.sum(blocks[1:] ** 2, axis=0)

    with adapter:
        StepLoop(adapter, transient.scheme, times, transient.dt).run(
            callback=collect, store=False
        )

    elapsed = time.perf_counter() - started
    if store_coefficients:
        result = StochasticTransientResult(
            times=times,
            basis=basis,
            vdd=system.vdd,
            coefficients=coefficients,
            node_names=system.node_names,
            wall_time=elapsed,
        )
    else:
        result = StochasticTransientResult(
            times=times,
            basis=basis,
            vdd=system.vdd,
            mean=mean,
            variance=variance,
            node_names=system.node_names,
            wall_time=elapsed,
        )
    interface_nodes, factor_time = adapter.interface_stats()
    result.partition_stats = _schedule_stats(
        partition, groups, workers, interface_nodes, factor_time
    )
    return result


def run_hierarchical_dc(
    system: StochasticSystem,
    galerkin: GalerkinSystem,
    t: float = 0.0,
    partition: Optional[GridPartition] = None,
    atoms: Optional[int] = None,
) -> StochasticField:
    """Partitioned stochastic DC analysis (one exact Schur solve)."""
    basis = galerkin.basis
    if partition is None:
        partition = system_partition(system, num_atoms=atoms)
    augmented = augment_partition(partition, basis.size)
    schur = SchurComplement(galerkin.conductance.tocsr(), augmented)
    solution = schur.solve(galerkin.rhs(float(t)))
    coefficients = solution.reshape(basis.size, system.num_nodes)
    field = StochasticField(basis, coefficients, vdd=system.vdd, node_names=system.node_names)
    field.partition_stats = _schedule_stats(
        partition,
        [list(range(partition.num_parts))],
        1,
        int(schur.partition.boundary.size),
        float(schur.factor_time),
    )
    return field


def _schedule_stats(partition, groups, workers, interface_nodes, factor_time_s) -> dict:
    return {
        **partition.stats(),
        "groups": len(groups),
        "workers": int(workers),
        "augmented_interface_nodes": int(interface_nodes),
        "factor_time_s": float(factor_time_s),
    }


@register_engine("hierarchical")
def _run_hierarchical_engine(session, mode: Optional[str] = None, **options):
    """Partitioned stochastic Galerkin analysis (Schur port reduction).

    Options: ``order`` (chaos order, default 2), ``partitions`` (schedule
    group count ``K``), ``workers`` (process-pool fan-out of per-block
    work), ``atoms`` (fine-tiling override), ``solver`` (step backend:
    ``"schur"`` or an iterative backend like ``"cg"``, transient
    mode only), ``store_coefficients``, time axis overrides
    (``t_stop``/``dt``/``scheme``/...), and ``t`` in DC mode.
    Statistics are bit-identical for every ``partitions``/``workers``
    setting; see :mod:`repro.partition.engine`.
    """
    mode = mode or "transient"
    _check_mode("hierarchical", mode, ("transient", "dc"))
    order = int(options.pop("order", 2))
    partitions = options.pop("partitions", None)
    if partitions is not None:
        partitions = int(partitions)
    atoms = options.pop("atoms", None)
    if atoms is not None:
        atoms = int(atoms)
    workers = int(options.pop("workers", 1))
    solver = options.pop("solver", None)
    system = session.system
    galerkin = session.galerkin(order)

    if mode == "dc":
        if partitions is not None or workers != 1 or solver is not None:
            raise AnalysisError(
                "hierarchical dc mode performs a single serial Schur solve; "
                "'partitions', 'workers' and 'solver' only apply to "
                "transient mode"
            )
        t = float(options.pop("t", 0.0))
        _reject_unknown(options, "hierarchical", mode)
        started = time.perf_counter()
        field = run_hierarchical_dc(system, galerkin, t=t, atoms=atoms)
        elapsed = time.perf_counter() - started
        view = StochasticResultView("hierarchical", "dc", field, system.vdd, wall_time=elapsed)
        view.partition_stats = field.partition_stats
        return view

    transient = _resolve_transient(session, options)
    store_coefficients = bool(options.pop("store_coefficients", False))
    _reject_unknown(options, "hierarchical", mode)
    result = run_hierarchical_transient(
        system,
        galerkin,
        transient,
        atoms=atoms,
        partitions=partitions,
        workers=workers,
        solver=solver,
        store_coefficients=store_coefficients,
    )
    view = StochasticResultView("hierarchical", "transient", result, system.vdd)
    view.transient = transient
    view.partition_stats = result.partition_stats
    return view
