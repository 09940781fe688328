"""Hierarchical partitioned power-grid analysis.

This package adds a divide-and-conquer layer on top of the monolithic
engines: a deterministic graph partitioner
(:mod:`~repro.partition.partitioner`), exact Schur-complement port
reduction (:mod:`~repro.partition.schur`), process-pool block workers
(:mod:`~repro.partition.workers`) and the ``hierarchical`` analysis engine
(:mod:`~repro.partition.engine`).

Importing the package registers the ``schur`` solver backend and the
``hierarchical`` engine::

    from repro.api import Analysis
    from repro.sim.linear import make_solver

    solver = make_solver(matrix, method="schur", num_parts=4)
    result = Analysis.from_spec(2500).run("hierarchical", partitions=4)

(:mod:`repro.api` imports this package, so going through the facade or the
CLI makes the backend available automatically.)
"""

from .engine import (
    run_hierarchical_dc,
    run_hierarchical_transient,
    system_partition,
)
from .partitioner import (
    GridPartition,
    augment_partition,
    coordinate_bisection,
    default_atom_count,
    graph_bisection,
    node_coordinates,
    partition_matrix,
    partition_system,
    union_structure,
)
from .schur import SchurComplement, SchurSolver
from .workers import HierarchicalWorkerPool, split_groups

__all__ = [
    "GridPartition",
    "coordinate_bisection",
    "graph_bisection",
    "node_coordinates",
    "partition_matrix",
    "partition_system",
    "union_structure",
    "augment_partition",
    "default_atom_count",
    "SchurComplement",
    "SchurSolver",
    "HierarchicalWorkerPool",
    "split_groups",
    "system_partition",
    "run_hierarchical_transient",
    "run_hierarchical_dc",
]
