"""Schur-complement port reduction of partitioned MNA systems.

Ordering the unknowns as ``[interior_1, ..., interior_K, interface]`` turns
the system matrix into the arrow form

``A = [[A_II, A_IB], [A_BI, A_BB]]``  with block-diagonal ``A_II``,

because a :class:`~repro.partition.partitioner.GridPartition` guarantees no
edge couples two different interiors.  Eliminating every interior block
independently condenses the system onto its interface (the *ports*):

``S = A_BB - sum_k A_BI,k A_II,k^{-1} A_IB,k``

The interface system ``S x_B = b_B - sum_k A_BI,k A_II,k^{-1} b_I,k`` is
solved once, and interiors are recovered exactly by back-substitution
``x_I,k = A_II,k^{-1} b_I,k - Y_k x_B`` with the precomputed port response
``Y_k = A_II,k^{-1} A_IB,k``.  The result equals a monolithic direct solve
to machine precision -- this is a reordered factorisation, not an
approximation.

:class:`SchurSolver` packages the reduction as a registered linear-solver
backend: ``make_solver(matrix, method="schur", num_parts=K)``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError
from ..sim.linear import DenseFactor, DirectSolver, LinearSolver, register_solver
from ..telemetry import current_telemetry
from .partitioner import GridPartition, partition_matrix

__all__ = [
    "AtomEliminator",
    "SerialAtomBackend",
    "SchurComplement",
    "SchurSolver",
]


class AtomEliminator:
    """Per-block elimination machinery: factor ``A_II,k``, condense, solve.

    The same class runs in the driver process (serial backend) and inside
    pool workers (:mod:`repro.partition.workers`), so the arithmetic -- and
    therefore every bit of the result -- is identical wherever a block is
    processed.
    """

    def __init__(self, matrix: sp.csr_matrix, interior: np.ndarray, boundary: np.ndarray):
        self.interior = np.asarray(interior, dtype=int)
        rows = matrix[self.interior]
        interior_block = rows[:, self.interior]
        to_boundary = sp.csr_matrix(rows[:, boundary])
        from_boundary = sp.csr_matrix(matrix[boundary][:, self.interior])
        # Restrict to the block's *local* ports: interface nodes actually
        # coupled to this interior (structurally, in either direction).
        local = np.union1d(
            np.unique(to_boundary.tocoo().col)
            if to_boundary.nnz
            else np.empty(0, dtype=int),
            np.unique(from_boundary.tocoo().row)
            if from_boundary.nnz
            else np.empty(0, dtype=int),
        ).astype(int)
        self.local_ports = local
        self._to_local = sp.csc_matrix(to_boundary)[:, local]
        self._from_local = sp.csr_matrix(from_boundary)[local, :]
        self._lu = DirectSolver(interior_block)

    def condense(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(Y_k, W_k, local_ports)``: port response and S-contribution."""
        if self.local_ports.size:
            response = self._lu.solve_many(self._to_local.toarray())
            response = np.atleast_2d(response.T).T
        else:
            response = np.empty((self.interior.size, 0))
        contribution = self._from_local @ response
        return response, np.asarray(contribution), self.local_ports

    def eliminate(self, b_interior: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Forward-eliminate one (or many) right-hand sides.

        Returns ``(z_k, g_k)`` with ``z_k = A_II,k^{-1} b_I,k`` and the local
        interface contribution ``g_k = A_BI,k z_k``.
        """
        z = self._lu.solve_many(b_interior)
        return z, self._from_local @ z


class SerialAtomBackend:
    """In-process block backend: builds and keeps every :class:`AtomEliminator`."""

    def __init__(self, matrix: sp.csr_matrix, partition: GridPartition):
        self._eliminators: Dict[int, AtomEliminator] = {
            k: AtomEliminator(matrix, interior, partition.boundary)
            for k, interior in enumerate(partition.interiors)
            if interior.size
        }

    def condense(self, atom_ids: Sequence[int]) -> Dict[int, Tuple]:
        return {k: self._eliminators[k].condense() for k in atom_ids}

    def eliminate(
        self, atom_ids: Sequence[int], b_slices: Sequence[np.ndarray]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [self._eliminators[k].eliminate(b) for k, b in zip(atom_ids, b_slices)]


class SchurComplement:
    """Exact block factorisation of a partitioned sparse system.

    Parameters
    ----------
    matrix:
        The (square) system matrix.
    partition:
        A :class:`GridPartition` of its index set; interiors must not be
        coupled to each other (guaranteed when the partition was built
        against this matrix's structure -- pass ``validate=True`` to check).
    backend:
        Optional block backend (defaults to in-process elimination); the
        hierarchical engine substitutes a process-pool backend here.
    validate:
        Verify the separator property against ``matrix`` before factoring.

    Interior blocks are factored by :class:`~repro.sim.linear.DirectSolver`
    and the dense interface Schur complement by
    :class:`~repro.sim.linear.DenseFactor`: Cholesky when it is symmetric
    (to :data:`~repro.sim.linear.DENSE_SYMMETRY_RTOL`) and positive
    definite, LU otherwise.  ``cholesky`` records which.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        partition: GridPartition,
        backend=None,
        validate: bool = False,
    ):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise SolverError("Schur reduction requires a square matrix")
        if matrix.shape[0] != partition.num_nodes:
            raise SolverError(
                f"matrix is {matrix.shape[0]}x{matrix.shape[1]} but the "
                f"partition covers {partition.num_nodes} nodes"
            )
        if validate:
            partition.validate_against(matrix)
        started = time.perf_counter()
        self.shape = matrix.shape
        self.partition = partition
        self._boundary = partition.boundary
        self._atom_ids = [k for k, interior in enumerate(partition.interiors) if interior.size]
        self._backend = backend if backend is not None else SerialAtomBackend(matrix, partition)

        # Condense every block onto its ports; the reduction order over
        # blocks is fixed (ascending block id) for bitwise reproducibility.
        with current_telemetry().span(
            "schur.factor", phase="factor", solver="schur", blocks=len(self._atom_ids)
        ) as span:
            condensed = self._backend.condense(self._atom_ids)
            self._responses: Dict[int, np.ndarray] = {}
            self._local_ports: Dict[int, np.ndarray] = {}
            num_ports = self._boundary.size
            interface = matrix[self._boundary][:, self._boundary].toarray()
            for k in self._atom_ids:
                response, contribution, local = condensed[k]
                self._responses[k] = response
                self._local_ports[k] = local
                if local.size:
                    interface[np.ix_(local, local)] -= contribution
            self._interface = DenseFactor(interface) if num_ports else None
            self.cholesky = bool(num_ports) and self._interface.cholesky
            span.annotate(cholesky=self.cholesky)
        self.factor_time = time.perf_counter() - started
        self.stats = {
            "method": "schur",
            "size": int(self.shape[0]),
            "factor_time_s": float(self.factor_time),
            **partition.stats(),
        }

    # ------------------------------------------------------------------ solve
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        single = rhs.ndim == 1
        columns = rhs[:, None] if single else rhs
        if columns.shape[0] != self.shape[0]:
            raise SolverError(
                f"right-hand side has length {columns.shape[0]}, "
                f"expected {self.shape[0]}"
            )
        solution = self._solve_columns(columns)
        return solution[:, 0] if single else solution

    def solve_many(self, rhs_columns: np.ndarray) -> np.ndarray:
        return self.solve(rhs_columns)

    def _solve_columns(self, columns: np.ndarray) -> np.ndarray:
        interiors = self.partition.interiors
        boundary = self._boundary
        b_slices = [columns[interiors[k]] for k in self._atom_ids]
        eliminated = self._backend.eliminate(self._atom_ids, b_slices)

        reduced = columns[boundary].copy()
        for k, (_, g_local) in zip(self._atom_ids, eliminated):
            local = self._local_ports[k]
            if local.size:
                reduced[local] -= g_local
        if boundary.size:
            ports = self._interface.solve(reduced)
        else:
            ports = reduced

        solution = np.empty_like(columns)
        solution[boundary] = ports
        for k, (z, _) in zip(self._atom_ids, eliminated):
            local = self._local_ports[k]
            interior_solution = z
            if local.size:
                interior_solution = z - self._responses[k] @ ports[local]
            solution[interiors[k]] = interior_solution
        if not np.all(np.isfinite(solution)):
            raise SolverError("Schur solve produced non-finite values")
        return solution


class SchurSolver(LinearSolver):
    """Schur-complement direct solver, registered as the ``"schur"`` backend.

    Parameters
    ----------
    matrix:
        The system matrix.
    num_parts:
        Number of blocks to cut the system into (default 4).  More blocks
        shrink the per-block factorisations but grow the interface.
    partition:
        A precomputed :class:`GridPartition` (overrides ``num_parts``); must
        be a valid separator partition for ``matrix``.
    coords:
        Optional node coordinates enabling coordinate bisection (otherwise
        deterministic graph bisection on the matrix structure is used).

    The solver exposes partition and factorisation diagnostics as ``stats``.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        num_parts: int = 4,
        partition: Optional[GridPartition] = None,
        coords: Optional[np.ndarray] = None,
    ):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise SolverError("Schur reduction requires a square matrix")
        supplied = partition is not None
        if partition is None:
            partition = partition_matrix(matrix, num_parts, coords=coords)
        # Self-built partitions are separators by construction; only a
        # caller-supplied partition needs checking against this matrix.
        self._schur = SchurComplement(matrix, partition, validate=supplied)
        self.shape = matrix.shape
        self.partition = self._schur.partition
        self.stats = self._schur.stats

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._schur.solve(rhs)

    def solve_many(self, rhs_columns: np.ndarray) -> np.ndarray:
        return self._schur.solve_many(rhs_columns)


@register_solver("schur")
def _build_schur(matrix: sp.spmatrix, **options) -> SchurSolver:
    return SchurSolver(matrix, **options)
