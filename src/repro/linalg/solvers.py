"""Block-preconditioned CG backends for the augmented Galerkin system.

``mean-block-cg``: matrix-free CG with an ``I_P (x) M0^{-1}`` preconditioner.
The augmented Galerkin stepping operator ``G~ + C~/h`` is, to first order,
block-diagonal: its ``(j, j)`` chaos block equals the nominal step matrix
``M0 = G_0 + C_0/h`` and the off-diagonal coupling is scaled by the (small)
process-variation sensitivities.  One sparse LU of the ``n x n`` mean block
therefore preconditions the whole ``P n x P n`` system extremely well, and
because the preconditioner is ``I_P (x) M0^{-1}``, applying it to a stacked
residual is a *single* 2-D SuperLU solve over all ``P`` chaos blocks at
once -- not ``P`` separate back-substitutions.

Combined with the matrix-free :class:`~repro.linalg.operator.KronSumOperator`
application, every CG iteration costs ``O(sum_m nnz(A_m) P)`` plus one
``n x n`` back-substitution per chaos block, so the solve scales with the
grid fill instead of the factorisation fill of the explicit Kronecker sum.

``degree-block-cg``: the block-diagonal per-chaos-degree variant.  For wide
germ vectors the coupling between the mean and the (large) first-order
degree group dominates the off-block-diagonal mass that ``mean-block-cg``
ignores.  This backend partitions the chaos indices into contiguous bands
of consecutive total degrees (``band_degrees`` per band, default 2 so the
leading band is ``{degree 0, degree 1}``), factorises each band's *exact*
sub-matrix ``sum_m T_m[J, J] (x) A_m`` once, and applies the block-diagonal
of those factorisations as the preconditioner.  Within-band coupling --
including the dominant mean<->first-order terms -- is then handled exactly,
at the cost of larger band factorisations.  (For symmetric germs the
orthogonality relations zero all *within-degree* coupling of an affine
parameter model, which is why bands pair adjacent degrees rather than
splitting per degree; ``band_degrees=1`` gives the pure per-degree variant.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import SolverError
from ..sim.linear import PreconditionedCGSolver, register_solver
from ..telemetry import current_telemetry
from .operator import KronSumOperator, is_operator, kron_sum_csr

__all__ = ["MeanBlockCGSolver", "DegreeBlockCGSolver"]


class MeanBlockCGSolver(PreconditionedCGSolver):
    """Conjugate gradients on a Kronecker-sum operator, preconditioned by
    one LU of the mean (nominal) block applied to all chaos blocks at once.

    Parameters
    ----------
    operator:
        A :class:`~repro.linalg.operator.KronSumOperator` (the natural
        input), or an explicit sparse matrix together with ``num_nodes``
        so the ``n x n`` mean block can be sliced out of the top-left
        corner.
    num_nodes:
        Block size ``n``; required only for explicit-matrix input.
    mean_block:
        Optional override of the preconditioner matrix ``M0`` (defaults to
        the operator's :meth:`~repro.linalg.operator.KronSumOperator.mean_block`).
    rtol, maxiter:
        CG convergence tolerance and iteration cap; non-convergence raises
        :class:`~repro.errors.ConvergenceError`.  The default is tight
        (``1e-14``): the mean-block preconditioner converges in ~10
        iterations anyway (tightening from 1e-13 costs about one more), and
        the tight tolerance keeps the matrix-free transient within ~1e-10
        of the explicit direct solve -- the accuracy contract the engine
        tests and the operator benchmark pin down.

    Every solve updates ``stats`` (solve/iteration counters and the true
    final relative residual), matching the diagnostics contract of the
    other iterative backends.
    """

    method_name = "mean-block-cg"
    error_label = "mean-block CG"

    def __init__(
        self,
        operator: Union[KronSumOperator, sp.spmatrix],
        num_nodes: Optional[int] = None,
        mean_block: Optional[sp.spmatrix] = None,
        rtol: float = 1e-14,
        maxiter: int = 2000,
    ):
        if is_operator(operator):
            self._operator = operator
            self._apply = operator.as_linear_operator()
            self.basis_size = operator.basis_size
            self.num_nodes = operator.num_nodes
            if mean_block is None:
                mean_block = operator.mean_block()
        else:
            matrix = sp.csr_matrix(operator)
            if matrix.shape[0] != matrix.shape[1]:
                raise SolverError("mean-block-cg requires a square system")
            if num_nodes is None:
                raise SolverError(
                    "mean-block-cg needs a KronSumOperator (lazy Galerkin "
                    "assembly) or an explicit matrix plus num_nodes=<block "
                    "size> to locate the mean block"
                )
            num_nodes = int(num_nodes)
            if num_nodes <= 0 or matrix.shape[0] % num_nodes:
                raise SolverError(
                    f"block size {num_nodes} does not tile a system of "
                    f"dimension {matrix.shape[0]}"
                )
            self._operator = matrix
            self._apply = spla.aslinearoperator(matrix)
            self.num_nodes = num_nodes
            self.basis_size = matrix.shape[0] // num_nodes
            if mean_block is None:
                mean_block = matrix[: self.num_nodes, : self.num_nodes]
        self.shape = (
            self.basis_size * self.num_nodes,
            self.basis_size * self.num_nodes,
        )
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)

        mean_block = sp.csc_matrix(mean_block)
        if mean_block.shape != (self.num_nodes, self.num_nodes):
            raise SolverError(
                f"mean block has shape {mean_block.shape}, expected "
                f"({self.num_nodes}, {self.num_nodes})"
            )
        try:
            with current_telemetry().span(
                "solver.factor", phase="factor", solver=self.method_name
            ):
                self._mean_lu = spla.splu(mean_block)
        except RuntimeError as exc:  # singular mean block
            raise SolverError(f"mean-block LU factorisation failed: {exc}") from exc
        self._configure_cg(
            self._apply,
            residual_target=self._operator,
            preconditioner=spla.LinearOperator(
                self.shape, matvec=self._apply_mean_inverse, dtype=float
            ),
        )

    def _apply_mean_inverse(self, residual: np.ndarray) -> np.ndarray:
        """``(I_P (x) M0^{-1}) r``: one 2-D solve over all chaos blocks."""
        blocks = np.asarray(residual, dtype=float).reshape(self.basis_size, self.num_nodes)
        return self._mean_lu.solve(blocks.T).T.ravel()


@register_solver("mean-block-cg")
def _build_mean_block_cg(matrix, **options) -> MeanBlockCGSolver:
    return MeanBlockCGSolver(matrix, **options)


#: Consumed by :func:`repro.sim.linear.make_solver`: this backend takes lazy
#: operators as-is instead of having them materialised to CSR first.
_build_mean_block_cg.accepts_operator = True


def _degree_bands(degrees: np.ndarray, band_degrees: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` index bands grouping consecutive degrees.

    Requires the graded ordering every :class:`PolynomialChaosBasis` uses
    (degrees non-decreasing), so each band is a contiguous slice of the
    stacked chaos blocks.
    """
    degrees = np.asarray(degrees, dtype=int)
    if degrees.ndim != 1 or degrees.size == 0:
        raise SolverError("degrees must be a non-empty 1-D integer array")
    if np.any(np.diff(degrees) < 0):
        raise SolverError(
            "degrees must be non-decreasing (the graded chaos-basis order); "
            "pass basis.degrees"
        )
    band_ids = degrees // int(band_degrees)
    bands: List[Tuple[int, int]] = []
    start = 0
    for index in range(1, degrees.size + 1):
        if index == degrees.size or band_ids[index] != band_ids[start]:
            bands.append((start, index))
            start = index
    return bands


class DegreeBlockCGSolver(PreconditionedCGSolver):
    """CG preconditioned by exact block LUs over chaos-degree bands.

    Parameters
    ----------
    operator:
        A :class:`~repro.linalg.operator.KronSumOperator` (the natural
        input -- band sub-matrices are assembled from the restricted
        Kronecker factors), or an explicit sparse matrix together with
        ``num_nodes``.
    degrees:
        Total degree of every chaos basis function, in basis order
        (``basis.degrees``); must be non-decreasing (graded order) so the
        bands are contiguous.  The engines thread this automatically when
        the backend is selected by name.
    num_nodes:
        Block size ``n``; required only for explicit-matrix input.
    band_degrees:
        Consecutive total degrees per preconditioner band (default 2: the
        leading band couples the mean with the full first-order group).
        ``1`` is the pure per-degree variant.
    rtol, maxiter:
        CG convergence tolerance and iteration cap (the same tight default
        as ``mean-block-cg``; the accuracy contract is shared).

    Every solve updates ``stats``; the band layout is reported as
    ``band_sizes`` (chaos indices per band).
    """

    method_name = "degree-block-cg"
    error_label = "degree-block CG"

    def __init__(
        self,
        operator: Union[KronSumOperator, sp.spmatrix],
        degrees: Optional[Sequence[int]] = None,
        num_nodes: Optional[int] = None,
        band_degrees: int = 2,
        rtol: float = 1e-14,
        maxiter: int = 2000,
    ):
        if degrees is None:
            raise SolverError(
                "degree-block-cg needs the chaos degrees of the basis "
                "(degrees=basis.degrees); the opera engine threads them "
                "automatically when the backend is selected by name"
            )
        band_degrees = int(band_degrees)
        if band_degrees < 1:
            raise SolverError(f"band_degrees must be at least 1, got {band_degrees}")
        degrees = np.asarray(degrees, dtype=int)

        if is_operator(operator):
            self._operator = operator
            self._apply = operator.as_linear_operator()
            self.basis_size = operator.basis_size
            self.num_nodes = operator.num_nodes
        else:
            matrix = sp.csr_matrix(operator)
            if matrix.shape[0] != matrix.shape[1]:
                raise SolverError("degree-block-cg requires a square system")
            if num_nodes is None:
                raise SolverError(
                    "degree-block-cg needs a KronSumOperator (lazy Galerkin "
                    "assembly) or an explicit matrix plus num_nodes=<block "
                    "size> to locate the chaos blocks"
                )
            num_nodes = int(num_nodes)
            if num_nodes <= 0 or matrix.shape[0] % num_nodes:
                raise SolverError(
                    f"block size {num_nodes} does not tile a system of "
                    f"dimension {matrix.shape[0]}"
                )
            self._operator = matrix
            self._apply = spla.aslinearoperator(matrix)
            self.num_nodes = num_nodes
            self.basis_size = matrix.shape[0] // num_nodes
        if degrees.shape != (self.basis_size,):
            raise SolverError(
                f"degrees has shape {degrees.shape}, expected ({self.basis_size},)"
            )
        size = self.basis_size * self.num_nodes
        self.shape = (size, size)
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)

        self._bands: List[Tuple[int, int, object]] = []
        with current_telemetry().span(
            "solver.factor", phase="factor", solver=self.method_name
        ):
            for start, stop in _degree_bands(degrees, band_degrees):
                block = self._band_matrix(start, stop)
                try:
                    lu = spla.splu(sp.csc_matrix(block))
                except RuntimeError as exc:  # singular band block
                    raise SolverError(
                        f"degree-band LU factorisation failed for chaos indices "
                        f"[{start}, {stop}): {exc}"
                    ) from exc
                self._bands.append((start * self.num_nodes, stop * self.num_nodes, lu))
        self._configure_cg(
            self._apply,
            residual_target=self._operator,
            preconditioner=spla.LinearOperator(
                self.shape, matvec=self._apply_band_inverses, dtype=float
            ),
            band_sizes=[
                (stop - start) // self.num_nodes for start, stop, _ in self._bands
            ],
        )

    def _band_matrix(self, start: int, stop: int) -> sp.csr_matrix:
        """The exact sub-matrix coupling chaos indices ``[start, stop)``."""
        if is_operator(self._operator):
            return kron_sum_csr(
                [
                    (term.left[start:stop, start:stop], term.right)
                    for term in self._operator.terms
                ],
                weights=[term.alpha for term in self._operator.terms],
            )
        rows = slice(start * self.num_nodes, stop * self.num_nodes)
        return sp.csr_matrix(self._operator[rows, rows])

    def _apply_band_inverses(self, residual: np.ndarray) -> np.ndarray:
        """Block-diagonal application: one band LU solve per degree band."""
        residual = np.asarray(residual, dtype=float)
        out = np.empty_like(residual)
        for start, stop, lu in self._bands:
            out[start:stop] = lu.solve(residual[start:stop])
        return out


@register_solver("degree-block-cg")
def _build_degree_block_cg(matrix, **options) -> DegreeBlockCGSolver:
    return DegreeBlockCGSolver(matrix, **options)


_build_degree_block_cg.accepts_operator = True
