"""Sparse linear solver wrappers used by the DC, transient and OPERA engines.

Power-grid conductance matrices are symmetric, positive definite and very
sparse, so the default solver is a sparse LU factorisation (SuperLU via
``scipy.sparse.linalg.splu``), which matches the "single factorisation,
repeated solves" usage pattern of both the transient integrator and the
special-case analysis of Section 5.1 of the paper.  Every sparse factor
goes through one funnel, :func:`_factor_sparse`:

* when ``A`` is exactly symmetric with a positive diagonal (every MNA and
  augmented Galerkin step matrix), SuperLU runs in symmetric mode: a
  minimum-degree ordering of ``A + A^T`` applied to rows and columns alike
  and diagonal pivots (``permc_spec="MMD_AT_PLUS_A"``,
  ``diag_pivot_thresh=0``, ``SymmetricMode``).  That roughly halves the
  fill and the factor time of the default column ordering;
* the symmetric factor is kept only if its row and column permutations
  agree (no off-diagonal pivot was taken) and one check solve shows a
  normwise backward error of at most ``1e-12``;
* otherwise -- an unsymmetric matrix, a zero or negative diagonal entry,
  a zero pivot or a failed check -- the plain ``splu(A)`` (column
  ordering ``COLAMD``, partial pivoting) factors ``A``.

:class:`DirectSolver` records the path taken as ``symmetric``.  Identical
step matrices share one factor through the session's content-fingerprint
solver cache (:meth:`repro.api.Analysis.solver`).

Dense blocks (the reduced ``mor`` system, the partitioned Schur interface)
go through :class:`DenseFactor`: Cholesky when the block is symmetric to
:data:`DENSE_SYMMETRY_RTOL` relative to its largest entry and
``cho_factor`` succeeds, LU (``lu_factor``) otherwise.

A Jacobi-preconditioned conjugate-gradient solver is provided for large
systems where factorisation memory is a concern (the iterative-solver
route the paper mentions in its implementation notes).

Solvers are pluggable: each backend registers a factory under a name with
:func:`register_solver`, and :func:`make_solver` resolves names through the
registry, so new backends (e.g. multigrid, GPU solvers) can be added without
touching the engines that consume them.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cho_factor, lu_factor, lu_solve, solve_triangular

from ..errors import ConvergenceError, SolverError
from ..registry import Registry
from ..telemetry import current_telemetry

__all__ = [
    "LinearSolver",
    "DirectSolver",
    "DenseFactor",
    "DENSE_SYMMETRY_RTOL",
    "nearly_symmetric",
    "PreconditionedCGSolver",
    "ConjugateGradientSolver",
    "make_solver",
    "register_solver",
    "unregister_solver",
    "solver_names",
    "solver_factory",
    "solver_accepts_operator",
    "matrix_fingerprint",
    "factorization_counters",
    "reset_factorization_counters",
]


def _is_lazy_operator(obj) -> bool:
    """Duck-typed test for lazy operators (``repro.linalg.KronSumOperator``).

    Defined here (rather than imported from :mod:`repro.linalg`) because the
    linalg package registers its backend through this module -- importing it
    back would be circular.  An operator exposes matrix-free ``matvec`` and
    the explicit-assembly escape hatch ``to_csr``.
    """
    return callable(getattr(obj, "matvec", None)) and callable(getattr(obj, "to_csr", None))


# ---------------------------------------------------------------------------
# Factorisation counters
# ---------------------------------------------------------------------------
_FACTOR_COUNTERS = {"symbolic_analysis": 0, "symbolic_reuse": 0, "numeric_refactor": 0}


def factorization_counters() -> dict:
    """Snapshot of the process-wide factorisation counters.

    ``symbolic_analysis`` counts :class:`DirectSolver` factorisations, one
    per solver whichever path of :func:`_factor_sparse` made it; each runs
    its own ordering and symbolic analysis.
    ``symbolic_reuse`` and ``numeric_refactor`` are always 0, because no
    symbolic analysis is ever reused; they are kept so readers of the
    historical counter names keep working.
    """
    return dict(_FACTOR_COUNTERS)


def reset_factorization_counters() -> None:
    """Zero the factorisation counters (test/bench isolation)."""
    for name in _FACTOR_COUNTERS:
        _FACTOR_COUNTERS[name] = 0


# ---------------------------------------------------------------------------
# The factorisation funnel
# ---------------------------------------------------------------------------
#: ``splu`` settings of the symmetric path: one minimum-degree ordering of
#: ``A + A^T`` applied to rows and columns, diagonal pivots only.
_SYMMETRIC_SPLU = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}

#: Largest normwise backward error the symmetric factor may show on its
#: check solve; a stable factorisation of a grid matrix shows ~1e-16.
_BACKWARD_ERROR_LIMIT = 1e-12


def _symmetric_with_positive_diagonal(matrix: sp.csc_matrix) -> bool:
    """The precondition of the symmetric path: ``A == A^T`` exactly, ``diag(A) > 0``."""
    return bool(
        matrix.shape[0] > 0 and np.all(matrix.diagonal() > 0) and (matrix != matrix.T).nnz == 0
    )


def _symmetric_factor(matrix: sp.csc_matrix) -> Optional[spla.SuperLU]:
    """The symmetric-mode SuperLU factor of ``matrix``, or None if it is unsafe.

    Rejected when a zero pivot stops the factorisation, when an
    off-diagonal pivot was taken (``perm_r != perm_c``), or when a solve
    with ``b = 1`` shows a normwise backward error
    ``|Ax - b| / (|A| |x| + |b|)`` (infinity norms) above
    :data:`_BACKWARD_ERROR_LIMIT` -- the sign of pivot growth.  The check
    never reads ``L`` or ``U``, which would copy the factor.
    """
    try:
        lu = spla.splu(matrix, **_SYMMETRIC_SPLU)
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    rhs = np.ones(matrix.shape[0])
    solution = lu.solve(rhs)
    residual = float(np.max(np.abs(matrix @ solution - rhs)))
    scale = spla.norm(matrix, np.inf) * float(np.max(np.abs(solution))) + 1.0
    # A non-finite solution makes the comparison False and rejects the factor.
    return lu if residual / scale <= _BACKWARD_ERROR_LIMIT else None


def _factor_sparse(matrix: sp.csc_matrix) -> Tuple[spla.SuperLU, bool]:
    """SuperLU factor of ``matrix`` and whether the symmetric path made it.

    The symmetric-mode factor is tried when ``matrix`` is exactly
    symmetric with a positive diagonal and kept when it passes the checks
    of :func:`_symmetric_factor`; otherwise the plain ``splu(matrix)``
    factors it (and raises ``RuntimeError`` on a singular matrix).
    """
    if _symmetric_with_positive_diagonal(matrix):
        lu = _symmetric_factor(matrix)
        if lu is not None:
            return lu, True
    return spla.splu(matrix), False


#: Relative asymmetry ``max|M - M^T| / max|M|`` a dense block may carry and
#: still be Cholesky-factored.  Projected blocks are symmetric only to
#: rounding (about 2e-15 on the reduced ``mor`` blocks), not exactly.
DENSE_SYMMETRY_RTOL = 1e-12

#: Rows per slab of the dense symmetry check.
_SYMMETRY_SLAB_ROWS = 256


def nearly_symmetric(matrix: np.ndarray, transpose: Optional[np.ndarray] = None) -> bool:
    """``max|M - N^T| <= DENSE_SYMMETRY_RTOL * max|M|``, with ``N = M`` by default.

    Pass ``transpose`` to test whether ``N`` is (nearly) ``M^T`` -- the two
    off-diagonal couplings of a symmetric block system.  The difference is
    taken a slab of rows at a time, so the check never holds a temporary
    the size of ``M``.
    """
    matrix = np.asarray(matrix)
    other = (matrix if transpose is None else np.asarray(transpose)).T
    if other.shape != matrix.shape:
        return False
    if not matrix.size:
        return True
    limit = DENSE_SYMMETRY_RTOL * max(float(matrix.max()), -float(matrix.min()))
    for start in range(0, matrix.shape[0], _SYMMETRY_SLAB_ROWS):
        rows = slice(start, start + _SYMMETRY_SLAB_ROWS)
        if not np.max(np.abs(matrix[rows] - other[rows])) <= limit:
            return False
    return True


class DenseFactor:
    """A dense factorisation: Cholesky where it is safe, LU otherwise.

    Cholesky (``cho_factor``, lower triangle) is used when ``cholesky`` is
    left on, the matrix is :func:`nearly_symmetric` and ``cho_factor``
    succeeds, i.e. the matrix is positive definite; anything else --
    asymmetry above :data:`DENSE_SYMMETRY_RTOL` or a ``LinAlgError`` --
    takes ``lu_factor``.  ``cholesky`` records the path taken.
    """

    __slots__ = ("cholesky", "_factor")

    def __init__(self, matrix: np.ndarray, cholesky: bool = True):
        self.cholesky = False
        if cholesky and nearly_symmetric(matrix):
            try:
                self._factor = cho_factor(matrix, lower=True)[0]
                self.cholesky = True
            except LinAlgError:  # not positive definite
                pass
        if not self.cholesky:
            self._factor = lu_factor(matrix)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``M^{-1} rhs`` (1-D or 2-D right-hand side)."""
        if self.cholesky:
            return self.lower_solve(self.lower_solve(rhs), transpose=True)
        return lu_solve(self._factor, rhs)

    def lower_solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``L^{-1} rhs`` (or ``L^{-T} rhs``) with the Cholesky factor ``M = L L^T``.

        The factor was checked finite when it was made, so the solve skips
        that O(n^2) scan (which costs more than the solve itself).
        """
        if not self.cholesky:
            raise SolverError("lower_solve needs a Cholesky factor")
        return solve_triangular(
            self._factor, rhs, lower=True, trans=1 if transpose else 0, check_finite=False
        )


class LinearSolver(abc.ABC):
    """A reusable solver for ``A x = b`` with a fixed matrix ``A``."""

    @abc.abstractmethod
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a single right-hand side (1-D array)."""

    def solve_many(self, rhs_columns: np.ndarray) -> np.ndarray:
        """Solve for several right-hand sides given as columns of a 2-D array."""
        rhs_columns = np.asarray(rhs_columns, dtype=float)
        if rhs_columns.ndim == 1:
            return self.solve(rhs_columns)
        return np.column_stack([self.solve(rhs_columns[:, j]) for j in range(rhs_columns.shape[1])])


class DirectSolver(LinearSolver):
    """Sparse LU factorisation (SuperLU) with cached factors.

    The factor comes from :func:`_factor_sparse`; ``symmetric`` is True
    when the symmetric-mode path made it and False for the plain ``splu``.
    """

    def solve_many(self, rhs_columns: np.ndarray) -> np.ndarray:
        """Solve for all columns in one SuperLU call (2-D RHS support)."""
        rhs_columns = np.asarray(rhs_columns, dtype=float)
        if rhs_columns.ndim == 1:
            return self.solve(rhs_columns)
        if rhs_columns.shape[0] != self.shape[0]:
            raise SolverError(
                f"right-hand sides have length {rhs_columns.shape[0]}, "
                f"expected {self.shape[0]}"
            )
        solution = self._lu.solve(rhs_columns)
        if not np.all(np.isfinite(solution)):
            raise SolverError("direct solve produced non-finite values")
        return solution

    def __init__(self, matrix: sp.spmatrix):
        matrix = sp.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise SolverError("direct solver requires a square matrix")
        try:
            with current_telemetry().span("solver.factor", phase="factor", solver="direct") as span:
                self._lu, self.symmetric = _factor_sparse(matrix)
                span.annotate(symmetric=self.symmetric)
        except RuntimeError as exc:  # singular matrix
            raise SolverError(f"LU factorisation failed: {exc}") from exc
        _FACTOR_COUNTERS["symbolic_analysis"] += 1
        self.shape = matrix.shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.shape[0]:
            raise SolverError(
                f"right-hand side has length {rhs.shape[0]}, expected {self.shape[0]}"
            )
        solution = self._lu.solve(rhs)
        if not np.all(np.isfinite(solution)):
            raise SolverError("direct solve produced non-finite values")
        return solution


class PreconditionedCGSolver(LinearSolver):
    """Shared scaffolding of every preconditioned-CG backend.

    The two CG backends of the library (``cg`` here, ``mean-block-cg`` in
    :mod:`repro.linalg.solvers`) differ only in how they build their
    preconditioner; the solve loop, the diagnostics bookkeeping and the
    warm-started multi-RHS sweep are identical.  This base class holds
    that common machinery:

    * :meth:`solve` runs :func:`scipy.sparse.linalg.cg` with iteration
      counting, converts non-convergence into
      :class:`~repro.errors.ConvergenceError`, and updates ``stats`` (solve
      and iteration counters plus the final *true* relative residual
      ``|b - Ax| / |b|``);
    * :meth:`solve_many` sweeps the columns of a 2-D right-hand side,
      warm-starting each solve from the previous column's solution --
      consecutive right-hand sides of the transient/Galerkin callers are
      strongly correlated, so the warm start typically saves a large
      fraction of the iterations the naive cold-start loop would spend.

    Subclasses set :attr:`method_name` (the ``stats["method"]`` value) and
    :attr:`error_label` (the noun used in error messages), populate
    ``self.shape``, and call :meth:`_configure_cg` at the end of their
    ``__init__``.
    """

    #: Backend name recorded in ``stats["method"]``.
    method_name: str = "cg"
    #: Human-readable solver noun used in convergence/error messages.
    error_label: str = "conjugate gradients"

    def _configure_cg(
        self,
        cg_target,
        residual_target=None,
        preconditioner=None,
    ) -> None:
        """Install the CG operands and initialise the ``stats`` dict.

        ``cg_target`` is what :func:`scipy.sparse.linalg.cg` iterates on (a
        sparse matrix, lazy operator or ``LinearOperator``);
        ``residual_target`` is what the true-residual check multiplies by
        (defaults to ``cg_target``; the block backend passes its native
        operator here and a wrapped ``LinearOperator`` to CG).
        """
        self._cg_target = cg_target
        self._residual_target = residual_target if residual_target is not None else cg_target
        self._preconditioner = preconditioner
        self.stats = {
            "method": self.method_name,
            "solves": 0,
            "total_iterations": 0,
            "last_iterations": 0,
            "last_relative_residual": None,
            "warm_starts": 0,
            "cold_starts": 0,
        }

    def solve(self, rhs: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.shape[0],):
            raise SolverError(
                f"right-hand side has shape {rhs.shape}, expected ({self.shape[0]},)"
            )
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        solution, info = spla.cg(
            self._cg_target,
            rhs,
            x0=x0,
            rtol=self.rtol,
            maxiter=self.maxiter,
            M=self._preconditioner,
            callback=count,
        )
        if info > 0:
            raise ConvergenceError(
                f"{self.error_label} did not converge in {self.maxiter} iterations"
            )
        if info < 0:
            raise SolverError(f"{self.error_label} reported an illegal input")
        rhs_norm = float(np.linalg.norm(rhs))
        residual = float(np.linalg.norm(rhs - self._residual_target @ solution))
        self.stats["solves"] += 1
        self.stats["warm_starts" if x0 is not None else "cold_starts"] += 1
        self.stats["total_iterations"] += iterations
        self.stats["last_iterations"] = iterations
        self.stats["last_relative_residual"] = residual / rhs_norm if rhs_norm > 0 else residual
        return solution

    def solve_many(self, rhs_columns: np.ndarray) -> np.ndarray:
        """Warm-started column sweep (previous solution as the next ``x0``)."""
        rhs_columns = np.asarray(rhs_columns, dtype=float)
        if rhs_columns.ndim == 1:
            return self.solve(rhs_columns)
        if rhs_columns.shape[0] != self.shape[0]:
            raise SolverError(
                f"right-hand sides have length {rhs_columns.shape[0]}, "
                f"expected {self.shape[0]}"
            )
        solution = np.empty_like(rhs_columns)
        previous: Optional[np.ndarray] = None
        for j in range(rhs_columns.shape[1]):
            previous = self.solve(rhs_columns[:, j], x0=previous)
            solution[:, j] = previous
        return solution


class ConjugateGradientSolver(PreconditionedCGSolver):
    """Preconditioned conjugate gradients for symmetric positive definite systems.

    Parameters
    ----------
    matrix:
        The SPD system matrix -- an explicit sparse matrix or a lazy
        operator (e.g. :class:`repro.linalg.KronSumOperator`), in which
        case every CG matvec runs matrix-free.
    preconditioner:
        ``"jacobi"`` (diagonal scaling) or ``None`` (plain CG); anything
        else raises :class:`~repro.errors.SolverError`.
    rtol, maxiter:
        Convergence tolerance and iteration cap; failure to converge raises
        :class:`~repro.errors.ConvergenceError`.

    Every solve updates the ``stats`` attribute: solve and iteration
    counters plus the final (true) relative residual ``|b - Ax| / |b|`` of
    the most recent solve.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        preconditioner: Optional[str] = "jacobi",
        rtol: float = 1e-10,
        maxiter: int = 2000,
    ):
        self._matrix = matrix if _is_lazy_operator(matrix) else sp.csr_matrix(matrix)
        if self._matrix.shape[0] != self._matrix.shape[1]:
            raise SolverError("CG solver requires a square matrix")
        self.shape = self._matrix.shape
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)
        with current_telemetry().span(
            "solver.factor", phase="factor", solver=self.method_name
        ):
            built = self._build_preconditioner(preconditioner)
        self._configure_cg(self._matrix, preconditioner=built)

    def _build_preconditioner(self, kind):
        if kind is None:
            return None
        if not (isinstance(kind, str) and kind == "jacobi"):
            raise SolverError(f"preconditioner must be 'jacobi' or None; got {kind!r}")
        diagonal = self._matrix.diagonal()
        if np.any(diagonal <= 0):
            raise SolverError("Jacobi preconditioner requires positive diagonal")
        inverse_diagonal = 1.0 / diagonal
        return spla.LinearOperator(self.shape, matvec=lambda x: inverse_diagonal * x)


# ---------------------------------------------------------------------------
# Solver registry
# ---------------------------------------------------------------------------
_SOLVERS = Registry("solver", SolverError)


def register_solver(name: str, factory=None, *, overwrite: bool = False):
    """Register a solver factory ``factory(matrix, **options) -> LinearSolver``.

    Usable as a decorator::

        @register_solver("amg")
        def build_amg(matrix, **options):
            return MyAMGSolver(matrix, **options)

    After registration the backend is available everywhere a solver name is
    accepted (``make_solver``, ``TransientConfig.solver``, the ``--solver``
    CLI flag, ...).
    """
    return _SOLVERS.register(name, factory, overwrite=overwrite)


def unregister_solver(name: str) -> None:
    """Remove a registered solver backend."""
    _SOLVERS.unregister(name)


def solver_names() -> tuple:
    """Names of all registered solver backends, sorted."""
    return _SOLVERS.names()


def solver_factory(method: str):
    """Resolve a solver name to its factory (raises :class:`SolverError`)."""
    return _SOLVERS.get(method)


def solver_accepts_operator(method: str) -> bool:
    """True when the named backend consumes lazy operators directly.

    Factories opt in by setting ``accepts_operator = True`` on themselves;
    :func:`make_solver` materialises operators to CSR for everyone else.
    Unknown names return False (the caller will hit the registry's error
    with its name listing soon enough).
    """
    try:
        factory = _SOLVERS.get(method)
    except SolverError:
        return False
    return bool(getattr(factory, "accepts_operator", False))


def make_solver(matrix: sp.spmatrix, method: str = "direct", **options) -> LinearSolver:
    """Construct a linear solver for ``matrix``.

    Parameters
    ----------
    matrix:
        System matrix -- an explicit sparse matrix, or a lazy operator
        (:class:`repro.linalg.KronSumOperator`).  Operators are forwarded
        as-is to backends that declare ``accepts_operator`` on their
        factory (``mean-block-cg``, ``cg``)
        and materialised with ``to_csr()`` for everything else, so every
        backend works with either input.
    method:
        Name of a registered backend; the built-ins are ``"direct"``
        (sparse LU) and ``"cg"`` (Jacobi-preconditioned CG).  Importing
        :mod:`repro.linalg` (or :mod:`repro.api`) additionally registers
        ``"mean-block-cg"`` (matrix-free CG with the ``I_P (x) M0^{-1}``
        mean-block preconditioner); importing :mod:`repro.partition`
        registers ``"schur"`` (partitioned Schur-complement direct solve).
    options:
        Forwarded to the solver factory (e.g. ``rtol``, ``maxiter``).
    """
    factory = _SOLVERS.get(method)
    if _is_lazy_operator(matrix) and not getattr(factory, "accepts_operator", False):
        matrix = matrix.to_csr()
    return factory(matrix, **options)


@register_solver("direct")
def _build_direct(matrix: sp.spmatrix, **options) -> DirectSolver:
    return DirectSolver(matrix, **options)


@register_solver("cg")
def _build_cg(matrix: sp.spmatrix, **options) -> ConjugateGradientSolver:
    options.setdefault("preconditioner", "jacobi")
    return ConjugateGradientSolver(matrix, **options)


_build_cg.accepts_operator = True


def matrix_fingerprint(matrix: sp.spmatrix) -> str:
    """Content hash of a sparse matrix, usable as a factorisation cache key.

    Two matrices with identical shape, sparsity structure and values map to
    the same fingerprint, so a cache keyed by it can recognise "the same
    system matrix" across independently assembled objects (e.g. the stepping
    matrix ``G + C/h`` rebuilt by two runs with identical settings).

    Lazy operators that carry their own content hash (e.g.
    :class:`repro.linalg.KronSumOperator.fingerprint`) are fingerprinted
    through it, so the session solver cache works for operator-backed
    solvers too.
    """
    own = getattr(matrix, "fingerprint", None)
    if callable(own):
        return own()
    # Copy before canonicalising: sum_duplicates() would otherwise rewrite
    # the caller's matrix in place when it is already CSR.
    matrix = sp.csr_matrix(matrix, copy=True)
    matrix.sum_duplicates()
    digest = hashlib.sha1()
    digest.update(repr(matrix.shape).encode())
    digest.update(matrix.indptr.tobytes())
    digest.update(matrix.indices.tobytes())
    digest.update(matrix.data.tobytes())
    return digest.hexdigest()
