"""Tests of the symmetric-aware factorisations behind the direct funnel.

Sparse: ``_factor_sparse`` takes the symmetric-mode SuperLU path only for
exactly symmetric matrices with a positive diagonal whose factor passes
the permutation and backward-error checks, and falls back to the plain
``splu`` otherwise.  Dense: :class:`DenseFactor` takes Cholesky only for
nearly symmetric positive definite blocks, LU otherwise.  Every
symmetric path is checked against the path it replaces to 1e-12 relative
(not bitwise: the pivot order changes).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lu_factor, lu_solve

from repro.errors import SolverError
from repro.sim.linear import (
    DENSE_SYMMETRY_RTOL,
    DenseFactor,
    DirectSolver,
    _factor_sparse,
    _symmetric_factor,
    factorization_counters,
    nearly_symmetric,
    reset_factorization_counters,
)
from repro.telemetry import profile


@pytest.fixture(scope="module")
def galerkin():
    """The order-2 augmented Galerkin system of a 200-node grid."""
    from repro.api import Analysis

    return Analysis.from_spec(200, seed=3).galerkin(2)


def _relative_gap(candidate: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(candidate - reference)) / np.max(np.abs(reference)))


def _saddle_point() -> sp.csc_matrix:
    """``[[A, B], [B^T, 0]]``: symmetric, indefinite, zero diagonal tail."""
    a = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(6, 6))
    b = sp.csr_matrix(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    )
    return sp.bmat([[a, b], [b.T, None]], format="csc")


def _rng_spd(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((size, size))
    return base @ base.T + size * np.eye(size)


class TestSparseSymmetricPath:
    def test_grid_matrix_takes_symmetric_path_and_matches_plain_splu(self, small_stamped):
        conductance = sp.csc_matrix(small_stamped.conductance)
        solver = DirectSolver(conductance)
        assert solver.symmetric
        rhs = np.random.default_rng(0).standard_normal((conductance.shape[0], 3))
        plain = spla.splu(conductance).solve(rhs)
        assert _relative_gap(solver.solve_many(rhs), plain) <= 1e-12
        assert _relative_gap(solver.solve(rhs[:, 0]), plain[:, 0]) <= 1e-12

    def test_galerkin_step_matrix_takes_symmetric_path(self, galerkin):
        step = sp.csc_matrix(galerkin.conductance + galerkin.capacitance / 1e-10)
        solver = DirectSolver(step)
        assert solver.symmetric
        rhs = np.random.default_rng(1).standard_normal(step.shape[0])
        assert _relative_gap(solver.solve(rhs), spla.splu(step).solve(rhs)) <= 1e-12

    def test_symmetric_factor_has_less_fill(self, galerkin):
        step = sp.csc_matrix(galerkin.conductance + galerkin.capacitance / 1e-10)
        lu, symmetric = _factor_sparse(step)
        assert symmetric
        assert lu.nnz < spla.splu(step).nnz

    def test_unsymmetric_matrix_takes_plain_splu(self):
        matrix = sp.csc_matrix(np.array([[4.0, -1.0, 0.0], [-2.0, 4.0, -1.0], [0.0, -1.0, 4.0]]))
        solver = DirectSolver(matrix)
        assert not solver.symmetric
        rhs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(matrix @ solver.solve(rhs), rhs, atol=1e-14)

    def test_saddle_point_falls_back_and_solves(self):
        matrix = _saddle_point()
        assert (matrix != matrix.T).nnz == 0
        solver = DirectSolver(matrix)
        assert not solver.symmetric
        rhs = np.arange(1.0, matrix.shape[0] + 1.0)
        np.testing.assert_allclose(matrix @ solver.solve(rhs), rhs, atol=1e-12)

    def test_negative_diagonal_falls_back_and_solves(self):
        matrix = sp.csc_matrix(np.array([[-3.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 3.0]]))
        solver = DirectSolver(matrix)
        assert not solver.symmetric
        rhs = np.array([1.0, -1.0, 2.0])
        np.testing.assert_allclose(matrix @ solver.solve(rhs), rhs, atol=1e-14)

    def test_pivot_growth_fails_the_backward_error_check(self):
        # Symmetric with a positive diagonal, but the diagonal pivots are
        # tiny: symmetric mode factors it, the check solve rejects it.
        matrix = sp.csc_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]]))
        assert _symmetric_factor(matrix) is None
        solver = DirectSolver(matrix)
        assert not solver.symmetric
        rhs = np.array([1.0, 2.0])
        np.testing.assert_allclose(solver.solve(rhs), [2.0, 1.0], rtol=1e-14)

    def test_off_diagonal_pivot_fails_the_permutation_check(self):
        # All-ones tridiagonal: the second diagonal pivot cancels to zero,
        # so SuperLU pivots off the diagonal and ``perm_r != perm_c``.
        matrix = sp.csc_matrix(sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(4, 4)))
        assert _symmetric_factor(matrix) is None
        solver = DirectSolver(matrix)
        assert not solver.symmetric
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(matrix @ solver.solve(rhs), rhs, atol=1e-14)

    def test_singular_symmetric_matrix_raises(self):
        matrix = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            DirectSolver(matrix)

    def test_one_factorisation_counted_per_solver(self):
        reset_factorization_counters()
        DirectSolver(sp.csc_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]])))
        DirectSolver(sp.identity(3, format="csc"))
        assert factorization_counters() == {
            "symbolic_analysis": 2,
            "symbolic_reuse": 0,
            "numeric_refactor": 0,
        }

    def test_path_is_a_span_attribute_and_telemetry_changes_no_bit(self, small_stamped):
        conductance = small_stamped.conductance
        rhs = small_stamped.rhs(0.0)
        quiet = DirectSolver(conductance).solve(rhs)
        with profile() as tele:
            traced = DirectSolver(conductance).solve(rhs)
            DirectSolver(_saddle_point())
        assert traced.tobytes() == quiet.tobytes()
        paths = [
            event["attrs"]["symmetric"] for event in tele.events if event["name"] == "solver.factor"
        ]
        assert paths == [True, False]

    def test_mean_block_preconditioner_uses_the_funnel(self, galerkin):
        from repro.linalg import MeanBlockCGSolver

        step = galerkin.conductance_operator + galerkin.capacitance_operator / 1e-10
        solver = MeanBlockCGSolver(step)
        assert solver.symmetric
        rhs = np.random.default_rng(2).standard_normal(step.shape[0])
        reference = spla.splu(sp.csc_matrix(step.to_csr())).solve(rhs)
        assert _relative_gap(solver.solve(rhs), reference) <= 1e-10


class TestDenseFactor:
    def test_spd_block_takes_cholesky_and_matches_lu(self):
        matrix = _rng_spd(30, 0)
        rhs = np.random.default_rng(1).standard_normal((30, 4))
        factor = DenseFactor(matrix)
        assert factor.cholesky
        reference = lu_solve(lu_factor(matrix), rhs)
        assert _relative_gap(factor.solve(rhs), reference) <= 1e-12

    def test_rounding_asymmetry_below_the_tolerance_still_takes_cholesky(self):
        matrix = _rng_spd(20, 2)
        skew = np.triu(np.ones_like(matrix), 1)
        matrix = matrix + 1e-3 * DENSE_SYMMETRY_RTOL * np.max(np.abs(matrix)) * skew
        assert nearly_symmetric(matrix)
        assert DenseFactor(matrix).cholesky

    def test_asymmetry_above_the_tolerance_takes_lu(self):
        matrix = _rng_spd(20, 3)
        matrix[0, 1] += 1e3 * DENSE_SYMMETRY_RTOL * np.max(np.abs(matrix))
        assert not nearly_symmetric(matrix)
        factor = DenseFactor(matrix)
        assert not factor.cholesky
        rhs = np.ones(20)
        np.testing.assert_allclose(matrix @ factor.solve(rhs), rhs, atol=1e-12)

    def test_asymmetry_in_a_late_row_slab_is_seen(self):
        matrix = _rng_spd(300, 9)
        assert nearly_symmetric(matrix)
        matrix[-1, 0] += 1e3 * DENSE_SYMMETRY_RTOL * np.max(np.abs(matrix))
        assert not nearly_symmetric(matrix)

    def test_indefinite_symmetric_block_takes_lu(self):
        matrix = _rng_spd(12, 4)
        matrix[5, 5] = -1e3
        assert nearly_symmetric(matrix)
        factor = DenseFactor(matrix)
        assert not factor.cholesky
        rhs = np.arange(12.0)
        np.testing.assert_allclose(matrix @ factor.solve(rhs), rhs, atol=1e-10)

    def test_cholesky_can_be_turned_off(self):
        matrix = _rng_spd(8, 5)
        factor = DenseFactor(matrix, cholesky=False)
        assert not factor.cholesky
        with pytest.raises(SolverError):
            factor.lower_solve(np.ones(8))

    def test_lower_solves_compose_to_the_inverse(self):
        matrix = _rng_spd(10, 6)
        factor = DenseFactor(matrix)
        rhs = np.random.default_rng(7).standard_normal(10)
        solution = factor.lower_solve(factor.lower_solve(rhs), transpose=True)
        assert _relative_gap(solution, np.linalg.solve(matrix, rhs)) <= 1e-12

    def test_nearly_symmetric_against_a_transpose(self):
        forward = np.random.default_rng(8).standard_normal((4, 3))
        assert nearly_symmetric(forward, forward.T.copy())
        assert not nearly_symmetric(forward, 1.01 * forward.T)
        assert not nearly_symmetric(forward, forward)
        assert nearly_symmetric(np.empty((4, 0)), np.empty((0, 4)))


class TestSchurInterface:
    def test_grid_interface_takes_cholesky_and_matches_direct(self, small_stamped):
        from repro.partition.schur import SchurSolver

        conductance = small_stamped.conductance
        rhs = small_stamped.rhs(0.0)
        schur = SchurSolver(conductance, num_parts=4)
        assert schur._schur.cholesky
        reference = spla.splu(sp.csc_matrix(conductance)).solve(rhs)
        assert _relative_gap(schur.solve(rhs), reference) <= 1e-12

    def test_unsymmetric_interface_takes_lu(self, small_stamped):
        from repro.partition.schur import SchurSolver

        conductance = sp.csr_matrix(small_stamped.conductance)
        skewed = sp.csr_matrix(conductance + sp.triu(conductance, 1) * 0.1)
        schur = SchurSolver(skewed, num_parts=4)
        assert not schur._schur.cholesky
        rhs = small_stamped.rhs(0.0)
        reference = spla.splu(sp.csc_matrix(skewed)).solve(rhs)
        assert _relative_gap(schur.solve(rhs), reference) <= 1e-12
