"""Tests for the Galerkin assembly, triple-product tensors and projections."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.chaos.basis import PolynomialChaosBasis
from repro.chaos.galerkin import (
    GalerkinSystem,
    assemble_augmented_matrix,
    assemble_augmented_rhs,
    split_augmented_vector,
)
from repro.chaos.projection import (
    evaluate_expansion,
    lognormal_hermite_coefficients,
    project_function,
    project_samples,
)
from repro.chaos.triples import triple_product_matrix, triple_product_tensors
from repro.errors import AnalysisError, BasisError


@pytest.fixture(scope="module")
def basis2x2():
    return PolynomialChaosBasis("hermite", order=2, num_vars=2)


class TestTripleProductMatrices:
    def test_constant_index_is_identity(self, basis2x2):
        matrix = triple_product_matrix(basis2x2, 0)
        np.testing.assert_allclose(matrix.toarray(), np.eye(basis2x2.size))

    def test_matches_elementwise_definition(self, basis2x2):
        for m in (1, 2):
            matrix = triple_product_matrix(basis2x2, m).toarray()
            for i in range(basis2x2.size):
                for j in range(basis2x2.size):
                    assert matrix[i, j] == pytest.approx(basis2x2.triple_product(m, i, j))

    def test_symmetry(self, basis2x2):
        for m in range(basis2x2.size):
            matrix = triple_product_matrix(basis2x2, m).toarray()
            np.testing.assert_allclose(matrix, matrix.T)

    def test_first_order_structure_matches_paper(self):
        """For one Gaussian germ, T_1 couples orders differing by one.

        In the unnormalised basis this is the [[0,1,0],[1,0,2],[0,2,0]]
        pattern visible in the G~ matrix of Eq. (20); here it appears in its
        orthonormal scaling.
        """
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=1)
        matrix = triple_product_matrix(basis, 1).toarray()
        expected = np.array(
            [
                [0.0, 1.0, 0.0],
                [1.0, 0.0, math.sqrt(2.0)],
                [0.0, math.sqrt(2.0), 0.0],
            ]
        )
        np.testing.assert_allclose(matrix, expected, atol=1e-12)

    def test_tensors_helper(self, basis2x2):
        tensors = triple_product_tensors(basis2x2, [0, 1, 1, 2])
        assert set(tensors.keys()) == {0, 1, 2}

    def test_out_of_range_rejected(self, basis2x2):
        with pytest.raises(BasisError):
            triple_product_matrix(basis2x2, 99)


class TestAugmentedAssembly:
    def test_block_structure_mean_only(self, basis2x2):
        """With no variation the augmented matrix is block diagonal."""
        A0 = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        augmented = assemble_augmented_matrix(basis2x2, {0: A0}).toarray()
        n = 2
        for i in range(basis2x2.size):
            for j in range(basis2x2.size):
                block = augmented[i * n : (i + 1) * n, j * n : (j + 1) * n]
                if i == j:
                    np.testing.assert_allclose(block, A0.toarray())
                else:
                    np.testing.assert_allclose(block, 0.0)

    def test_affine_blocks_match_triple_products(self, basis2x2):
        A0 = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        A1 = sp.csr_matrix(np.array([[0.2, 0.0], [0.0, 0.1]]))
        augmented = assemble_augmented_matrix(basis2x2, {0: A0, 1: A1}).toarray()
        T1 = triple_product_matrix(basis2x2, 1).toarray()
        n = 2
        for i in range(basis2x2.size):
            for j in range(basis2x2.size):
                block = augmented[i * n : (i + 1) * n, j * n : (j + 1) * n]
                expected = (1.0 if i == j else 0.0) * A0.toarray() + T1[i, j] * A1.toarray()
                np.testing.assert_allclose(block, expected, atol=1e-12)

    def test_augmented_matrix_symmetric_for_symmetric_blocks(self, basis2x2):
        A0 = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        A1 = 0.1 * A0
        augmented = assemble_augmented_matrix(basis2x2, {0: A0, 1: A1})
        asymmetry = abs(augmented - augmented.T).max()
        assert asymmetry < 1e-12

    def test_requires_coefficients(self, basis2x2):
        with pytest.raises(AnalysisError):
            assemble_augmented_matrix(basis2x2, {})

    def test_shape_consistency_enforced(self, basis2x2):
        A0 = sp.identity(2, format="csr")
        A1 = sp.identity(3, format="csr")
        with pytest.raises(AnalysisError):
            assemble_augmented_matrix(basis2x2, {0: A0, 1: A1})

    def test_rhs_stacking(self, basis2x2):
        rhs = assemble_augmented_rhs(
            basis2x2, {0: np.array([1.0, 2.0]), 2: np.array([3.0, 4.0])}, num_nodes=2
        )
        assert rhs.shape == (12,)
        np.testing.assert_allclose(rhs[0:2], [1.0, 2.0])
        np.testing.assert_allclose(rhs[4:6], [3.0, 4.0])
        np.testing.assert_allclose(rhs[2:4], 0.0)

    def test_rhs_rejects_bad_index(self, basis2x2):
        with pytest.raises(BasisError):
            assemble_augmented_rhs(basis2x2, {17: np.zeros(2)}, num_nodes=2)

    def test_rhs_rejects_bad_shape(self, basis2x2):
        with pytest.raises(AnalysisError):
            assemble_augmented_rhs(basis2x2, {0: np.zeros(3)}, num_nodes=2)

    def test_split_roundtrip(self, basis2x2):
        blocks = np.arange(12.0).reshape(basis2x2.size, 2)
        stacked = blocks.reshape(-1)
        np.testing.assert_allclose(split_augmented_vector(stacked, basis2x2.size, 2), blocks)

    def test_split_rejects_bad_length(self, basis2x2):
        with pytest.raises(AnalysisError):
            split_augmented_vector(np.zeros(7), basis2x2.size, 2)


class TestGalerkinSystemSolution:
    def test_scalar_affine_system_matches_analytic_expansion(self):
        """Solve (1 + a*xi) x = 1 by Galerkin and compare with the exact
        chaos coefficients obtained by projecting 1/(1 + a*xi) numerically."""
        basis = PolynomialChaosBasis("hermite", order=6, num_vars=1)
        a = 0.1
        A0 = sp.csr_matrix(np.array([[1.0]]))
        A1 = sp.csr_matrix(np.array([[a]]))
        augmented = assemble_augmented_matrix(basis, {0: A0, 1: A1}).toarray()
        rhs = assemble_augmented_rhs(basis, {0: np.array([1.0])}, num_nodes=1)
        solution = np.linalg.solve(augmented, rhs)

        exact = project_function(
            basis, lambda xi: 1.0 / (1.0 + a * xi[:, 0]), points_per_dim=40
        ).ravel()
        # The highest-order coefficient absorbs the truncation error, so only
        # the lower-order coefficients are compared tightly.
        np.testing.assert_allclose(solution[:5], exact[:5], atol=1e-6)
        # Mean and variance of the Galerkin solution match the exact response.
        assert solution[0] == pytest.approx(exact[0], rel=1e-7)
        assert np.sum(solution[1:] ** 2) == pytest.approx(np.sum(exact[1:] ** 2), rel=1e-5)

    def test_galerkin_system_wrapper(self, basis2x2):
        A0 = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        C0 = sp.csr_matrix(np.eye(2) * 1e-12)
        system = GalerkinSystem(
            basis=basis2x2,
            conductance_coefficients={0: A0},
            capacitance_coefficients={0: C0},
            excitation_series=lambda times: {0: np.column_stack([times, np.zeros_like(times)])},
            num_nodes=2,
        )
        assert system.size == basis2x2.size * 2
        rhs = system.rhs(2.0)
        assert rhs[0] == pytest.approx(2.0)
        blocks = system.split(rhs)
        assert blocks.shape == (basis2x2.size, 2)


class TestProjection:
    def test_project_polynomial_is_exact(self):
        basis = PolynomialChaosBasis("hermite", order=3, num_vars=1)
        # f(xi) = xi^2 = He_2 + 1  ->  coefficients [1, 0, sqrt(2), 0]
        coefficients = project_function(basis, lambda x: x[:, 0] ** 2, points_per_dim=8)
        np.testing.assert_allclose(
            coefficients.ravel(), [1.0, 0.0, math.sqrt(2.0), 0.0], atol=1e-10
        )

    def test_project_vector_valued_function(self):
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        coefficients = project_function(
            basis,
            lambda x: np.column_stack([x[:, 0], 2.0 * x[:, 1]]),
            points_per_dim=6,
        )
        assert coefficients.shape == (basis.size, 2)
        assert coefficients[basis.first_order_index(0), 0] == pytest.approx(1.0)
        assert coefficients[basis.first_order_index(1), 1] == pytest.approx(2.0)

    def test_regression_projection_recovers_coefficients(self, rng):
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        true_coefficients = rng.normal(size=basis.size)
        samples = basis.sample_germ(rng, 4000)
        values = basis.evaluate(samples) @ true_coefficients
        estimated = project_samples(basis, samples, values)
        np.testing.assert_allclose(estimated, true_coefficients, atol=1e-8)

    def test_regression_requires_matching_lengths(self, rng):
        basis = PolynomialChaosBasis("hermite", order=1, num_vars=1)
        with pytest.raises(BasisError):
            project_samples(basis, np.zeros((5, 1)), np.zeros(4))

    def test_lognormal_coefficients_reconstruct_moments(self):
        """The analytic Hermite series of exp(s*xi) must reproduce its mean
        and variance: E = exp(s^2/2), Var = exp(s^2)(exp(s^2)-1)."""
        s = 0.6
        coefficients = lognormal_hermite_coefficients(s, max_degree=14)
        mean = coefficients[0]
        variance = np.sum(coefficients[1:] ** 2)
        assert mean == pytest.approx(math.exp(s * s / 2.0), rel=1e-12)
        assert variance == pytest.approx(math.exp(s * s) * (math.exp(s * s) - 1.0), rel=1e-6)

    def test_lognormal_mean_preserving_variant(self):
        s = 0.4
        coefficients = lognormal_hermite_coefficients(s, max_degree=10, mean_preserving=True)
        assert coefficients[0] == pytest.approx(1.0)

    def test_lognormal_matches_quadrature_projection(self):
        s = 0.5
        basis = PolynomialChaosBasis("hermite", order=5, num_vars=1)
        numeric = project_function(basis, lambda x: np.exp(s * x[:, 0]), points_per_dim=40).ravel()
        analytic = lognormal_hermite_coefficients(s, max_degree=5)
        np.testing.assert_allclose(numeric, analytic, atol=1e-8)

    def test_evaluate_expansion_roundtrip(self, rng):
        basis = PolynomialChaosBasis("hermite", order=2, num_vars=2)
        coefficients = rng.normal(size=(basis.size, 3))
        xi = rng.normal(size=(10, 2))
        values = evaluate_expansion(basis, coefficients, xi)
        assert values.shape == (10, 3)
        np.testing.assert_allclose(values, basis.evaluate(xi) @ coefficients)

    def test_evaluate_expansion_rejects_bad_shape(self):
        basis = PolynomialChaosBasis("hermite", order=1, num_vars=1)
        with pytest.raises(BasisError):
            evaluate_expansion(basis, np.zeros(5), np.zeros((3, 1)))

    def test_lognormal_rejects_bad_arguments(self):
        with pytest.raises(BasisError):
            lognormal_hermite_coefficients(-0.1, 3)
        with pytest.raises(BasisError):
            lognormal_hermite_coefficients(0.1, -1)
