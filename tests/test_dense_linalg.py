import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgetrf, dgetrs, dtrtrs

from mteq import (
    SingularMatrix,
    gen_problem1,
    gen_problem3,
    majorization,
    residual,
)
from mteq.dense_linalg import PIVOT_TOL, lower_tri_solve, lu_factor, lu_solve
from mteq.tensor_core import scale_system


def _factors(lu):
    """(perm, L, U) with A[perm] = L U, unpacked from lu = (packed, ipiv)."""
    packed, ipiv = lu
    n = packed.shape[0]
    perm = np.arange(n)
    for k, p in enumerate(ipiv):
        perm[[k, p]] = perm[[p, k]]
    return perm, np.tril(packed, -1) + np.eye(n), np.triu(packed)


class TestLuFactor:
    def test_known_2x2(self):
        perm, L, U = _factors(lu_factor([[4.0, 3.0], [6.0, 3.0]]))
        # pivot row is the second one
        np.testing.assert_array_equal(perm, [1, 0])
        np.testing.assert_allclose(L, [[1.0, 0.0], [2.0 / 3.0, 1.0]])
        np.testing.assert_allclose(U, [[6.0, 3.0], [0.0, 1.0]])

    def test_pivoting_handles_zero_leading_entry(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        F = lu_factor(A)
        np.testing.assert_allclose(lu_solve(F, [2.0, 3.0]), [3.0, 2.0])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor([[1.0, 2.0], [2.0, 4.0]])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            lu_factor(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            lu_factor(np.ones((2, 3)))

    def test_input_not_mutated(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        lu_factor(A)
        np.testing.assert_array_equal(A, [[0.0, 1.0], [1.0, 0.0]])

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**31))
    def test_reconstruction(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        perm, L, U = _factors(lu_factor(A))
        assert sorted(perm) == list(range(n))
        np.testing.assert_allclose(L @ U, A[perm], rtol=1e-10, atol=1e-12)


class TestLuSolve:
    def test_matches_reference_solver(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        b = rng.normal(size=6)
        np.testing.assert_allclose(lu_solve(lu_factor(A), b), np.linalg.solve(A, b), rtol=1e-10)

    def test_identity(self):
        F = lu_factor(np.eye(4))
        b = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_allclose(lu_solve(F, b), b)

    def test_rhs_length_mismatch(self):
        F = lu_factor(np.eye(3))
        with pytest.raises(ValueError):
            lu_solve(F, [1.0, 2.0])

    def test_mmatrix_inverse_is_nonnegative(self):
        # For a strictly diagonally dominant Z-matrix, A^-1 b >= 0 when b >= 0.
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = -rng.random((5, 5))
            np.fill_diagonal(A, 0.0)
            A += np.diag(1.01 * (-A).sum(axis=1) + 0.1)
            y = lu_solve(lu_factor(A), rng.random(5))
            assert np.all(y >= 0.0)


class TestLowerTriSolve:
    def test_known_system(self):
        L = np.array([[2.0, 0.0], [1.0, 4.0]])
        np.testing.assert_allclose(lower_tri_solve(L, [2.0, 9.0]), [1.0, 2.0])

    def test_zero_diagonal_raises(self):
        with pytest.raises(SingularMatrix):
            lower_tri_solve([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])

    def test_ignores_upper_part(self):
        L = np.array([[2.0, 99.0], [1.0, 4.0]])
        np.testing.assert_allclose(lower_tri_solve(L, [2.0, 9.0]), [1.0, 2.0])


def _mmatrix(n, seed, margin):
    """A nonsingular M-matrix s I - B with B >= 0 and s above every row sum of B."""
    rng = np.random.default_rng(seed)
    B = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(B, 0.0)
    return (1.0 + margin) * (B.sum(axis=1).max() + 1.0) * np.eye(n) - B


class TestLapackPath:
    def test_pivot_tol_fires_on_nonzero_pivot(self):
        # LAPACK factors this without complaint (no exact zero pivot), but
        # the last pivot is below PIVOT_TOL times the largest entry.
        with pytest.raises(SingularMatrix, match="column 1"):
            lu_factor([[1.0, 0.0], [0.0, 0.5 * PIVOT_TOL]])
        with pytest.raises(SingularMatrix, match="column 1"):
            lu_factor([[2.0, 2.0], [1.0, 1.0 + 1e-15]])
        lu_factor([[1.0, 0.0], [0.0, 2.0 * PIVOT_TOL]])

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            lu_factor([[1.0, 0.0], [0.0, np.nan]])

    def test_perm_follows_ipiv(self):
        A = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [3.0, 1.0, 0.0]])
        perm, L, U = _factors(lu_factor(A))
        np.testing.assert_array_equal(perm, [2, 0, 1])
        np.testing.assert_allclose(L @ U, A[perm], rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**31), margin=st.floats(0.01, 1.0))
    def test_matches_numpy_on_m_matrices(self, n, seed, margin):
        A = _mmatrix(n, seed, margin)
        b = np.random.default_rng(seed + 1).normal(size=n)
        np.testing.assert_allclose(
            lu_solve(lu_factor(A), b), np.linalg.solve(A, b), rtol=1e-9, atol=1e-12
        )

    def test_diagonal_matrix_bit_identical_to_triangular_solves(self):
        # The diagonal M of P3.  The former elimination loop left a diagonal
        # matrix as it was, with the identity permutation, and solved with a
        # unit-lower then an upper solve_triangular call.
        inst = gen_problem3(50)
        M = majorization(scale_system(inst.tensor, inst.rhs).tensor)
        assert np.count_nonzero(M - np.diag(np.diag(M))) == 0
        F = lu_factor(M)
        np.testing.assert_array_equal(F[1], np.arange(50))  # ipiv: no row interchange
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.normal(size=50) * 10.0 ** rng.integers(-20, 20)
            y = solve_triangular(M, b, lower=True, unit_diagonal=True)
            np.testing.assert_array_equal(lu_solve(F, b), solve_triangular(M, y, lower=False))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("omega", [1.0, 1.3])
    def test_lower_tri_solve_bit_identical_on_gs_sor_matrix(self, seed, omega):
        # P and F of the first gs / sor step on a scaled P1 instance
        inst = gen_problem1(10, seed)
        scaled = scale_system(inst.tensor, inst.rhs)
        M = majorization(scaled.tensor)
        F = residual(scaled.tensor, scaled.rhs, np.zeros(10))
        P = np.tril(M, -1) * omega + np.diag(np.diag(M))
        np.testing.assert_array_equal(
            lower_tri_solve(P, F), solve_triangular(P, F, lower=True)
        )


class TestLapackBinding:
    """The kernel is scipy's LAPACK wrappers called as they are, not
    `scipy.linalg.lu_factor` or `numpy.linalg`: each result equals the
    direct `dgetrf` / `dgetrs` / `dtrtrs` call bit for bit."""

    @pytest.mark.parametrize("n", range(1, 51))
    def test_bit_identical_to_direct_lapack_calls(self, n):
        A = _mmatrix(n, seed=n, margin=0.05)
        b = np.random.default_rng(n + 100).normal(size=n)
        packed, ipiv, info = dgetrf(A)
        assert info == 0
        lu = lu_factor(A)
        np.testing.assert_array_equal(lu[0], packed)
        np.testing.assert_array_equal(lu[1], ipiv)
        np.testing.assert_array_equal(lu_solve(lu, b), dgetrs(packed, ipiv, b)[0])
        # the lower triangle solved through its transpose, as documented
        np.testing.assert_array_equal(lower_tri_solve(A, b), dtrtrs(A.T, b, lower=0, trans=1)[0])
