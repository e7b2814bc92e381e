"""The dense M-solve.  A majorization matrix M that is not diagonal is
inverted once per run by `numpy.linalg.inv` (smeqm, anewton and the
existence test), and gs and sor invert their lower splitting part
P = diag(d) + omega tril(M, -1) and keep the lower triangle of the result;
each step is then one product.  M is singular when it cannot be inverted
or its 1-norm reciprocal condition number is below RCOND_TOL, and P when
it has a zero diagonal entry.

The classes keep the names of the LU and triangular-solve kernel that this
rule replaced; each covers the behaviour of that kernel that still exists:
TestLuFactor the inverse of M, TestLuSolve one step's product with it,
TestLowerTriSolve gs's and sor's lower part P, TestLapackPath when M counts
as singular and agreement with scipy, and TestLapackBinding the bits of
numpy's inverse.  scipy's LU and triangular solves are the reference.
Every matrix here is the M of an order-2 tensor, whose M is the tensor
itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve, solve_triangular

from mteq import (
    DenseTensor,
    SingularMatrix,
    SolveConfig,
    Status,
    gen_problem1,
    gen_problem3,
    majorization,
    residual,
    solve,
)
from mteq.solvers import RCOND_TOL, _prepared_solve

EPS = np.finfo(np.float64).eps


def m_solve(A, method="smeqm", omega=1.0):
    """v -> A^{-1} v (smeqm) or the gs / sor solve with A's lower part, as
    `method` prepares it for the order-2 tensor A."""
    return _prepared_solve(method, DenseTensor(A), omega)[0]


def inverse(A, method="smeqm"):
    """The matrix that `method`'s solve multiplies by, read off the solve of I."""
    return m_solve(A, method)(np.eye(len(A)))


def assert_rounding_close(y, ref, A):
    """|y - ref| <= 4 n u cond_1(A) max|ref| entrywise: each is a backward
    stable solve, or the inverse times v, of a system with this condition."""
    bound = 4 * len(A) * EPS * np.linalg.cond(A, 1) * np.abs(ref).max(initial=0.0)
    assert np.abs(y - ref).max(initial=0.0) <= bound


def _mmatrix(n, seed, margin):
    """A nonsingular M-matrix s I - B with B >= 0 and s above every row sum of B."""
    rng = np.random.default_rng(seed)
    B = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(B, 0.0)
    return (1.0 + margin) * (B.sum(axis=1).max() + 1.0) * np.eye(n) - B


class TestLuFactor:
    """Preparing smeqm's and anewton's solve: M is inverted, where it was
    once LU-factored."""

    def test_known_2x2(self):
        np.testing.assert_allclose(inverse([[4.0, 3.0], [6.0, 3.0]]), [[-0.5, 0.5], [1.0, -2.0 / 3.0]],
                                   rtol=1e-15)

    def test_pivoting_handles_zero_leading_entry(self):
        np.testing.assert_allclose(m_solve([[0.0, 1.0], [1.0, 0.0]])([2.0, 3.0]), [3.0, 2.0])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix, match="majorization matrix is singular"):
            m_solve([[1.0, 2.0], [2.0, 4.0]])

    def test_zero_matrix_raises(self):
        # a zero M is diagonal, and its diagonal entries are zero
        with pytest.raises(SingularMatrix):
            m_solve(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        # M is n x n by construction: a tensor with unequal modes is refused
        with pytest.raises(ValueError, match="equal dimension"):
            DenseTensor(np.ones((2, 3)))

    def test_input_not_mutated(self):
        T = DenseTensor([[0.0, 1.0], [1.0, 0.0]])
        _prepared_solve("smeqm", T)
        np.testing.assert_array_equal(majorization(T), [[0.0, 1.0], [1.0, 0.0]])

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**31))
    def test_reconstruction(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        np.testing.assert_allclose(inverse(A) @ A, np.eye(n), rtol=1e-10, atol=1e-10)


class TestLuSolve:
    """One step's solve: the inverse of M times v."""

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        b = rng.normal(size=6)
        np.testing.assert_allclose(m_solve(A)(b), np.linalg.solve(A, b), rtol=1e-10)

    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_allclose(m_solve(np.eye(4))(b), b)

    def test_rhs_length_mismatch(self):
        solve_with = m_solve([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        with pytest.raises(ValueError):
            solve_with([1.0, 2.0])

    def test_mmatrix_inverse_is_nonnegative(self):
        # For a strictly diagonally dominant Z-matrix A, A^-1 >= 0 and so is
        # the inverse of its lower part; A^-1 b >= 0 when b >= 0.
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = -rng.random((5, 5))
            np.fill_diagonal(A, 0.0)
            A += np.diag(1.01 * (-A).sum(axis=1) + 0.1)
            for method in ("smeqm", "gs"):
                assert np.all(inverse(A, method) >= 0.0)
                assert np.all(m_solve(A, method)(rng.random(5)) >= 0.0)


class TestLowerTriSolve:
    """gs's solve with P = tril(M): the lower triangle of P's inverse times v."""

    def test_known_system(self):
        L = np.array([[2.0, 0.0], [1.0, 4.0]])
        np.testing.assert_allclose(m_solve(L, "gs")([2.0, 9.0]), [1.0, 2.0])

    def test_zero_diagonal_raises(self):
        with pytest.raises(SingularMatrix, match="zero diagonal entry"):
            m_solve([[0.0, 0.0], [1.0, 1.0]], "gs")

    def test_ignores_upper_part(self):
        L = np.array([[2.0, 99.0], [1.0, 4.0]])
        np.testing.assert_allclose(m_solve(L, "gs")([2.0, 9.0]), [1.0, 2.0])


class TestLapackPath:
    """Where M counts as singular, and agreement with scipy's solves."""

    def test_pivot_tol_fires_on_nonzero_pivot(self):
        # No pivot is exactly zero; rcond_1 is about the last one, eps.
        for eps in (0.5 * RCOND_TOL, 0.1 * RCOND_TOL):
            with pytest.raises(SingularMatrix, match="reciprocal condition"):
                m_solve([[1.0, 0.0], [eps, eps]])
        with pytest.raises(SingularMatrix, match="reciprocal condition"):
            m_solve([[2.0, 2.0], [1.0, 1.0 + 1e-15]])
        m_solve([[1.0, 0.0], [2.0 * RCOND_TOL, 2.0 * RCOND_TOL]])

    @pytest.mark.parametrize("M", [
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0], [0.5 * RCOND_TOL, 0.5 * RCOND_TOL]],
    ], ids=["exactly-singular", "near-singular"])
    @pytest.mark.parametrize("method", ["smeqm", "anewton"])
    def test_singular_m_ends_the_run(self, M, method):
        out = solve(DenseTensor(M), [1.0, 1.0], None, SolveConfig(method=method))
        assert (out.status, out.iterations) == (Status.SINGULAR_MATRIX, 0)

    def test_non_finite_matrix_rejected(self):
        # a non-finite entry never reaches M, and an M whose 1-norm overflows is singular
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(SingularMatrix, match="reciprocal condition"):
            m_solve([[1e308, -1e308], [0.0, 1e308]])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**31), margin=st.floats(0.01, 1.0))
    def test_matches_numpy_on_m_matrices(self, n, seed, margin):
        A = _mmatrix(n, seed, margin)
        b = np.random.default_rng(seed + 1).normal(size=n)
        y = m_solve(A)(b)
        assert_rounding_close(y, np.linalg.solve(A, b), A)
        assert_rounding_close(y, lu_solve(lu_factor(A), b), A)

    def test_diagonal_matrix_bit_identical_to_triangular_solves(self):
        # The diagonal M of P3 is solved by a division, which rounds as the
        # unit-lower then upper triangular solves of its LU factors.
        T = gen_problem3(50).tensor
        M = majorization(T)
        assert np.count_nonzero(M - np.diag(np.diag(M))) == 0
        solve_with = _prepared_solve("smeqm", T)[0]
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.normal(size=50) * 10.0 ** rng.integers(-20, 20)
            y = solve_triangular(M, b, lower=True, unit_diagonal=True)
            np.testing.assert_array_equal(solve_with(b), solve_triangular(M, y, lower=False))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("omega", [1.0, 1.3])
    def test_lower_tri_solve_bit_identical_on_gs_sor_matrix(self, seed, omega):
        # P and F of the first gs / sor step on a P1 instance, as solve()
        # runs it: the prepared solve is tril(inv(P)) @ F bit for bit, and
        # agrees with a forward substitution
        inst = gen_problem1(10, seed)
        M = majorization(inst.tensor)
        F = residual(inst.tensor, inst.rhs, np.zeros(10))
        P = np.tril(M, -1) * omega + np.diag(np.diag(M))
        y = _prepared_solve("sor" if omega != 1.0 else "gs", inst.tensor, omega)[0](F)
        np.testing.assert_array_equal(y, np.tril(np.linalg.inv(P)) @ F)
        assert_rounding_close(y, solve_triangular(P, F, lower=True), P)


class TestLapackBinding:
    """M and P are inverted by `numpy.linalg.inv`, a direct call of LAPACK's
    gesv on the identity: each prepared solve is that inverse times v bit for
    bit, and agrees with scipy's LU and triangular solves within rounding."""

    @pytest.mark.parametrize("n", range(1, 51))
    def test_bit_identical_to_direct_lapack_calls(self, n):
        A = _mmatrix(n, seed=n, margin=0.05)
        b = np.random.default_rng(n + 100).normal(size=n)
        P = np.tril(A)
        if np.count_nonzero(A - np.diag(np.diag(A))):
            np.testing.assert_array_equal(m_solve(A)(b), np.linalg.inv(A) @ b)
            np.testing.assert_array_equal(m_solve(A, "gs")(b), np.tril(np.linalg.inv(P)) @ b)
        else:  # a diagonal M is divided by
            np.testing.assert_array_equal(m_solve(A)(b), b / np.diag(A))
        assert_rounding_close(m_solve(A)(b), lu_solve(lu_factor(A), b), A)
        assert_rounding_close(m_solve(A, "gs")(b), solve_triangular(P, b, lower=True), P)
