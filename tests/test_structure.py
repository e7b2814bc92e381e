import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve as scipy_solve

from mteq import (
    DenseTensor,
    DimensionMismatch,
    Existence,
    NoNonnegativeSolution,
    NotStructured,
    NotZTensor,
    Verdict,
    existence_sufficient,
    fixture,
    is_feasible_S,
    is_z_tensor,
    majorization,
    mtensor_certificate,
    residual,
    solve_structured,
    spectral_radius_estimate,
)
from mteq.problems import gen_problem1, gen_problem2, gen_problem3, gen_problem4
from mteq.structure import _solve_majorization
from reference import dense_array, diagonal_array, diagonal_tensor, forbid_n_by_n_zeros, identity_tensor


def random_structured_strong(rng, m, n):
    """Strong M-tensor with entries only at (i, j, ..., j) positions."""
    M = -rng.random((n, n))
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, 1.01 * (-M).sum(axis=1) + 0.1)
    arr = np.zeros((n,) * m)
    for j in range(n):
        arr[(slice(None),) + (j,) * (m - 1)] = M[:, j]
    return DenseTensor(arr)


class TestIsZTensor:
    def test_ex11_is_not(self):
        assert not is_z_tensor(fixture("ex11").tensor)

    def test_ex21_is(self):
        assert is_z_tensor(fixture("ex21").tensor)

    def test_identity_is(self):
        assert is_z_tensor(identity_tensor(4, 3))

    def test_positive_diagonal_not_disqualifying(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = arr[1, 1, 1] = 5.0
        arr[0, 1, 1] = -1.0
        assert is_z_tensor(DenseTensor(arr))


class TestCertificate:
    def test_ex21_values(self):
        cert = mtensor_certificate(fixture("ex21").tensor)
        assert cert.s == 3.0
        assert cert.row_sum_bound == 2.0
        assert cert.verdict is Verdict.STRONG_BY_ROW_SUM

    def test_identity(self):
        cert = mtensor_certificate(identity_tensor(3, 4))
        assert cert.s == 1.0
        assert cert.row_sum_bound == 0.0
        assert cert.verdict is Verdict.STRONG_BY_ROW_SUM

    def test_non_z_raises(self):
        with pytest.raises(NotZTensor):
            mtensor_certificate(fixture("ex11").tensor)

    def test_problem1_certifies(self):
        cert = mtensor_certificate(gen_problem1(8, 3).tensor)
        assert cert.verdict is Verdict.STRONG_BY_ROW_SUM
        assert cert.s > cert.row_sum_bound

    def test_problem2_margin_is_strict(self):
        cert = mtensor_certificate(gen_problem2(6).tensor)
        assert cert.verdict is Verdict.STRONG_BY_ROW_SUM
        assert cert.s - cert.row_sum_bound > 1e-9

    def test_problem3_bound_is_tight(self):
        # interior rows are only weakly dominant, so the row-sum test
        # cannot certify; the verdict must stay Unknown
        cert = mtensor_certificate(gen_problem3(10).tensor)
        assert cert.s == cert.row_sum_bound == 2.0
        assert cert.verdict is Verdict.UNKNOWN

    @pytest.mark.parametrize("build", [lambda n: gen_problem1(n, 0), gen_problem2, lambda n: gen_problem4(n, 0)],
                             ids=["P1", "P2", "P4"])
    def test_dense_certificate_builds_no_copy_of_the_tensor(self, build):
        # the bound is read from T's own row sums, not from s*I - T; what
        # is left is the Z-test's booleans over the packed matrix P and one
        # row of P as Python floats
        T = build(20).tensor
        assert isinstance(T, DenseTensor)
        tracemalloc.start()
        try:
            mtensor_certificate(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * T.packed.nbytes

    def test_power_estimate_requested(self):
        cert = mtensor_certificate(gen_problem1(5, 0).tensor, use_power_method=True)
        assert cert.power_estimate is not None
        assert cert.power_estimate <= cert.row_sum_bound + 1e-9


class TestSpectralRadiusEstimate:
    def test_ex21_offpart_estimates_zero(self):
        T = fixture("ex21").tensor
        B = DenseTensor(3.0 * diagonal_array(4, np.ones(2)) - dense_array(T))
        assert spectral_radius_estimate(B) == 0.0

    def test_diagonal_tensor(self):
        arr = np.zeros((3, 3, 3))
        for i, v in enumerate([1.0, 4.0, 2.0]):
            arr[i, i, i] = v
        assert spectral_radius_estimate(DenseTensor(arr)) == pytest.approx(4.0)

    def test_bounded_by_row_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = rng.random((4, 4, 4))
            bound = A.reshape(4, -1).sum(axis=1).max()
            assert spectral_radius_estimate(DenseTensor(A)) <= bound + 1e-9

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius_estimate(DenseTensor(-np.ones((2, 2))))


class TestFeasibility:
    def test_ex22_feasible_point(self):
        inst = fixture("ex22")
        rep = is_feasible_S(inst.tensor, inst.rhs, [1.5, 2.0])
        assert rep.in_S
        assert rep.residual_max == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            residual(inst.tensor, inst.rhs, [1.5, 2.0]), [-0.25, 0.0], atol=1e-12
        )

    def test_ex22_infeasible_point(self):
        inst = fixture("ex22")
        rep = is_feasible_S(inst.tensor, inst.rhs, [0.0, 2.0])
        assert not rep.in_S
        assert rep.residual_max == pytest.approx(2.0)

    def test_negative_entry_rejected(self):
        inst = fixture("ex22")
        rep = is_feasible_S(inst.tensor, inst.rhs, [-1.0, 0.0])
        assert not rep.is_nonneg and not rep.in_S

    def test_zero_feasible_for_positive_rhs(self):
        inst = gen_problem1(6, 1)
        assert is_feasible_S(inst.tensor, inst.rhs, np.zeros(6)).in_S

    def test_tolerance_is_relative_to_the_system(self):
        # F_2 = 4e-9 at x = (2, 2 + 1e-9): outside S at any scale
        inst = fixture("ex22")
        x = [2.0, 2.0 + 1e-9]
        for k in (0, -40):
            T = DenseTensor(np.ldexp(dense_array(inst.tensor), k))
            assert not is_feasible_S(T, np.ldexp(inst.rhs, k), x).in_S

    def test_identically_zero_system_is_in_S(self):
        T = DenseTensor(np.zeros((2, 2, 2)))
        assert is_feasible_S(T, np.zeros(2), [1.0, 2.0]).in_S
        assert not is_feasible_S(T, np.zeros(2), [-1.0, 2.0]).in_S

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, value):
        inst = fixture("ex22")
        b = inst.rhs.copy()
        b[0] = value
        with pytest.raises(ValueError, match="b must be finite"):
            is_feasible_S(inst.tensor, b, [1.5, 2.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_x_rejected(self, value):
        inst = fixture("ex22")
        with pytest.raises(ValueError, match="x must be finite"):
            is_feasible_S(inst.tensor, inst.rhs, [value, 2.0])


class TestSolveStructured:
    def test_ex11_exact(self):
        inst = fixture("ex11")
        np.testing.assert_allclose(solve_structured(inst.tensor, inst.rhs), [1.0, 0.0, 0.0])

    def test_offmajor_entries_rejected(self):
        inst = fixture("ex22")
        with pytest.raises(NotStructured):
            solve_structured(inst.tensor, inst.rhs)

    def test_no_nonnegative_solution(self):
        with pytest.raises(NoNonnegativeSolution):
            solve_structured(identity_tensor(3, 2), [-1.0, 1.0])

    def test_negative_entry_at_any_scale(self):
        for b in ([1.0, -1.0], [1e-15, -1e-15]):
            with pytest.raises(NoNonnegativeSolution):
                solve_structured(identity_tensor(3, 2), b)

    def test_problem3_at_scale_builds_no_n_by_n_array(self, monkeypatch):
        inst = gen_problem3(2000)

        def densify(*args):
            raise AssertionError("a COO tensor was densified")

        forbid_n_by_n_zeros(monkeypatch, inst.n)
        monkeypatch.setattr(DenseTensor, "from_sparse", densify)
        with pytest.raises(NotStructured):
            solve_structured(inst.tensor, inst.rhs)

    def test_random_structured_solutions_verify(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            T = random_structured_strong(rng, 3, 5)
            b = rng.random(5)
            x = solve_structured(T, b)
            assert np.all(x >= 0.0)
            np.testing.assert_allclose(residual(T, b, x), np.zeros(5), atol=1e-10)


class TestExistence:
    def test_ex21_inconclusive(self):
        inst = fixture("ex21")
        assert existence_sufficient(inst.tensor, inst.rhs) is Existence.INCONCLUSIVE

    def test_positive(self):
        assert existence_sufficient(identity_tensor(3, 2), [1.0, 2.0]) is Existence.POSITIVE

    def test_nonnegative_boundary(self):
        assert existence_sufficient(identity_tensor(3, 2), [0.0, 2.0]) is Existence.NONNEGATIVE

    def test_positive_at_any_scale(self):
        for b in ([1.0, 1.0], [1e-15, 1e-15]):
            assert existence_sufficient(identity_tensor(4, 2), b) is Existence.POSITIVE

    def test_sufficient_condition_verified_by_solve(self):
        # whenever the test reports Positive, the structured solve confirms it
        rng = np.random.default_rng(4)
        T = random_structured_strong(rng, 4, 4)
        b = rng.random(4) + 0.1
        assert existence_sufficient(T, b) is Existence.POSITIVE
        assert np.all(solve_structured(T, b) > 0.0)

    def test_problem3_at_scale_builds_no_n_by_n_array(self, monkeypatch):
        # P3's M is diagonal: y = b / diagonal(T), with no M
        inst = gen_problem3(2000)
        forbid_n_by_n_zeros(monkeypatch, inst.n)
        assert existence_sufficient(inst.tensor, inst.rhs) is Existence.NONNEGATIVE

    def test_tiny_diagonal_entry_is_data(self):
        # a diagonal M is singular only at an exact zero; LU rejected the pivot 1e-20
        T = diagonal_tensor(3, [1.0, 1e-20])
        assert existence_sufficient(T, [1.0, 1e-20]) is Existence.POSITIVE

    def test_majorization_solve_agrees_with_lu(self):
        # scipy's LU solve is the reference for M^-1 b
        inst = fixture("ex21")
        y = scipy_solve(majorization(inst.tensor), inst.rhs)
        np.testing.assert_allclose(y, [-1.0, 8.0])
        np.testing.assert_allclose(_solve_majorization(inst.tensor, inst.rhs)[0], y, rtol=1e-14)


@pytest.mark.parametrize("check", [existence_sufficient, solve_structured])
def test_wrong_length_rhs_is_dimension_mismatch(check):
    with pytest.raises(DimensionMismatch, match="expected vector of length 2"):
        check(identity_tensor(3, 2), [1.0, 2.0, 3.0])


@st.composite
def near_boundary_systems(draw):
    """(T, b, x): a random structured strong M-tensor, a b of mixed signs
    and magnitudes from 1e-20 to 1, and x the positive part of the
    structured solution moved by a relative 1e-16 to 1e-6, so that the
    verdicts below fall on both sides."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = random_structured_strong(rng, m, n)
    b = rng.choice([-1.0, 1.0], n, p=[0.2, 0.8]) * 10.0 ** rng.uniform(-20.0, 0.0, n)
    y = np.linalg.solve(majorization(T), b)
    x = np.abs(y) ** (1.0 / (m - 1)) * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16.0, -6.0, n))
    return T, b, x


class TestScaleInvariance:
    """The structural verdicts read tolerances in the units of the system,
    so multiplying it by 2^k, which is exact, changes none of them."""

    @settings(max_examples=60, deadline=None)
    @given(system=near_boundary_systems(), k=st.integers(-60, 60))
    def test_verdicts_do_not_change_under_powers_of_two(self, system, k):
        T, b, x = system
        Tk, bk = DenseTensor(np.ldexp(dense_array(T), k)), np.ldexp(b, k)
        assert is_feasible_S(Tk, bk, x).in_S == is_feasible_S(T, b, x).in_S
        assert existence_sufficient(T, bk) is existence_sufficient(T, b)
        assert raises_no_solution(T, bk) == raises_no_solution(T, b)


def raises_no_solution(T, b) -> bool:
    try:
        solve_structured(T, b)
    except NoNonnegativeSolution:
        return True
    return False
