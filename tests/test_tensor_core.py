import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteq import (
    DenseTensor,
    NegativePowerRHS,
    contract_full,
    contract_matrix,
    elementwise_power,
    elementwise_root,
    fixture,
    identity_tensor,
    majorization,
    residual,
    scale_system,
    semi_symmetrize,
    split_offmajor,
)
from mteq.errors import DimensionMismatch
from mteq.problems import gen_problem3
from mteq.tensor_core import ROOT_CLAMP_TOL, SparseTensor, _contract


def random_tensor(rng, m, n):
    return DenseTensor(rng.uniform(-1.0, 1.0, size=(n,) * m))


tensor_shapes = st.tuples(st.integers(2, 4), st.integers(1, 4))


class TestContractFull:
    def test_identity_returns_power(self):
        T = identity_tensor(3, 2)
        np.testing.assert_allclose(contract_full(T, [2.0, 3.0]), [4.0, 9.0])

    def test_ex22_known_solution(self):
        inst = fixture("ex22")
        np.testing.assert_allclose(contract_full(inst.tensor, [2.0, 2.0]), [-6.0, 4.0])

    def test_ex21_known_solution(self):
        inst = fixture("ex21")
        np.testing.assert_allclose(contract_full(inst.tensor, [1.0, 2.0]), [-7.0, 24.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contract_full(identity_tensor(3, 2), [1.0, 2.0, 3.0])

    @settings(max_examples=30, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**31), t=st.floats(0.1, 3.0))
    def test_homogeneity(self, shape, seed, t):
        m, n = shape
        rng = np.random.default_rng(seed)
        T = random_tensor(rng, m, n)
        x = rng.uniform(-1.0, 1.0, n)
        lhs = contract_full(T, t * x)
        rhs = t ** (m - 1) * contract_full(T, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestContractMatrix:
    def test_identity_diagonal(self):
        T = identity_tensor(3, 2)
        np.testing.assert_allclose(contract_matrix(T, [2.0, 3.0]), np.diag([2.0, 3.0]))

    def test_ex22_by_hand(self):
        # expand sum_k t[i, j, k] x_k for x = (1, 2)
        inst = fixture("ex22")
        np.testing.assert_allclose(
            contract_matrix(inst.tensor, [1.0, 2.0]), [[-2.0, -2.0], [0.0, 2.0]]
        )

    def test_zero_vector_gives_zero_matrix(self):
        inst = fixture("ex21")
        np.testing.assert_allclose(contract_matrix(inst.tensor, [0.0, 0.0]), np.zeros((2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**31))
    def test_consistency_with_contract_full(self, shape, seed):
        m, n = shape
        rng = np.random.default_rng(seed)
        T = random_tensor(rng, m, n)
        x = rng.uniform(-1.0, 1.0, n)
        np.testing.assert_allclose(
            contract_matrix(T, x) @ x, contract_full(T, x), rtol=1e-12, atol=1e-12
        )


class TestResidual:
    def test_exact_solution(self):
        inst = fixture("ex22")
        np.testing.assert_allclose(residual(inst.tensor, inst.rhs, [2.0, 2.0]), [0.0, 0.0])

    def test_ex21_partial_point(self):
        inst = fixture("ex21")
        np.testing.assert_allclose(
            residual(inst.tensor, inst.rhs, [0.8, 2.0]), [-0.264, 0.0], atol=1e-12
        )

    def test_at_zero_is_minus_b(self):
        inst = fixture("ex21")
        np.testing.assert_allclose(residual(inst.tensor, inst.rhs, [0.0, 0.0]), -inst.rhs)


class TestElementwise:
    def test_integer_power(self):
        np.testing.assert_allclose(elementwise_power([2.0, 3.0], 3), [8.0, 27.0])

    def test_cube_roots(self):
        np.testing.assert_allclose(elementwise_power([0.512, 8.0], 1 / 3), [0.8, 2.0])

    def test_ones_fixed(self):
        np.testing.assert_allclose(elementwise_power(np.ones(4), 0.37), np.ones(4))

    def test_fractional_power_of_negative_raises(self):
        with pytest.raises(NegativePowerRHS):
            elementwise_power([-1.0, 4.0], 0.5)

    def test_root_values(self):
        np.testing.assert_allclose(
            elementwise_root([0.6, 8.0], 4), [0.843433, 2.0], atol=5e-7
        )

    def test_root_of_zero(self):
        np.testing.assert_allclose(elementwise_root(np.zeros(3), 5), np.zeros(3))

    def test_root_clamps_rounding_noise(self):
        out = elementwise_root([-1e-15, 4.0], 3)
        np.testing.assert_allclose(out, [0.0, 2.0])

    def test_root_rejects_true_negatives(self):
        with pytest.raises(NegativePowerRHS):
            elementwise_root([-1.0, 4.0], 3)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_root_of_nonnegative_is_bit_identical_to_clamped_root(self, m):
        # the clamp is skipped when no entry is negative; -0.0 is not negative
        v = np.array([0.0, -0.0, 5e-324, 1e-300, 0.6, 8.0, 3.7e10])
        ref = np.where(v < 0.0, 0.0, v) ** (1.0 / (m - 1))
        assert elementwise_root(v, m).tobytes() == ref.tobytes()

    def test_root_clamps_down_to_the_tolerance(self):
        v = np.array([-ROOT_CLAMP_TOL, -0.5 * ROOT_CLAMP_TOL, -5e-324, 8.0])
        out = elementwise_root(v, 4)
        assert out.tobytes() == np.array([0.0, 0.0, 0.0, 2.0]).tobytes()
        assert v[0] == -ROOT_CLAMP_TOL  # the input is left as it was

    def test_root_rejects_just_below_the_tolerance(self):
        with pytest.raises(NegativePowerRHS):
            elementwise_root([np.nextafter(-ROOT_CLAMP_TOL, -1.0), 8.0], 4)


class TestMajorization:
    def test_ex11_matrix(self):
        inst = fixture("ex11")
        np.testing.assert_allclose(
            majorization(inst.tensor).values, [[1, 0, 0], [1, 1, 0], [-1, 1, 1]]
        )

    def test_ex22_matrix(self):
        inst = fixture("ex22")
        np.testing.assert_allclose(majorization(inst.tensor).values, [[1, -1], [0, 1]])

    def test_identity(self):
        np.testing.assert_allclose(majorization(identity_tensor(4, 3)).values, np.eye(3))

    @settings(max_examples=30, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**31))
    def test_major_part_acts_as_matrix(self, shape, seed):
        m, n = shape
        rng = np.random.default_rng(seed)
        T = random_tensor(rng, m, n)
        x = rng.uniform(-1.0, 1.0, n)
        major_part = DenseTensor(T.array - split_offmajor(T).array)
        np.testing.assert_allclose(
            contract_full(major_part, x),
            majorization(T).values @ x ** (m - 1),
            rtol=1e-12,
            atol=1e-12,
        )


class TestSplitOffmajor:
    def test_structured_tensor_has_no_offmajor(self):
        inst = fixture("ex11")  # only (i, j, j) entries
        assert np.all(split_offmajor(inst.tensor).array == 0.0)

    def test_ex22_single_offmajor_entry(self):
        inst = fixture("ex22")
        off = split_offmajor(inst.tensor)
        assert off.entry(1, 1, 2) == -1.5
        assert np.count_nonzero(off.array) == 1

    def test_identity_is_pure_major(self):
        assert np.all(split_offmajor(identity_tensor(3, 4)).array == 0.0)


class TestIdentityTensor:
    def test_entries(self):
        T = identity_tensor(3, 2)
        assert T.entry(1, 1, 1) == 1.0 and T.entry(2, 2, 2) == 1.0
        assert np.count_nonzero(T.array) == 2

    def test_contract_is_elementwise_power(self):
        x = np.array([1.5, -0.5, 2.0])
        np.testing.assert_allclose(contract_full(identity_tensor(4, 3), x), x**3)

    def test_majorization_is_identity(self):
        np.testing.assert_allclose(majorization(identity_tensor(5, 3)).values, np.eye(3))


class TestSemiSymmetrize:
    def test_ex22_averaging(self):
        sym = semi_symmetrize(fixture("ex22").tensor)
        assert sym.entry(1, 1, 2) == pytest.approx(-0.75)
        assert sym.entry(1, 2, 1) == pytest.approx(-0.75)
        assert sym.entry(1, 2, 2) == pytest.approx(-1.0)

    @settings(max_examples=30, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**31))
    def test_preserves_contraction_and_idempotent(self, shape, seed):
        m, n = shape
        rng = np.random.default_rng(seed)
        T = random_tensor(rng, m, n)
        x = rng.uniform(-1.0, 1.0, n)
        sym = semi_symmetrize(T)
        np.testing.assert_allclose(
            contract_full(sym, x), contract_full(T, x), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(semi_symmetrize(sym).array, sym.array, rtol=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        T = semi_symmetrize(random_tensor(rng, 4, 4))
        x = rng.uniform(0.5, 1.5, 4)
        jac = (T.order - 1) * contract_matrix(T, x)
        fd = np.empty_like(jac)
        for i in range(4):
            h = 1e-6 * (1.0 + abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[:, i] = (contract_full(T, xp) - contract_full(T, xm)) / (2 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-8)


class TestScaleSystem:
    def test_ex21_scale_factor(self):
        inst = fixture("ex21")
        scaled = scale_system(inst.tensor, inst.rhs)
        assert scaled.scale == 24.0
        np.testing.assert_allclose(scaled.rhs, [-7 / 24, 1.0])
        assert np.abs(scaled.tensor.array).max() <= 1.0

    def test_already_scaled_unchanged(self):
        T = identity_tensor(3, 2)
        scaled = scale_system(T, [1.0, 1.0])
        assert scaled.scale == 1.0
        np.testing.assert_allclose(scaled.tensor.array, T.array)

    def test_problem3_scale_is_boundary_cube(self):
        inst = gen_problem3(10)
        scaled = scale_system(inst.tensor, inst.rhs)
        assert scaled.scale == pytest.approx(2.58475e20, rel=1e-5)

    def test_residual_scales_linearly(self):
        rng = np.random.default_rng(3)
        T = random_tensor(rng, 3, 4)
        b = rng.uniform(-1.0, 1.0, 4)
        x = rng.uniform(0.0, 1.0, 4)
        scaled = scale_system(T, b)
        np.testing.assert_allclose(
            residual(scaled.tensor, scaled.rhs, x),
            residual(T, b, x) / scaled.scale,
            rtol=1e-12,
            atol=1e-15,
        )

    def test_zero_system_rejected(self):
        T = DenseTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            scale_system(T, [0.0, 0.0])

    @pytest.mark.parametrize("tensor_max, b_max", [(3.0, 1.0), (-5.0, 1.0), (0.5, -2.0)])
    def test_dense_quotient_is_bit_identical(self, tensor_max, b_max):
        # the largest magnitude may be a negative tensor entry or sit in b
        rng = np.random.default_rng(11)
        arr = rng.uniform(-0.4, 0.4, size=(4, 4, 4))
        arr[1, 2, 3] = tensor_max
        b = rng.uniform(-0.4, 0.4, 4)
        b[2] = b_max
        scaled = scale_system(DenseTensor(arr), b)
        w = max(np.abs(arr).max(), np.abs(b).max())
        assert scaled.scale == w
        assert scaled.tensor.array.tobytes() == (arr / w).tobytes()
        assert scaled.rhs.tobytes() == (b / w).tobytes()
        assert not scaled.tensor.array.flags.writeable
        assert isinstance(scaled.tensor, DenseTensor)


class TestCooContraction:
    @pytest.mark.parametrize("keep", [1, 2])
    def test_bit_identical_to_row_gathers_in_mode_order(self, keep):
        T = gen_problem3(12).tensor
        assert T.idx.flags.f_contiguous
        assert all(c.flags.c_contiguous for c in T.cols)
        x = np.random.default_rng(5).uniform(0.0, 2.0, 12)
        idx = np.ascontiguousarray(T.idx)
        w = T.vals
        for k in range(keep, T.order):
            w = w * x[idx[:, k]]
        rows = idx[:, 0] if keep == 1 else idx[:, 0] * 12 + idx[:, 1]
        ref = np.bincount(rows, weights=w, minlength=12**keep)
        assert _contract(T, x, keep).tobytes() == ref.tobytes()

    def test_columns_follow_taken_entries(self):
        T = split_offmajor(gen_problem3(8).tensor)
        assert isinstance(T, SparseTensor) and T.idx.flags.f_contiguous
        for k, c in enumerate(T.cols):
            np.testing.assert_array_equal(c, T.idx[:, k])
            assert c.flags.c_contiguous and not c.flags.writeable


class TestDenseTensor:
    def test_from_entries_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DenseTensor.from_entries(3, 2, [[1, 1, 1, 1.0], [1, 1, 1, 2.0]])

    def test_from_entries_out_of_range(self):
        with pytest.raises(ValueError):
            DenseTensor.from_entries(3, 2, [[1, 1, 3, 1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor(np.full((2, 2), np.nan))

    def test_immutable(self):
        T = identity_tensor(3, 2)
        with pytest.raises(ValueError):
            T.array[0, 0, 0] = 5.0
