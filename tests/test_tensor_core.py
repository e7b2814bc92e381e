import math
import pickle
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mteq import (
    DenseTensor,
    NegativePowerRHS,
    SolveConfig,
    Status,
    contract_full,
    elementwise_root,
    fixture,
    is_z_tensor,
    majorization,
    residual,
    solve,
)
from mteq import solvers, tensor_core
from mteq.errors import DimensionMismatch
from mteq.problems import gen_problem1, gen_problem3
from mteq.tensor_core import (
    ROOT_CLAMP_TOL,
    SparseTensor,
    diagonal,
    _contract,
    _is_number,
    _majorization_unless_diagonal,
    _packing,
    _row_split,
    has_offmajor,
    identity_minus,
    magnitudes,
    scale_system,
    symmetrize,
)
from reference import (
    coo,
    dense_array,
    dense_contract,
    diagonal_array,
    gathered_products,
    identity_tensor,
    jacobian,
    reference_permutation_mean,
    semi_symmetrize,
)


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


@st.composite
def dense_contractions(draw):
    """A random non-symmetric dense tensor, m in 2..5 and n in 1..8, and an x
    with negative entries, zeros and -0.0."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    x = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return rng.uniform(-1.0, 1.0, size=(n,) * m), np.array(x)


class TestPackedContraction:
    @settings(max_examples=60, deadline=None)
    @given(case=dense_contractions())
    @example(case=(np.arange(16.0).reshape(2, 2, 2, 2) - 7.5, np.array([0.0, -1.5])))
    # x_2^4 = 3.5e-313 is subnormal, and the two orders of summation differ by 5e-324
    @example(case=(np.random.default_rng(2).uniform(-1.0, 1.0, size=(2,) * 5),
                   np.array([0.0, 7.70165432e-79])))
    def test_matches_reshape_matmul(self, case):
        A, x = case
        m, n = A.ndim, A.shape[0]
        T = DenseTensor(A)
        # Rounding is relative to the size of the terms summed, |T| |x|^{m-1},
        # except in the subnormal range, where each of the at most m roundings
        # of each of the n^{m-1} terms errs by up to half the smallest subnormal.
        scale = dense_contract(np.abs(A), np.abs(x)).max()
        subnormal = m * n ** (m - 1) * np.finfo(np.float64).smallest_subnormal
        np.testing.assert_allclose(contract_full(T, x), dense_contract(A, x), rtol=1e-12,
                                   atol=1e-12 * scale + subnormal)
        assert T.packed.shape == (n, math.comb(n + m - 2, m - 1))

    @settings(max_examples=60, deadline=None)
    @given(case=dense_contractions())
    @example(case=(np.arange(16.0).reshape(2, 2, 2, 2) - 7.5, np.array([-0.0, -1.5])))
    def test_products_match_one_gather_per_mode(self, case):
        # z from the outer product x x^T is the gathered z bit for bit, for
        # T x^{m-1} and for |T| |x|^{m-1}
        A, x = case
        T = DenseTensor(A)
        cols = _packing(A.shape[0], A.ndim).cols
        for v, values in ((x, T.packed), (np.abs(x), magnitudes(T))):
            expected = values @ gathered_products(v, cols)
            assert _contract(T, v, values).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m, n", [(3, 90), (4, 37)])
    def test_array_and_entries_pack_the_same_bits(self, m, n):
        # the constructor bins each row of the array, from_sparse all the
        # entries at once; both add each sum's orderings in the same order
        rng = np.random.default_rng([m, n])
        A, x = rng.uniform(-1.0, 1.0, size=(n,) * m), rng.uniform(-1.0, 1.0, n)
        A[rng.random(A.shape) < 0.5] = 0.0
        T = DenseTensor(A)
        assert DenseTensor.from_sparse(coo(A)).packed.tobytes() == T.packed.tobytes()
        scale = dense_contract(np.abs(A), np.abs(x)).max()
        np.testing.assert_allclose(contract_full(T, x), dense_contract(A, x), rtol=1e-12, atol=1e-12 * scale)

    @pytest.fixture
    def events(self, monkeypatch):
        """Each dense tensor packed from its rows, by the constructor or a
        generator, as ("pack", tensor), and each solver step, in order."""
        log, pack, step = [], DenseTensor._pack, solvers.Stepper.step

        def packing(T, order, dim, rows):
            log.append(("pack", T))
            return pack(T, order, dim, rows)

        def stepping(self, xpow, F):
            log.append(("step", None))
            return step(self, xpow, F)

        monkeypatch.setattr(DenseTensor, "_pack", packing)
        monkeypatch.setattr(solvers.Stepper, "step", stepping)
        return log

    @pytest.mark.parametrize("first, second", [("smeqm", "anewton"), ("anewton", "smeqm")])
    def test_the_constructor_packs_once(self, events, first, second):
        # the generator packs its draw once, row by row, builds its tensor
        # from that packed matrix, and no run packs again
        inst = gen_problem1(6, 0)
        assert [kind for kind, _ in events] == ["pack"] and events[0][1] is not inst.tensor
        P = inst.tensor.packed
        events.clear()
        for method in (first, second):
            out = solve(inst.tensor, inst.rhs, None, SolveConfig(method=method))
            assert out.status is Status.CONVERGED and out.iterations > 1
        assert events and all(kind == "step" for kind, _ in events)
        assert inst.tensor.packed is P

    def test_solve_uses_the_packing_a_tensor_holds(self, events):
        inst = gen_problem1(6, 0)
        P = inst.tensor.packed
        assert solve(inst.tensor, inst.rhs, None, SolveConfig(method="anewton")).status is Status.CONVERGED
        assert [kind for kind, _ in events if kind == "pack"] == ["pack"]
        assert inst.tensor.packed is P

    def test_solve_holds_less_than_a_tensor_copy(self):
        # the one copy a run makes is |P| for the backward error (`magnitudes`)
        inst = gen_problem1(20, 0)
        tracemalloc.start()
        try:
            out = solve(inst.tensor, inst.rhs, None, SolveConfig(method="anewton"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status is Status.CONVERGED
        assert peak < 1.5 * inst.tensor.packed.nbytes

    def test_tensor_keeps_its_packing(self, events):
        # the one packing is of the generator's draw; contractions add none
        T = gen_problem1(5, 0).tensor
        P = T.packed
        contract_full(T, np.ones(5))
        contract_full(T, np.arange(5.0))
        assert [kind for kind, _ in events] == ["pack"] and T.packed is P

    def test_coo_solve_never_packs(self, events):
        inst = gen_problem3(10)
        assert isinstance(inst.tensor, SparseTensor)
        assert solve(inst.tensor, inst.rhs, None, SolveConfig(method="anewton")).status is Status.CONVERGED
        assert all(kind == "step" for kind, _ in events)

    def test_order_two_packs_the_array_itself(self):
        rng = np.random.default_rng(3)
        A, x = rng.uniform(-1.0, 1.0, (7, 7)), rng.uniform(-1.0, 1.0, 7)
        T = DenseTensor(A)
        assert T.packed.tobytes() == A.tobytes()
        assert contract_full(T, x).tobytes() == (A @ x).tobytes()


class TestRowSplit:
    @pytest.mark.parametrize("n", [35, 40])
    def test_split_product_keeps_the_bits(self, monkeypatch, n):
        # each half of the split is a gemv on whole blocks of 4 rows, so
        # T x^{m-1} and |T| |x|^{m-1} keep the bits of the one-thread A @ z
        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
        T = gen_problem1(n, 3).tensor
        rng = np.random.default_rng(n)
        xs = (np.zeros(n), rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 0.0, n),
              np.where(rng.random(n) < 0.3, -0.0, rng.uniform(-2.0, 2.0, n)))
        split = _row_split(T)
        try:
            assert split.h % 4 == 0 and abs(split.h - n / 2) <= 2
            for x in xs:
                for v, values in ((x, None), (np.abs(x), magnitudes(T))):
                    assert _contract(T, v, values, split).tobytes() == _contract(T, v, values).tobytes()
        finally:
            split.close()

    @pytest.mark.parametrize("upper", [1.0, 1e306])
    def test_worker_keeps_the_callers_error_state(self, monkeypatch, upper):
        # the worker's rows overflow, and with upper = 1e306 the caller's
        # too: ignored under the caller's np.errstate (solve's), or raised
        # by the call, as A @ z would.  The worker sets the state only when
        # the caller's differs from the last job's: three times per kind
        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
        K = math.comb(42, 3)
        T = tensor_core._of_packed(4, np.repeat([[upper], [1e306]], 20, axis=0) * np.ones(K), 1e306)
        x = np.ones(40)
        split = _row_split(T)
        seterr, changes = np.seterr, []
        monkeypatch.setattr(np, "seterr", lambda **err: changes.append(err) or seterr(**err))
        try:
            for kind in ("over", "all"):
                with np.errstate(**{kind: "ignore"}):
                    for _ in range(3):
                        assert _contract(T, x, split=split).tobytes() == _contract(T, x).tobytes()
                with np.errstate(**{kind: "raise"}), pytest.raises(FloatingPointError):
                    _contract(T, x, split=split)
                with np.errstate(**{kind: "ignore"}):  # no answer of the raised call is left over
                    assert _contract(T, 2.0 * x, split=split).tobytes() == _contract(T, 2.0 * x).tobytes()
        finally:
            split.close()
        assert [err["over"] for err in changes] == ["ignore", "raise", "ignore"] * 2

    @pytest.mark.parametrize("n, cpus, splits", [(34, 2, False), (35, 2, True), (41, 2, True),
                                                 (42, 2, False), (40, 1, False)])
    def test_window(self, monkeypatch, n, cpus, splits):
        # P1 splits from n = 35, P past 2 MiB, to n = 41, P within 4 MiB, on 2 CPUs
        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: cpus)
        split = _row_split(tensor_core._of_packed(4, np.zeros((n, math.comb(n + 2, 3))), 0.0))
        assert (split is not None) == splits
        if split is not None:
            split.close()


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
            majorization(inst.tensor), [[1, 0, 0], [1, 1, 0], [-1, 1, 1]]
        )

    def test_ex22_matrix(self):
        inst = fixture("ex22")
        np.testing.assert_allclose(majorization(inst.tensor), [[1, -1], [0, 1]])

    def test_identity(self):
        np.testing.assert_allclose(majorization(identity_tensor(4, 3)), np.eye(3))

    @settings(max_examples=30, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**31))
    def test_major_part_acts_as_matrix(self, shape, seed):
        m, n = shape
        rng = np.random.default_rng(seed)
        T = random_tensor(rng, m, n)
        x = rng.uniform(-1.0, 1.0, n)
        arr = np.zeros((n,) * m)
        arr[(slice(None),) + (np.arange(n),) * (m - 1)] = majorization(T)
        major_part = DenseTensor(arr)
        np.testing.assert_allclose(
            contract_full(major_part, x),
            majorization(T) @ x ** (m - 1),
            rtol=1e-12,
            atol=1e-12,
        )


def offmajor_by_copy(arr) -> bool:
    """The reference for has_offmajor: zero the (i, j, ..., j) entries of a
    copy and look for a nonzero."""
    off = arr.copy()
    off[(slice(None),) + (np.arange(arr.shape[0]),) * (arr.ndim - 1)] = 0.0
    return bool(np.any(off != 0.0))


class TestHasOffmajor:
    def test_structured_tensor_has_no_offmajor(self):
        T = fixture("ex11").tensor  # only (i, j, j) entries
        assert not has_offmajor(T) and not has_offmajor(coo(dense_array(T)))

    def test_ex22_single_offmajor_entry(self):
        T = fixture("ex22").tensor
        arr = dense_array(T)
        assert arr[0, 0, 1] == -1.5
        assert has_offmajor(T) and has_offmajor(coo(arr))
        arr[0, 0, 1] = 0.0
        assert not has_offmajor(coo(arr)) and not has_offmajor(DenseTensor(arr))

    def test_identity_is_pure_major(self):
        assert not has_offmajor(identity_tensor(3, 4))

    def test_stored_zero_is_not_an_entry(self):
        T = SparseTensor(3, 2, [[0, 0, 1], [1, 1, 1]], [0.0, 1.0])
        assert not has_offmajor(T)

    @settings(max_examples=60, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**31), major_only=st.booleans(),
           density=st.floats(0.0, 1.0))
    def test_agrees_with_a_masked_copy(self, shape, seed, major_only, density):
        m, n = shape
        rng = np.random.default_rng(seed)
        arr = rng.uniform(-1.0, 1.0, (n,) * m) * (rng.random((n,) * m) < density)
        if major_only:
            j = (slice(None),) + (np.arange(n),) * (m - 1)
            major, arr = arr[j], np.zeros_like(arr)
            arr[j] = major
        expected = offmajor_by_copy(arr)
        assert has_offmajor(DenseTensor(arr)) is expected
        assert has_offmajor(coo(arr)) is expected

    @settings(max_examples=60, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**31), major_only=st.booleans(),
           density=st.floats(0.0, 1.0))
    def test_diagonal_majorization_agrees_with_a_masked_copy(self, shape, seed, major_only, density):
        # the draws of test_agrees_with_a_masked_copy; major_only ones keep
        # only M's entries, so M is diagonal in some and not in others
        m, n = shape
        rng = np.random.default_rng(seed)
        arr = rng.uniform(-1.0, 1.0, (n,) * m) * (rng.random((n,) * m) < density)
        j = (slice(None),) + (np.arange(n),) * (m - 1)
        if major_only:
            major, arr = arr[j], np.zeros_like(arr)
            arr[j] = major
        off = arr[j]  # a copy of M
        np.fill_diagonal(off, 0.0)
        expected = not np.any(off)
        for T in (DenseTensor(arr), coo(arr)):
            M = _majorization_unless_diagonal(T)
            assert (M is None) is expected
            assert M is None or M.tobytes() == majorization(T).tobytes()


class TestIdentityTensor:
    def test_entries(self):
        T = identity_tensor(3, 2)
        np.testing.assert_array_equal(diagonal(T), [1.0, 1.0])
        assert np.count_nonzero(T.packed) == 2

    def test_contract_is_elementwise_power(self):
        x = np.array([1.5, -0.5, 2.0])
        np.testing.assert_allclose(contract_full(identity_tensor(4, 3), x), x**3)

    def test_majorization_is_identity(self):
        np.testing.assert_allclose(majorization(identity_tensor(5, 3)), np.eye(3))


class TestIdentityMinus:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("s", [0.5, 3.0])
    def test_dense_is_bit_identical_to_shifted_identity(self, m, s):
        # zero entries of T give +0.0, as s * I - T gives them for s > 0
        rng = np.random.default_rng(m)
        A = rng.uniform(-1.0, 1.0, size=(3,) * m)
        A[A > 0.3] = 0.0
        got = identity_minus(DenseTensor(A), s).packed
        assert got.tobytes() == DenseTensor(s * diagonal_array(m, np.ones(3)) - A).packed.tobytes()
        assert not np.signbit(got[got == 0.0]).any()


# Per order, the largest n drawn.
LARGEST_N = {2: 60, 3: 20, 4: 9, 5: 6}


@st.composite
def symmetrize_cases(draw):
    """(m, n) for every order and size up to LARGEST_N."""
    m = draw(st.integers(2, 5))
    return m, draw(st.integers(1, LARGEST_N[m]))


class TestSymmetrize:
    @settings(max_examples=40, deadline=None)
    @given(case=symmetrize_cases())
    @example(case=(2, 60))
    @example(case=(3, 20))
    @example(case=(4, 9))
    @example(case=(5, 6))
    def test_packed_mean_is_the_whole_array_mean(self, case):
        # The reference sums m! terms and packs up to (m-1)! of the sums;
        # symmetrize packs up to (m-1)! entries, divides, adds m terms and
        # scales.  To first order each is within that many unit roundoffs
        # u of the same sums over |A|, so they differ by at most
        # (m! + 2 (m-1)! + m) u times the packed mean of |A|, entry by entry.
        m, n = case
        rng = np.random.default_rng(case)
        A = rng.uniform(-1.0, 1.0, size=(n,) * m)
        got = symmetrize(DenseTensor(A))
        want = DenseTensor(reference_permutation_mean(A, 0)).packed
        scale = DenseTensor(reference_permutation_mean(np.abs(A), 0)).packed
        ulps = math.factorial(m) + 2 * math.factorial(m - 1) + m
        assert np.all(np.abs(got.packed - want) <= ulps * (np.finfo(float).eps / 2) * scale)
        assert got.order == m and got.max_abs == np.abs(got.packed).max()

    def test_order_two_is_the_mean_with_the_transpose(self):
        A = np.random.default_rng(2).uniform(-1.0, 1.0, (7, 7))
        assert symmetrize(DenseTensor(A)).packed.tobytes() == ((A + A.T) * 0.5).tobytes()


class TestOffdiagonalMax:
    """is_z_tensor against its definition: the largest off-diagonal entry,
    read from a copy with the diagonal masked, is <= 0."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_equals_masked_copy(self, m, n):
        # each array as drawn, a Z-tensor only at n = 1, and with every
        # off-diagonal entry made -|A|, a Z-tensor
        rng = np.random.default_rng([m, n])
        drawn = rng.uniform(-1.0, 1.0, size=(n,) * m)
        i = np.arange(n)
        for A in (drawn, -np.abs(drawn)):
            A[(i,) * m] = 2.0  # above every off-diagonal entry
            ref = A.copy()
            ref[(i,) * m] = -np.inf
            expected = bool(ref.max() <= 0.0)
            assert is_z_tensor(DenseTensor(A)) is is_z_tensor(coo(A)) is expected
            assert expected is (n == 1 or A is not drawn)


class TestSemiSymmetrize:
    def test_ex22_averaging(self):
        sym = semi_symmetrize(dense_array(fixture("ex22").tensor))
        assert sym[0, 0, 1] == pytest.approx(-0.75)
        assert sym[0, 1, 0] == pytest.approx(-0.75)
        assert sym[0, 1, 1] == pytest.approx(-1.0)

    @settings(max_examples=30, deadline=None)
    @given(shape=tensor_shapes, seed=st.integers(0, 2**31))
    def test_preserves_contraction_and_idempotent(self, shape, seed):
        m, n = shape
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1.0, 1.0, size=(n,) * m)
        x = rng.uniform(-1.0, 1.0, n)
        sym = semi_symmetrize(A)
        np.testing.assert_allclose(
            contract_full(DenseTensor(sym), x), contract_full(DenseTensor(A), x), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(semi_symmetrize(sym), sym, rtol=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        T = random_tensor(rng, 4, 4)
        x = rng.uniform(0.5, 1.5, 4)
        jac = jacobian(T, x)
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
        assert scaled.tensor.max_abs <= 1.0 and np.abs(scaled.tensor.packed).max() <= 1.0

    def test_already_scaled_unchanged(self):
        T = identity_tensor(3, 2)
        scaled = scale_system(T, [1.0, 1.0])
        assert scaled.scale == 1.0
        np.testing.assert_allclose(scaled.tensor.packed, T.packed)

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
        T = DenseTensor(arr)
        scaled = scale_system(T, b)
        w = max(np.abs(arr).max(), np.abs(b).max())
        assert scaled.scale == w
        assert scaled.tensor.packed.tobytes() == (T.packed / w).tobytes()
        assert scaled.tensor.max_abs == np.abs(arr / w).max()
        assert scaled.rhs.tobytes() == (b / w).tobytes()
        assert not scaled.tensor.packed.flags.writeable
        assert isinstance(scaled.tensor, DenseTensor)


class TestCooContraction:
    def test_bit_identical_to_row_gathers_in_mode_order(self):
        T = gen_problem3(12).tensor
        assert T.idx.flags.f_contiguous
        assert all(c.flags.c_contiguous for c in T.cols)
        x = np.random.default_rng(5).uniform(0.0, 2.0, 12)
        idx = np.ascontiguousarray(T.idx)
        w = T.vals
        for k in range(1, T.order):
            w = w * x[idx[:, k]]
        ref = np.bincount(idx[:, 0], weights=w, minlength=12)
        assert _contract(T, x).tobytes() == ref.tobytes()

    def test_bins_without_an_index_copy(self, monkeypatch):
        # np.bincount copies a read-only index, nnz * 8 B per contraction; the
        # row index it bins by is taken as it is, so the binning holds only
        # its n-vector beyond the products
        T = gen_problem3(20000).tensor
        assert isinstance(T, SparseTensor)
        bincount, peaks = np.bincount, []

        def traced(*args, **kwargs):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = bincount(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        monkeypatch.setattr(np, "bincount", traced)
        tracemalloc.start()
        try:
            _contract(T, np.ones(T.dim))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < 8 * T.vals.size
        assert not any(a.flags.writeable for a in (T.idx, T.vals, *T.cols))

    def test_columns_follow_taken_entries(self):
        # Some entries of P3, given unsorted to the constructor.
        P = gen_problem3(8).tensor
        keep = np.flatnonzero(P.vals < 0.0)[::-1]
        T = SparseTensor(P.order, P.dim, P.idx[keep], P.vals[keep])
        assert isinstance(T, SparseTensor) and T.idx.flags.f_contiguous
        for k, c in enumerate(T.cols):
            np.testing.assert_array_equal(c, T.idx[:, k])
            assert c.flags.c_contiguous and not c.flags.writeable


class TestDenseTensor:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("m", [2, 3])
    def test_dimension_zero_rejected(self, m):
        with pytest.raises(ValueError, match="tensor dimension must be positive"):
            DenseTensor(np.zeros((0,) * m))

    def test_unequal_modes_rejected(self):
        with pytest.raises(ValueError, match="all tensor modes must have equal dimension"):
            DenseTensor(np.zeros((2, 3, 2)))

    def test_order_one_rejected(self):
        with pytest.raises(ValueError, match="tensor order must be at least 2"):
            DenseTensor(np.zeros(3))

    def test_immutable(self):
        T = identity_tensor(3, 2)
        with pytest.raises(ValueError):
            T.packed[0, 0] = 5.0
        with pytest.raises(AttributeError):
            T.max_abs = 5.0

    def test_caller_array_stays_writeable(self):
        a = np.zeros((2, 2, 2))
        T = DenseTensor(a)
        assert a.flags.writeable and not T.packed.flags.writeable
        a[0, 0, 0] = 5.0
        assert diagonal(T)[0] == 0.0

    def test_read_only_view_is_copied(self):
        # the owner of a read-only view's base can still write it, and the
        # tensor, which holds its own packed copy, does not change
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = a[1, 1, 1] = 1.0
        v = a.view()
        v.flags.writeable = False
        T = DenseTensor(v)
        contract_full(T, [1.0, 2.0])
        a[0, 0, 0] = 5.0
        assert diagonal(T)[0] == 1.0
        np.testing.assert_array_equal(contract_full(T, [1.0, 2.0]), [1.0, 4.0])

    def test_pickle_keeps_the_packing(self):
        T = gen_problem1(5, 0).tensor
        back = pickle.loads(pickle.dumps(T))
        assert back.packed.tobytes() == T.packed.tobytes() and not back.packed.flags.writeable
        assert (back.order, back.dim, back.max_abs) == (T.order, T.dim, T.max_abs)

    @pytest.mark.parametrize("build, limit", [("from_sparse", 3.5), ("identity_minus", 1.5), ("scale_system", 1.5)],
                             ids=["from_sparse", "identity_minus", "scale_system"])
    def test_builders_make_no_second_array(self, build, limit):
        # a builder hands its new packed matrix over read-only, with no copy
        # and no n^m array; from_sparse also bins its entries through one
        # index per entry, and np.bincount copies their read-only values,
        # here as many as P has entries
        T = gen_problem1(20, 0).tensor
        S = coo(dense_array(T))
        builders = {
            "from_sparse": lambda: DenseTensor.from_sparse(S),
            "identity_minus": lambda: identity_minus(T, 1.0),
            "scale_system": lambda: scale_system(T, np.ones(20)).tensor,
        }
        tracemalloc.start()
        try:
            built = builders[build]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S.vals.size == built.packed.size
        assert peak < limit * built.packed.nbytes


class TestIsNumber:
    """The package's one rule for a scalar: a real number, or an integer for
    a count, never a bool."""

    @pytest.mark.parametrize(
        "value, real, count",
        [
            (1, True, True),
            (0.5, True, False),
            (np.int64(3), True, True),
            (np.float32(0.5), True, False),
            (Fraction(1, 2), True, False),
            (True, False, False),
            (np.True_, False, False),
            (Decimal("0.5"), False, False),
            ("1", False, False),
            (None, False, False),
        ],
    )
    def test_kinds(self, value, real, count):
        assert _is_number(type(value)) is real
        assert _is_number(type(value), count=True) is count
