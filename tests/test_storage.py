"""Dense and COO storage agree: the storage-dispatched primitives, whole
solves from x0 = 0, and the tensor file round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mteq import (
    DenseTensor,
    NotZTensor,
    SolveConfig,
    SparseTensor,
    Status,
    contract_full,
    contract_matrix,
    fixture,
    gen_problem1,
    gen_problem3,
    is_z_tensor,
    majorization,
    mtensor_certificate,
    residual,
    scale_system,
    solve,
    split_offmajor,
    tensorio,
)
from mteq.tensor_core import (
    COO_ENTRY_COST,
    cheaper_storage,
    diagonal,
    identity_minus,
    offdiagonal_max,
    row_sums,
)

METHODS = ("smeqm", "jacobi", "gs", "sor", "anewton")
RTOL = 1e-12


def both_storages(arr):
    """The same tensor as a DenseTensor and as a SparseTensor of its nonzeros."""
    nonzero = arr != 0.0
    return DenseTensor(arr), SparseTensor(arr.ndim, arr.shape[0], np.argwhere(nonzero), arr[nonzero])


@st.composite
def sparse_systems(draw, signed=False):
    """(dense T, COO T, b >= 0) with T = s*I - B for a sparse B.

    With signed=False, B >= 0 and s exceeds every row sum of B, so T is a
    strong M-tensor and x0 = 0 is feasible; with signed=True, B has entries
    of both signs and T need not be a Z-tensor.
    """
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    density = draw(st.floats(0.0, 0.6))
    margin = draw(st.floats(0.2, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = -1.0 if signed else 0.0
    B = rng.uniform(low, 1.0, (n,) * m) * (rng.random((n,) * m) < density)
    s = (1.0 + margin) * np.abs(B).reshape(n, -1).sum(axis=1).max() + margin
    i = np.arange(n)
    arr = -B
    arr[(i,) * m] += s
    b = rng.random(n) * (rng.random(n) < 0.8)
    Td, Tc = both_storages(arr)
    return Td, Tc, b


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL * max(1.0, np.abs(b).max(initial=0.0)))


class TestPrimitivesAgree:
    @settings(max_examples=60, deadline=None)
    @given(system=st.one_of(sparse_systems(), sparse_systems(signed=True)), seed=st.integers(0, 2**32 - 1))
    def test_primitives(self, system, seed):
        Td, Tc, b = system
        x = np.random.default_rng(seed).uniform(-1.0, 2.0, Td.dim)
        close(contract_full(Tc, x), contract_full(Td, x))
        close(contract_matrix(Tc, x), contract_matrix(Td, x))
        close(residual(Tc, b, x), residual(Td, b, x))
        np.testing.assert_array_equal(majorization(Tc).values, majorization(Td).values)
        np.testing.assert_array_equal(split_offmajor(Tc).array, split_offmajor(Td).array)
        assert isinstance(split_offmajor(Tc), SparseTensor)
        sc, sd = scale_system(Tc, b), scale_system(Td, b)
        assert isinstance(sc.tensor, SparseTensor)
        assert sc.scale == sd.scale
        np.testing.assert_array_equal(sc.rhs, sd.rhs)
        np.testing.assert_array_equal(sc.tensor.array, sd.tensor.array)
        assert not sc.tensor.vals.flags.writeable and not split_offmajor(Tc).idx.flags.writeable
        np.testing.assert_array_equal(diagonal(Tc), diagonal(Td))
        s = 1.0 + diagonal(Td).max(initial=0.0)
        np.testing.assert_array_equal(identity_minus(Tc, s).array, identity_minus(Td, s).array)
        close(row_sums(Tc), row_sums(Td))
        assert offdiagonal_max(Tc) == offdiagonal_max(Td)
        assert is_z_tensor(Tc) == is_z_tensor(Td)
        if not is_z_tensor(Td):
            with pytest.raises(NotZTensor):
                mtensor_certificate(Tc)
            return
        cc, cd = mtensor_certificate(Tc), mtensor_certificate(Td)
        assert cc.s == cd.s
        assert cc.row_sum_bound == pytest.approx(cd.row_sum_bound, rel=RTOL, abs=RTOL)
        assert cc.verdict is cd.verdict

    @pytest.mark.parametrize("fill, expected", [(0.0, 0.0), (-1.0, -1.0)])
    def test_offdiagonal_max_counts_unlisted_zeros(self, fill, expected):
        # one listed off-diagonal entry, -1; the others are `fill`, and
        # both_storages leaves zeros unlisted
        arr = np.full((2, 2, 2), fill)
        arr[0, 0, 0] = arr[1, 1, 1] = 3.0
        arr[0, 1, 1] = -1.0
        Td, Tc = both_storages(arr)
        assert offdiagonal_max(Tc) == offdiagonal_max(Td) == expected

    def test_one_by_one_has_no_offdiagonal(self):
        Td, Tc = both_storages(np.full((1, 1, 1), 3.0))
        assert offdiagonal_max(Tc) == offdiagonal_max(Td) == -np.inf


class TestSolvesAgree:
    @settings(max_examples=25, deadline=None)
    @given(system=sparse_systems())
    def test_all_methods_from_zero(self, system):
        Td, Tc, b = system
        for method in METHODS:
            cfg = SolveConfig(method=method)
            od, oc = solve(Td, b, None, cfg), solve(Tc, b, None, cfg)
            assert oc.status is od.status, method
            assert oc.iterations == od.iterations, method
            assert oc.status is Status.CONVERGED, method
            scale = np.abs(od.x).max(initial=0.0)
            np.testing.assert_allclose(oc.x, od.x, rtol=1e-10, atol=1e-10 * scale)
            for out in (od, oc):
                assert not out.infeasible_start
                assert out.trace.max_violation() <= 1e-12
                assert out.trace.max_feas_violation() <= 1e-12

    @pytest.mark.parametrize("n, method", [(10, "smeqm"), (50, "anewton")])
    def test_problem3_matches_dense(self, n, method):
        inst = gen_problem3(n)
        dense = DenseTensor(inst.tensor.array)
        cfg = SolveConfig(method=method)
        oc, od = solve(inst.tensor, inst.rhs, None, cfg), solve(dense, inst.rhs, None, cfg)
        assert oc.status is od.status is Status.CONVERGED
        assert oc.iterations == od.iterations
        np.testing.assert_allclose(oc.x, od.x, rtol=1e-10)

    @pytest.mark.parametrize("fid, x0", [("ex11", None), ("ex21", [0.8, 2.0]), ("ex22", [1.5, 2.0])])
    @pytest.mark.parametrize("method", METHODS)
    def test_fixtures_match_dense(self, fid, x0, method):
        inst = fixture(fid)
        Td, Tc = both_storages(inst.tensor.array)
        cfg = SolveConfig(method=method)
        od, oc = solve(Td, inst.rhs, x0, cfg), solve(Tc, inst.rhs, x0, cfg)
        assert oc.status is od.status
        assert oc.iterations == od.iterations
        np.testing.assert_allclose(oc.x, od.x, rtol=1e-10)


class TestFileRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(system=st.one_of(sparse_systems(), sparse_systems(signed=True)))
    def test_exact(self, system, tmp_path_factory):
        Td, Tc, _ = system
        path_c = tmp_path_factory.mktemp("coo") / "t.json"
        path_d = tmp_path_factory.mktemp("dense") / "t.json"
        tensorio.write_tensor(path_c, Tc)
        tensorio.write_tensor(path_d, Td)
        assert path_c.read_bytes() == path_d.read_bytes()
        back = tensorio.read_tensor(path_c)
        assert type(back) is type(cheaper_storage(Tc))
        assert (back.order, back.dim) == (Tc.order, Tc.dim)
        np.testing.assert_array_equal(back.array, Td.array)
        tensorio.write_tensor(path_d, back)
        assert path_d.read_bytes() == path_c.read_bytes()

    def test_problem3_at_scale_never_densifies(self, tmp_path, monkeypatch):
        # dense, this tensor would take 2000^4 * 8 B = 128 TB
        def densify(*args):
            raise AssertionError("a COO tensor was densified")

        # SparseTensor.array goes through from_sparse as well
        monkeypatch.setattr(DenseTensor, "from_sparse", densify)
        inst = gen_problem3(2000)
        paths = tensorio.write_instance(tmp_path / "p3", inst)
        T = tensorio.read_tensor(paths["tensor"])
        b = tensorio.read_vector(paths["rhs"])
        np.testing.assert_array_equal(T.idx, inst.tensor.idx)
        np.testing.assert_array_equal(T.vals, inst.tensor.vals)
        np.testing.assert_array_equal(b, inst.rhs)
        assert is_z_tensor(T)
        assert mtensor_certificate(T).row_sum_bound == 2.0
        # At this n the scaled residual drops below the default eta after one
        # step, long before the interior is resolved; a tighter eta keeps
        # all five iterations running.
        out = solve(T, b, None, SolveConfig(method="anewton", max_iter=5, eta=1e-14))
        assert out.status is Status.MAX_ITER and out.iterations == 5
        assert out.trace.max_violation() <= 1e-12
        assert out.trace.max_feas_violation() <= 1e-12


class TestStorageChoice:
    def test_built_sparse(self):
        assert isinstance(gen_problem3(5).tensor, SparseTensor)

    def test_built_dense(self):
        assert isinstance(gen_problem1(4, 0).tensor, DenseTensor)
        assert isinstance(fixture("ex22").tensor, DenseTensor)

    @pytest.mark.parametrize("nnz, storage", [(15, SparseTensor), (16, DenseTensor)])
    def test_cheaper_storage_boundary(self, nnz, storage):
        # 8^3 = 512 = 16 * COO_ENTRY_COST positions
        assert COO_ENTRY_COST == 32
        arr = np.zeros(512)
        arr[np.random.default_rng(nnz).choice(512, nnz, replace=False)] = -1.0
        Td, Tc = both_storages(arr.reshape(8, 8, 8))
        chosen = cheaper_storage(Tc)
        assert type(chosen) is storage
        np.testing.assert_array_equal(chosen.array, Td.array)

    @pytest.mark.parametrize(
        "inst, storage",
        [(gen_problem3(50), SparseTensor), (gen_problem1(6, 0), DenseTensor), (fixture("ex21"), DenseTensor)],
    )
    def test_read_picks_cheaper_storage(self, tmp_path, inst, storage):
        tensorio.write_tensor(tmp_path / "t.json", inst.tensor)
        back = tensorio.read_tensor(tmp_path / "t.json")
        assert type(back) is storage
        np.testing.assert_array_equal(back.array, inst.tensor.array)


class TestSparseTensor:
    def test_entries_sorted_and_read_only(self):
        T = SparseTensor(3, 2, [[1, 0, 0], [0, 1, 1]], [2.0, -1.0])
        np.testing.assert_array_equal(T.idx, [[0, 1, 1], [1, 0, 0]])
        np.testing.assert_array_equal(T.vals, [-1.0, 2.0])
        with pytest.raises(ValueError):
            T.vals[0] = 5.0
        assert T.entry(2, 1, 1) == 2.0 and T.entry(1, 1, 1) == 0.0

    def test_from_entries_matches_dense(self):
        entries = [[1, 1, 1, 1.0], [2, 2, 2, 1.0], [1, 1, 2, -1.5], [1, 2, 2, -1.0]]
        np.testing.assert_array_equal(
            SparseTensor.from_entries(3, 2, entries).array,
            DenseTensor.from_entries(3, 2, entries).array,
        )

    def test_empty(self):
        T = SparseTensor.from_entries(3, 2, [])
        np.testing.assert_array_equal(contract_full(T, [1.0, 2.0]), [0.0, 0.0])

    @pytest.mark.parametrize(
        "entries, match",
        [
            ([[1, 1, 1, 1.0], [1, 1, 1, 2.0]], "duplicate"),
            ([[1, 1, 3, 1.0]], "1..2"),
            ([[0, 1, 1, 1.0]], "1..2"),
            ([[1, 1.5, 1, 1.0]], "integer"),
            ([[1, 1, 1.0]], "indices"),
            ([[1, 1, 1, float("nan")]], "finite"),
            ([[1, 1, 1, float("inf")]], "finite"),
        ],
    )
    def test_rejects_bad_records(self, entries, match):
        for cls in (SparseTensor, DenseTensor):
            with pytest.raises(ValueError, match=match):
                cls.from_entries(3, 2, entries)

    @pytest.mark.parametrize(
        "idx, vals, match",
        [
            ([[0, 0, 2]], [1.0], "out of range"),
            ([[0, 0, -1]], [1.0], "out of range"),
            ([[0.0, 0.0, 0.0]], [1.0], "integers"),
            ([[0, 0]], [1.0], "shape"),
            ([[0, 0, 0]], [1.0, 2.0], "values"),
            ([[0, 1, 1], [0, 1, 1]], [1.0, 2.0], "duplicate"),
        ],
    )
    def test_constructor_validates(self, idx, vals, match):
        with pytest.raises(ValueError, match=match):
            SparseTensor(3, 2, idx, vals)
