"""Dense and COO storage agree: the storage-dispatched primitives, whole
solves from x0 = 0, and the tensor file round trip."""

import json
import tracemalloc

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
    fixture,
    gen_problem1,
    gen_problem3,
    generate,
    is_z_tensor,
    majorization,
    mtensor_certificate,
    residual,
    solve,
    tensorio,
)
from mteq import tensor_core
from mteq.tensor_core import (
    COO_ENTRY_COST,
    _contract,
    cheaper_storage,
    diagonal,
    entries,
    has_offmajor,
    identity_minus,
    magnitudes,
    packed_sums,
    row_sums,
    scale_system,
)
from reference import coo, dense_array, dense_contract, packed_records, semi_symmetrize

METHODS = ("smeqm", "jacobi", "gs", "sor", "anewton")
RTOL = 1e-12


def both_storages(arr):
    """The same tensor as a DenseTensor and as a SparseTensor of its nonzeros."""
    return DenseTensor(arr), coo(arr)


def packed(T):
    """The packed matrix of T in either storage."""
    return (DenseTensor.from_sparse(T) if isinstance(T, SparseTensor) else T).packed


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
        close(residual(Tc, b, x), residual(Td, b, x))
        np.testing.assert_array_equal(majorization(Tc), majorization(Td))
        assert has_offmajor(Tc) == has_offmajor(Td)
        sc, sd = scale_system(Tc, b), scale_system(Td, b)
        assert isinstance(sc.tensor, SparseTensor)
        assert sc.scale == sd.scale and sc.tensor.max_abs == sd.tensor.max_abs
        np.testing.assert_array_equal(sc.rhs, sd.rhs)
        # each storage divides what it holds: the entries, or the packed sums
        np.testing.assert_array_equal(sc.tensor.vals, Tc.vals / sc.scale)
        np.testing.assert_array_equal(sd.tensor.packed, Td.packed / sd.scale)
        close(packed(sc.tensor), sd.tensor.packed)
        assert not sc.tensor.vals.flags.writeable and not sc.tensor.idx.flags.writeable
        np.testing.assert_array_equal(diagonal(Tc), diagonal(Td))
        s = 1.0 + diagonal(Td).max(initial=0.0)
        np.testing.assert_array_equal(packed(identity_minus(Tc, s)), identity_minus(Td, s).packed)
        close(row_sums(Tc), row_sums(Td))
        assert is_z_tensor(Tc) == is_z_tensor(Td)
        if not is_z_tensor(Td):
            with pytest.raises(NotZTensor):
                mtensor_certificate(Tc)
            return
        cc, cd = mtensor_certificate(Tc), mtensor_certificate(Td)
        assert cc.s == cd.s
        assert cc.row_sum_bound == pytest.approx(cd.row_sum_bound, rel=RTOL, abs=RTOL)
        assert cc.verdict is cd.verdict

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(3, 4), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_row_sums_do_not_depend_on_the_storage(self, m, n, seed):
        # a unit diagonal and off-diagonal entries -U(0, 1) / 3: both storages
        # sum each row correctly rounded, so the bound, and a tie with s, agree
        arr = -np.random.default_rng(seed).random((n,) * m) / 3.0
        arr[(np.arange(n),) * m] = 1.0
        Td, Tc = both_storages(arr)
        np.testing.assert_array_equal(row_sums(Tc), row_sums(Td))
        assert mtensor_certificate(Tc).row_sum_bound == mtensor_certificate(Td).row_sum_bound

    @pytest.mark.parametrize("fill", [0.0, -1.0])
    def test_z_test_reads_unlisted_zeros_as_zero(self, fill):
        # one listed off-diagonal entry, -1; the others are `fill`, and
        # both_storages leaves zeros unlisted
        arr = np.full((2, 2, 2), fill)
        arr[0, 0, 0] = arr[1, 1, 1] = 3.0
        arr[0, 1, 1] = -1.0
        Td, Tc = both_storages(arr)
        assert is_z_tensor(Tc) and is_z_tensor(Td)

    def test_one_by_one_has_no_offdiagonal(self):
        Td, Tc = both_storages(np.full((1, 1, 1), 3.0))
        assert is_z_tensor(Tc) and is_z_tensor(Td)

    @pytest.mark.parametrize("other, z, offmajor", [(-2.0, True, True), (-1.0, True, False), (-0.5, False, True)])
    def test_structure_is_that_of_the_semi_symmetrization(self, other, z, offmajor):
        # T(1, 1, 2) = 1 is positive, but the orderings of (1, 2) sum to
        # 1 + other, as they do in the semi-symmetrization, which has the
        # same T x^{m-1}; both storages read those sums
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = arr[1, 1, 1] = 3.0
        arr[0, 0, 1], arr[0, 1, 0] = 1.0, other
        sym = DenseTensor(semi_symmetrize(arr))
        for T in (*both_storages(arr), sym):
            assert is_z_tensor(T) is z and has_offmajor(T) is offmajor

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_magnitudes_contract_the_absolute_z_tensor(self, m):
        # each packed entry of a Z-tensor sums entries of one sign, so
        # |T.packed| is the packing of |T|
        n, rng = 5, np.random.default_rng(m)
        arr = -rng.uniform(0.0, 1.0, (n,) * m) * (rng.random((n,) * m) < 0.5)
        arr[(np.arange(n),) * m] = 10.0
        x = rng.uniform(0.0, 1.0, n)
        expected = dense_contract(np.abs(arr), x)
        for T in both_storages(arr):
            np.testing.assert_allclose(_contract(T, x, magnitudes(T)), expected, rtol=1e-13)


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
        dense = DenseTensor.from_sparse(inst.tensor)
        cfg = SolveConfig(method=method)
        oc, od = solve(inst.tensor, inst.rhs, None, cfg), solve(dense, inst.rhs, None, cfg)
        assert oc.status is od.status is Status.CONVERGED
        assert oc.iterations == od.iterations
        np.testing.assert_allclose(oc.x, od.x, rtol=1e-10)

    @pytest.mark.parametrize("fid, x0", [("ex11", None), ("ex21", [0.8, 2.0]), ("ex22", [1.5, 2.0])])
    @pytest.mark.parametrize("method", METHODS)
    def test_fixtures_match_dense(self, fid, x0, method):
        inst = fixture(fid)
        Td, Tc = both_storages(dense_array(inst.tensor))
        cfg = SolveConfig(method=method)
        od, oc = solve(Td, inst.rhs, x0, cfg), solve(Tc, inst.rhs, x0, cfg)
        assert oc.status is od.status
        assert oc.iterations == od.iterations
        np.testing.assert_allclose(oc.x, od.x, rtol=1e-10)


class TestFileRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(system=st.one_of(sparse_systems(), sparse_systems(signed=True)))
    def test_exact(self, system, tmp_path_factory):
        # both storages write the same packed records, which read back to
        # the same packed sums, in the storage cheaper_storage picks
        Td, Tc, _ = system
        path_c = tmp_path_factory.mktemp("coo") / "t.json"
        path_d = tmp_path_factory.mktemp("dense") / "t.json"
        tensorio.write_tensor(path_c, Tc)
        tensorio.write_tensor(path_d, Td)
        assert path_c.read_bytes() == path_d.read_bytes()
        back_c, back_d = tensorio.read_tensor(path_c), tensorio.read_tensor(path_d)
        assert type(back_c) is type(back_d) is type(cheaper_storage(Tc))
        for back in (back_c, back_d):
            assert (back.order, back.dim) == (Tc.order, Tc.dim)
            assert packed(back).tobytes() == Td.packed.tobytes()
        written = path_d.read_bytes()
        tensorio.write_tensor(path_d, back_d)
        assert path_d.read_bytes() == written
        for T in (Tc, Td):  # the records are what from_entries reads back
            again = SparseTensor.from_entries(T.order, T.dim, entries(T))
            assert packed(again).tobytes() == Td.packed.tobytes()

    def test_full_records_read_back_to_the_same_packing(self, tmp_path):
        # a file of every nonzero entry, as tensors were once written
        rng = np.random.default_rng(7)
        arr = -rng.random((6,) * 4)
        arr[(np.arange(6),) * 4] = 200.0
        records = [[*(int(i) + 1 for i in idx), float(arr[tuple(idx)])] for idx in np.argwhere(arr)]
        (tmp_path / "t.json").write_text(json.dumps({"order": 4, "dim": 6, "entries": records}))
        back = tensorio.read_tensor(tmp_path / "t.json")
        assert isinstance(back, DenseTensor) and back.max_abs == 200.0
        assert back.packed.tobytes() == DenseTensor(arr).packed.tobytes()

    def test_problem3_at_scale_never_densifies(self, tmp_path, monkeypatch):
        # dense, this tensor would take 2000^4 * 8 B = 128 TB
        def densify(*args):
            raise AssertionError("a COO tensor was densified")

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
        out = solve(T, b, None, SolveConfig(method="anewton", max_iter=5))
        assert out.status is Status.MAX_ITER and out.iterations == 5
        assert out.trace.max_violation() <= 1e-12
        assert out.trace.max_feas_violation() <= 1e-12

    def test_records_are_freed_before_the_tensor_is_built(self, tmp_path, monkeypatch):
        # the parsed records, a list of Python numbers each, are dropped once
        # their float table exists: when the COO constructor starts, less is
        # held than the records alone take
        path = tensorio.write_instance(tmp_path / "p1", gen_problem1(12, 3))["tensor"]
        text = path.read_text()
        tracemalloc.start()
        try:
            records = json.loads(text)["entries"]
            size = tracemalloc.get_traced_memory()[0]
            del records
            held, post_init = [], SparseTensor.__post_init__

            def building(T):
                held.append(tracemalloc.get_traced_memory()[0])
                post_init(T)

            monkeypatch.setattr(SparseTensor, "__post_init__", building)
            tensorio.read_tensor(path)
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] < 0.8 * size

    @pytest.mark.parametrize(
        "key, value",
        [("order", 3.7), ("dim", 2.5), ("order", 3.0), ("dim", "2"), ("order", True), ("dim", None)],
    )
    def test_order_and_dim_must_be_json_integers(self, key, value, tmp_path):
        doc = {"order": 3, "dim": 2, "entries": [[1, 1, 1, 1.0]], key: value}
        (tmp_path / "t.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            tensorio.read_tensor(tmp_path / "t.json")


GENERATED = (
    [(p, n) for p in ("1", "2", "4") for n in range(2, 6)]
    + [("3", n) for n in range(3, 9)]
    + [(fid, 0) for fid in ("ex11", "ex21", "ex22")]  # a fixture takes no n
)
STARTS = {"ex21": [0.8, 2.0], "ex22": [1.5, 2.0]}


class TestGeneratedMatchesFile:
    """A generated system and its file are one tensor: same storage, same
    array, and every method gives the same run, bit for bit."""

    @pytest.mark.parametrize("problem, n", GENERATED)
    def test_same_tensor_and_runs(self, problem, n, tmp_path):
        inst = generate(problem, n)
        paths = tensorio.write_instance(tmp_path / "inst", inst)
        back = tensorio.read_tensor(paths["tensor"])
        assert type(back) is type(inst.tensor)
        assert packed(back).tobytes() == packed(inst.tensor).tobytes()
        assert back.max_abs == inst.tensor.max_abs
        x0 = STARTS.get(problem)
        for method in METHODS:
            cfg = SolveConfig(method=method)
            og, of = solve(inst.tensor, inst.rhs, x0, cfg), solve(back, inst.rhs, x0, cfg)
            assert of.status is og.status, method
            assert of.iterations == og.iterations, method
            assert of.x.tobytes() == og.x.tobytes(), method


class TestIdentity:
    """Tensors, instances and results compare by identity and hash: a
    generated __eq__ would compare numpy arrays and raise."""

    @pytest.mark.parametrize(
        "build",
        [lambda: fixture("ex21").tensor, lambda: gen_problem3(10).tensor, lambda: fixture("ex21"),
         lambda: solve(DenseTensor(np.eye(2)), [1.0, 1.0]),
         lambda: scale_system(fixture("ex22").tensor, fixture("ex22").rhs)],
        ids=["DenseTensor", "SparseTensor", "ProblemInstance", "SolveOutcome", "ScaledSystem"],
    )
    def test_equal_only_to_itself(self, build):
        a, b = build(), build()
        assert a == a and a != b
        assert len({a, a, b}) == 2


class TestMajorizationLayout:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_c_contiguous_read_only_float64(self, m):
        # The dense gather of the (i, j, ..., j) entries is Fortran-ordered,
        # and anewton's M @ x^[m-1] rounds differently on that layout.
        arr = np.random.default_rng(m).uniform(-1.0, 1.0, (3,) * m)
        for T in both_storages(arr):
            M = majorization(T)
            assert M.shape == (3, 3) and M.dtype == np.float64
            assert M.flags.c_contiguous and not M.flags.writeable


class TestStorageChoice:
    def test_built_sparse(self):
        # P3 is held as cheaper_storage picks, as its file is read: COO
        # from n = 6 (nnz = 7n - 12 against n^4 positions)
        for n in range(3, 9):
            T = gen_problem3(n).tensor
            coo = both_storages(dense_array(T))[1]
            assert type(T) is type(cheaper_storage(coo)), n
            assert isinstance(T, SparseTensor) == (n >= 6), n

    def test_built_dense(self):
        assert isinstance(gen_problem1(4, 0).tensor, DenseTensor)
        assert isinstance(fixture("ex22").tensor, DenseTensor)

    @staticmethod
    def entries_in_sums(nnz, sums):
        """An order-3, n = 8 array of nnz entries -1 in `sums` packed sums,
        each at (i, j, k) with j < k, and in nnz - sums of them also at
        (i, k, j)."""
        rng = np.random.default_rng([nnz, sums])
        i, j, k = np.unravel_index(rng.choice(512, 512, replace=False), (8, 8, 8))
        keep = np.flatnonzero(j < k)[:sums]
        arr = np.zeros((8, 8, 8))
        arr[i[keep], j[keep], k[keep]] = -1.0
        pairs = keep[: nnz - sums]
        arr[i[pairs], k[pairs], j[pairs]] = -1.0
        assert np.count_nonzero(arr) == nnz
        return arr

    @pytest.mark.parametrize("nnz, storage", [(15, SparseTensor), (16, DenseTensor)])
    def test_cheaper_storage_boundary(self, nnz, storage):
        # the packed matrix has 8 * C(9, 2) = 288 entries, 14.4 times
        # COO_ENTRY_COST.  Two of the nnz entries share a sum, which the COO
        # tensor stores once: 14 sums are kept as COO, 15 are not
        assert COO_ENTRY_COST == 20
        Td, Tc = both_storages(self.entries_in_sums(nnz, nnz - 1))
        chosen = cheaper_storage(Tc)
        assert type(chosen) is storage
        assert packed(chosen).tobytes() == Td.packed.tobytes()

    @pytest.fixture
    def no_grouping(self, monkeypatch):
        """Call it to make the COO constructor's grouping fail from then on."""
        def group(*args):
            raise AssertionError("the entries were grouped into packed sums")

        return lambda: monkeypatch.setattr(tensor_core, "_grouped", group)

    def test_stored_count_decides_alone(self, no_grouping):
        # 14 entries, each its own packed sum at its sorted trailing index,
        # so none is grouped; 14 * COO_ENTRY_COST < 288 keeps them as COO
        no_grouping()
        Tc = coo(self.entries_in_sums(14, 14))
        assert cheaper_storage(Tc) is Tc

    @pytest.mark.parametrize("n", [10, 50, 2000])
    def test_problem3_file_is_read_without_grouping(self, n, tmp_path, no_grouping):
        # the file holds P3's packed records, each its own sum, so reading
        # it groups nothing, as at the n = 10 and n = 50 that the benchmark
        # reads; generating P3 does group its three orderings per coupling
        paths = tensorio.write_instance(tmp_path / "p3", gen_problem3(n))
        no_grouping()
        assert isinstance(tensorio.read_tensor(paths["tensor"]), SparseTensor)
        with pytest.raises(AssertionError, match="grouped"):
            gen_problem3(n)

    @pytest.mark.parametrize(
        "inst, storage",
        [(gen_problem3(50), SparseTensor), (gen_problem1(6, 0), DenseTensor), (fixture("ex21"), DenseTensor)],
    )
    def test_read_picks_cheaper_storage(self, tmp_path, inst, storage):
        tensorio.write_tensor(tmp_path / "t.json", inst.tensor)
        back = tensorio.read_tensor(tmp_path / "t.json")
        assert type(back) is storage
        np.testing.assert_array_equal(dense_array(back), dense_array(inst.tensor))


@st.composite
def orderings(draw):
    """(m, n, idx, vals): distinct COO entries of order 2..5 at n <= 4, drawn
    2 n^(m-1) times, so that many share a packed sum, with values from a
    set that holds zeros of both signs and pairs that cancel."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.unique(rng.integers(0, n, (2 * n ** (m - 1), m)), axis=0)
    vals = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1 / 3, -1 / 3, 0.1, -0.7], len(idx))
    return m, n, rng.permutation(idx), vals


class TestPackedCoo:
    @settings(max_examples=80, deadline=None)
    @given(data=orderings())
    def test_one_stored_form(self, data, tmp_path_factory):
        # a COO tensor stores its nonzero packed sums, so it has the records
        # and the file of its dense copy, and its sums are the plain grouping
        # of its entries, bit for bit; max_abs stays the largest |entry| given
        m, n, idx, vals = data
        T = SparseTensor(m, n, idx, vals)
        D = DenseTensor.from_sparse(T)
        assert entries(T) == entries(D)
        ref = packed_records(idx, vals)
        assert [tuple(k) for k in T.idx.tolist()] == [k for k, _ in ref]
        assert packed_sums(T)[0].tobytes() == np.array([v for _, v in ref]).tobytes()
        assert T.max_abs == np.abs(vals).max(initial=0.0)
        path_c = tmp_path_factory.mktemp("coo") / "t.json"
        path_d = tmp_path_factory.mktemp("dense") / "t.json"
        tensorio.write_tensor(path_c, T)
        tensorio.write_tensor(path_d, D)
        assert path_c.read_bytes() == path_d.read_bytes()

    def test_sums_that_cancel_are_dropped(self):
        T = SparseTensor(3, 2, [[0, 0, 1], [0, 1, 0], [1, 1, 0], [1, 1, 1]], [0.5, -0.5, 0.0, 2.0])
        np.testing.assert_array_equal(T.idx, [[1, 1, 1]])
        np.testing.assert_array_equal(T.vals, [2.0])


class TestSparseTensor:
    def test_entries_sorted_and_read_only(self):
        T = SparseTensor(3, 2, [[1, 0, 0], [0, 1, 1]], [2.0, -1.0])
        np.testing.assert_array_equal(T.idx, [[0, 1, 1], [1, 0, 0]])
        np.testing.assert_array_equal(T.vals, [-1.0, 2.0])
        with pytest.raises(ValueError):
            T.vals[0] = 5.0
        A = dense_array(T)
        assert A[1, 0, 0] == 2.0 and A[0, 0, 0] == 0.0

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
        with pytest.raises(ValueError, match=match):
            SparseTensor.from_entries(3, 2, entries)

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

    @pytest.mark.parametrize(
        "order, dim",
        [(3.7, 2), ("3", 2), (True, 2), (3, 2.5), (3, None)],
        ids=["order-float", "order-str", "order-bool", "dim-float", "dim-None"],
    )
    def test_order_and_dim_must_be_integers(self, order, dim):
        # int() would read 3.7 and "3" as order 3
        with pytest.raises(ValueError, match="must be an integer"):
            SparseTensor(order, dim, np.zeros((0, 3), dtype=int), np.zeros(0))
        with pytest.raises(ValueError, match="must be an integer"):
            SparseTensor.from_entries(order, dim, [])

    @pytest.mark.parametrize("field", [True, "2", None])
    def test_entry_fields_must_be_numbers(self, field):
        # numpy would read True as 1 and "2" as 2.0
        with pytest.raises(TypeError, match="entry fields must be numbers"):
            SparseTensor.from_entries(3, 2, [[1, 1, 1, 1.0], [2, 2, 2, field]])
        with pytest.raises(TypeError, match="entry fields must be numbers"):
            SparseTensor.from_entries(3, 2, [[1, 1, 1, 1.0], [2, field, 2, 1.0]])

    def test_numpy_scalars_accepted(self):
        T = SparseTensor.from_entries(np.int64(3), np.int64(2), [[np.int64(1), 1, 1, np.float64(2.0)]])
        assert (T.order, T.dim) == (3, 2) and type(T.order) is int and type(T.dim) is int
        np.testing.assert_array_equal(T.vals, [2.0])
        assert SparseTensor(np.int64(3), np.int64(2), [[0, 0, 0]], [1.0]).order == 3

    def test_order_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="tensor order must be at least 2"):
            SparseTensor(1, 2, np.zeros((0, 1), dtype=int), np.zeros(0))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_must_be_positive(self, dim):
        with pytest.raises(ValueError, match="tensor dimension must be positive"):
            SparseTensor(3, dim, np.zeros((0, 3), dtype=int), np.zeros(0))
        with pytest.raises(ValueError, match="tensor dimension must be positive"):
            SparseTensor.from_entries(3, dim, [])
