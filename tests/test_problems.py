import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

from mteq import (
    DenseTensor,
    contract_full,
    fixture,
    gen_problem1,
    gen_problem2,
    gen_problem3,
    gen_problem4,
    generate,
    is_z_tensor,
    majorization,
    residual,
)
from mteq.tensor_core import diagonal
from mteq import problems, tensor_core
from mteq.problems import BOUNDARY_VALUE, EARTH_MASS, GRAVITATIONAL_CONSTANT
from reference import dense_array, semi_symmetrize


class TestProblem1:
    def test_deterministic(self):
        a, b = gen_problem1(6, 42), gen_problem1(6, 42)
        np.testing.assert_array_equal(a.tensor.packed, b.tensor.packed)
        np.testing.assert_array_equal(a.rhs, b.rhs)

    def test_seeds_differ(self):
        a, b = gen_problem1(6, 1), gen_problem1(6, 2)
        assert not np.array_equal(a.tensor.packed, b.tensor.packed)

    def test_symmetric(self):
        # symmetric up to summation-order rounding in the averaging; T is
        # symmetric in its trailing indices, so it is the average of its
        # packed records over trailing orderings
        T = semi_symmetrize(dense_array(gen_problem1(5, 0).tensor))
        np.testing.assert_allclose(T, np.transpose(T, (1, 0, 2, 3)), atol=1e-14)
        np.testing.assert_allclose(T, np.transpose(T, (3, 2, 1, 0)), atol=1e-14)

    def test_z_tensor_with_positive_diagonal(self):
        inst = gen_problem1(6, 9)
        assert is_z_tensor(inst.tensor)
        assert np.all(diagonal(inst.tensor) > 0.0)

    def test_rhs_in_unit_interval(self):
        rhs = gen_problem1(10, 17).rhs
        assert np.all((rhs > 0.0) & (rhs < 1.0))

    def test_too_small_n(self):
        with pytest.raises(ValueError):
            gen_problem1(1, 0)


class TestProblem2:
    def test_entry_formula(self):
        A = dense_array(gen_problem2(2).tensor)
        # diagonal: s - |sin(4i)| with s = n^3 = 8; the packed sum of
        # (1, 1, 2) adds its 3 orderings
        assert A[0, 0, 0, 0] == pytest.approx(8.0 - abs(math.sin(4.0)))
        assert A[1, 1, 1, 1] == pytest.approx(8.0 - abs(math.sin(8.0)))
        assert A[0, 0, 0, 1] == pytest.approx(-3.0 * abs(math.sin(5.0)))

    def test_deterministic_without_seed_argument(self):
        np.testing.assert_array_equal(gen_problem2(5).rhs, gen_problem2(5).rhs)

    def test_z_tensor(self):
        assert is_z_tensor(gen_problem2(4).tensor)


class TestProblem3:
    def test_boundary_rows(self):
        inst = gen_problem3(5)
        A = dense_array(inst.tensor)
        assert A[0, 0, 0, 0] == 1.0
        assert A[4, 4, 4, 4] == 1.0
        assert inst.rhs[0] == inst.rhs[-1] == BOUNDARY_VALUE**3

    def test_interior_row_structure(self):
        # COO, which holds the three orderings of each -1/3 coupling as one
        # packed sum at the sorted trailing index; averaged over the
        # trailing orderings, each ordering is -1/3 again
        inst = gen_problem3(6)
        assert dense_array(inst.tensor)[2, 1, 2, 2] == -1.0
        A = semi_symmetrize(dense_array(inst.tensor))
        assert A[2, 2, 2, 2] == 2.0
        assert A[2, 1, 2, 2] == pytest.approx(-1.0 / 3.0)
        assert A[2, 2, 3, 2] == pytest.approx(-1.0 / 3.0)
        assert A[2, 2, 2, 1] == pytest.approx(-1.0 / 3.0)
        expected = GRAVITATIONAL_CONSTANT * EARTH_MASS / 25.0
        assert inst.rhs[2] == pytest.approx(expected)

    def test_majorization_is_diagonal(self):
        M = majorization(gen_problem3(6).tensor)
        np.testing.assert_array_equal(M, np.diag([1.0, 2.0, 2.0, 2.0, 2.0, 1.0]))

    def test_rhs_magnitudes(self):
        inst = gen_problem3(10)
        assert inst.rhs[0] == pytest.approx(2.58474853e20, rel=1e-8)
        assert inst.rhs[1] == pytest.approx(6.67e-11 * 5.98e24 / 81.0)


class TestProblem4:
    def test_not_symmetric(self):
        T = semi_symmetrize(dense_array(gen_problem4(5, 0).tensor))
        assert not np.allclose(T, np.transpose(T, (1, 0, 2, 3)))

    def test_z_tensor_deterministic(self):
        inst = gen_problem4(6, 8)
        assert is_z_tensor(inst.tensor)
        np.testing.assert_array_equal(inst.tensor.packed, gen_problem4(6, 8).tensor.packed)

    def test_distinct_from_problem1(self):
        a, b = gen_problem1(5, 3), gen_problem4(5, 3)
        assert not np.array_equal(a.tensor.packed, b.tensor.packed)


class TestGeneratedBits:
    """The bytes of the tensor's packed matrix, pinned by sha256: a change
    to generation, to the symmetrization, to the packing or to the fixture
    table that moves any bit of a generated tensor fails here."""

    @pytest.mark.parametrize(
        "make, digest",
        [(lambda: gen_problem1(12, 3),
          "6f134a13f4ec7c6e3edb4879fff2a112c253c9167a0d8ebb516bf40825c9416f"),
         (lambda: gen_problem1(40, 3),
          "f7b51378e927715e3caebb9c431febc5d2a73aa401a617d7dcdcf63a6acf27bb"),
         (lambda: gen_problem2(8),
          "a8a8321f53a006ad83097315d6e765efb530151c3ebe8d5a03055998da149fd9"),
         (lambda: gen_problem4(12, 3),
          "7d3dc11e9745291c6a2c6bc4a12ac94a6a75626795198b7fb5a6390b3a612e37"),
         (lambda: fixture("ex11"),
          "47e0a512542d88ab060a65f0c02fbdbe906c1fd4ffbd78b8e2b8389fd012b6c1"),
         (lambda: fixture("ex21"),
          "d70908be6d7dba35e9e30a6f4c21acac0677418124cc7f4d5eebd8368bf57396"),
         (lambda: fixture("ex22"),
          "381548c2ce2ef637e1a69aba2ed230a64fce842d9d7367a772f1f7ccadbc9707")],
        ids=["P1-n12-s3", "P1-n40-s3", "P2-n8", "P4-n12-s3", "ex11", "ex21", "ex22"],
    )
    def test_generated_tensor_digest(self, make, digest):
        assert hashlib.sha256(make().tensor.packed.tobytes()).hexdigest() == digest

    # P3 is made as its packed sums, which must be what grouping each
    # coupling's three -1/3 orderings gives: the digests are of the latter
    @pytest.mark.parametrize(
        "n, digest",
        [(5, "f9763a675fd8f975d7ec1906a68b9b7a7caabd839d00567ee90fb588e9b8e6f1"),
         (50, "58687e86fe8f47c74d9f2c64f4b45bca7a411a2ebddfbc5bccb9c8a61a6ab85b"),
         (10**4, "4ac371a1811a9dc8a83a98b88a0a0e3da70c0555157f00a5aea7b1f733877ac9")],
        ids=["P3-n5-dense", "P3-n50-coo", "P3-n10000-coo"],
    )
    def test_problem3_digest(self, n, digest):
        T = gen_problem3(n).tensor
        stored = T.packed.tobytes() if isinstance(T, DenseTensor) else T.idx.tobytes() + T.vals.tobytes()
        assert (type(T) is DenseTensor) == (n < 6)
        assert T.max_abs == 2.0
        assert hashlib.sha256(stored).hexdigest() == digest

    def test_rhs_digest(self):
        # the right side is drawn after the tensor's n^4 values
        assert hashlib.sha256(gen_problem1(40, 3).rhs.tobytes()).hexdigest() == (
            "ea5950d3c39492f772838d87abadef9972eb777b0c7054d76cec978e75b850a8"
        )

    def test_semi_symmetrize_digest(self):
        sym = DenseTensor(semi_symmetrize(np.random.default_rng(20181).random((7,) * 4)))
        assert hashlib.sha256(sym.packed.tobytes()).hexdigest() == (
            "3990a0ba477dc435d86e0905ab7df571735e8f550d87becd85af2e4494c7471c"
        )


class TestGenerationMemory:
    """Traced memory of generating a tensor at n = 40 and contracting it
    once, in units of its n^m array's bytes, of which a packed matrix is
    0.18.  No generator builds an n^4 array: each packs its rows of n^3
    entries as it draws or computes them.  P1's peak is in `symmetrize`,
    which holds B's packed matrix, B / count and the result, about 0.56;
    P4's and P2's is in s*I - B, B's packed matrix and its copy, about
    0.36 and 0.38.  Afterwards the tensor holds its packed matrix alone.
    The packed layout of (n, m) is built once per process, before the
    window, so the figures do not depend on which test ran first."""

    LIMITS = pytest.mark.parametrize("problem, peak_limit", [("1", 0.65), ("4", 0.45), ("2", 0.45)],
                                     ids=["P1", "P4", "P2"])

    @staticmethod
    def ratios(problem):
        n = 40
        tensor_core._packing(n, 4)
        tracemalloc.start()
        try:
            inst = generate(problem, n, 3)
            contract_full(inst.tensor, np.ones(n))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * n**4), held / (8 * n**4)

    @LIMITS
    def test_peak_relative_to_tensor_bytes(self, problem, peak_limit):
        assert self.ratios(problem)[0] <= peak_limit

    @pytest.mark.parametrize("problem", ["1", "4", "2"], ids=["P1", "P4", "P2"])
    def test_no_array_is_held_after_generation(self, problem):
        assert self.ratios(problem)[1] <= 0.3


class TestSplitGeneration:
    """A dense tensor whose packed matrix is past SPLIT_BYTES is packed, and
    P1 symmetrized, on two threads where 2 CPUs are usable
    (`tensor_core._by_rows`): P1 and P4 draw the worker's rows from a
    Philox stream advanced to its first row.  Every bit is that of one
    thread, and each worker is joined before generation returns or raises."""

    @pytest.fixture
    def starts(self, monkeypatch):
        started, start = [], threading.Thread.start

        def starting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", starting)
        return started

    @pytest.mark.parametrize("problem, n", [("1", 35), ("1", 40), ("1", 60), ("2", 35), ("2", 40),
                                            ("4", 35), ("4", 40)])
    def test_same_bits_on_one_cpu_and_two(self, monkeypatch, starts, problem, n):
        # at n = 35 the tensor's n^4 draws end inside a block of 4 Philox
        # outputs, which the right side's draws go on from
        got = []
        for cpus in (1, 2):
            monkeypatch.setattr(tensor_core, "_usable_cpus", lambda c=cpus: c)
            inst = generate(problem, n, 3)
            got.append((inst.tensor.packed.tobytes(), inst.tensor.max_abs, inst.rhs.tobytes()))
        assert got[0] == got[1]
        # the run on 2 CPUs split its packing, and P1's its symmetrization
        assert len(starts) == (2 if problem == "1" else 1) and not any(t.is_alive() for t in starts)

    @pytest.mark.parametrize("bad", [{30}, {5}, {5, 30}], ids=["worker", "caller", "both"])
    def test_a_failing_row_raises_as_on_one_thread(self, monkeypatch, starts, bad):
        # rows below h = 20 are the caller's.  A NaN row fails the finiteness
        # check with the one-thread error, and a row maker that raises names
        # its row: the lowest failing row's error wins, as on one thread
        def draws(problem, n, seed, lo, hi):
            for i in range(lo, hi):
                yield np.full((n,) * 3, np.nan if i in bad else 0.5)

        def failing(lo, hi):
            for i in range(lo, hi):
                if i in bad:
                    raise LookupError(f"row {i}")
                yield np.zeros((40,) * 3)

        monkeypatch.setattr(problems, "_draws", draws)
        threads = threading.active_count()
        for cpus in (1, 2):
            monkeypatch.setattr(tensor_core, "_usable_cpus", lambda c=cpus: c)
            with pytest.raises(ValueError, match="tensor entries must be finite"):
                generate("4", 40, 3)
            with pytest.raises(LookupError, match=f"row {min(bad)}$"):
                tensor_core._of_rows(4, 40, failing)
        assert len(starts) == 2 and not any(t.is_alive() for t in starts)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("n, cpus", [(30, 2), (40, 1)], ids=["P1 n = 30", "one CPU"])
    def test_starts_no_thread(self, monkeypatch, n, cpus):
        # P1's packed matrix is 1.14 MiB at n = 30, within SPLIT_BYTES
        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: cpus)

        def refused(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refused)
        assert generate("1", n, 3).n == n


class TestFixtures:
    def test_known_solutions_have_zero_residual(self):
        for fid in ("ex11", "ex21", "ex22"):
            inst = fixture(fid)
            for sol in inst.known_solutions:
                np.testing.assert_allclose(
                    residual(inst.tensor, inst.rhs, sol), np.zeros(inst.n), atol=1e-12
                )

    def test_ex21_second_solution_is_golden_ratio_conjugate(self):
        inst = fixture("ex21")
        assert inst.known_solutions[1][0] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0)

    def test_ex11_not_z(self):
        assert not is_z_tensor(fixture("ex11").tensor)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            fixture("ex99")


class TestGenerateDispatcher:
    def test_aliases(self):
        np.testing.assert_array_equal(
            generate("1", 5, 3).tensor.packed, generate("P1", 5, 3).tensor.packed
        )
        np.testing.assert_array_equal(
            generate("ex22", 2).tensor.packed, fixture("ex22").tensor.packed
        )

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            generate("9", 5)
