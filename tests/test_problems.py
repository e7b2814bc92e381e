import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

from mteq import (
    DenseTensor,
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
from mteq import tensor_core
from mteq.problems import BOUNDARY_VALUE, EARTH_MASS, GRAVITATIONAL_CONSTANT
from reference import dense_array, semi_symmetrize


class TestProblem1:
    def test_deterministic(self):
        a, b = gen_problem1(6, 42), gen_problem1(6, 42)
        np.testing.assert_array_equal(a.tensor.array, b.tensor.array)
        np.testing.assert_array_equal(a.rhs, b.rhs)

    def test_seeds_differ(self):
        a, b = gen_problem1(6, 1), gen_problem1(6, 2)
        assert not np.array_equal(a.tensor.array, b.tensor.array)

    def test_symmetric(self):
        # symmetric up to summation-order rounding in the averaging
        T = gen_problem1(5, 0).tensor.array
        np.testing.assert_allclose(T, np.transpose(T, (1, 0, 2, 3)), atol=1e-14)
        np.testing.assert_allclose(T, np.transpose(T, (3, 2, 1, 0)), atol=1e-14)

    def test_z_tensor_with_positive_diagonal(self):
        inst = gen_problem1(6, 9)
        assert is_z_tensor(inst.tensor)
        i = np.arange(6)
        assert np.all(inst.tensor.array[(i,) * 4] > 0.0)

    def test_rhs_in_unit_interval(self):
        rhs = gen_problem1(10, 17).rhs
        assert np.all((rhs > 0.0) & (rhs < 1.0))

    def test_too_small_n(self):
        with pytest.raises(ValueError):
            gen_problem1(1, 0)


class TestProblem2:
    def test_entry_formula(self):
        inst = gen_problem2(2)
        # diagonal: s - |sin(4i)| with s = n^3 = 8
        assert inst.tensor.array[0, 0, 0, 0] == pytest.approx(8.0 - abs(math.sin(4.0)))
        assert inst.tensor.array[1, 1, 1, 1] == pytest.approx(8.0 - abs(math.sin(8.0)))
        assert inst.tensor.array[0, 0, 0, 1] == pytest.approx(-abs(math.sin(5.0)))

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
        inst = gen_problem3(5)
        A = dense_array(inst.tensor)
        assert A[2, 2, 2, 2] == 2.0
        assert A[2, 1, 2, 2] == pytest.approx(-1.0 / 3.0)
        assert A[2, 2, 3, 2] == pytest.approx(-1.0 / 3.0)
        assert A[2, 2, 2, 1] == pytest.approx(-1.0 / 3.0)
        expected = GRAVITATIONAL_CONSTANT * EARTH_MASS / 16.0
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
        T = gen_problem4(5, 0).tensor.array
        assert not np.array_equal(T, np.transpose(T, (1, 0, 2, 3)))

    def test_z_tensor_deterministic(self):
        inst = gen_problem4(6, 8)
        assert is_z_tensor(inst.tensor)
        np.testing.assert_array_equal(inst.tensor.array, gen_problem4(6, 8).tensor.array)

    def test_distinct_from_problem1(self):
        a, b = gen_problem1(5, 3), gen_problem4(5, 3)
        assert not np.array_equal(a.tensor.array, b.tensor.array)


class TestGeneratedBits:
    """The tensor bytes, pinned by sha256: a change to generation, to the
    symmetrization or to the fixture table that moves any bit of a generated
    tensor fails here."""

    @pytest.mark.parametrize(
        "make, digest",
        [(lambda: gen_problem1(12, 3),
          "65c2c657d24a45718d4e025b373c0271a307086b2ce3615b43389c0c5d4f889e"),
         (lambda: gen_problem2(8),
          "61667c37cdfac4e5181a7b929d0971a4db00e611d6abdb0323169facfb4c4650"),
         (lambda: gen_problem4(12, 3),
          "afee8d17a87ed11c34a28612591ed4819a22306007134bd49c8bddc39a862367"),
         (lambda: fixture("ex11"),
          "6d0fde09eb37372923e7023a16c623fe715f8ba4b59194fa643c57a06fc215fa"),
         (lambda: fixture("ex21"),
          "aee24371d168593b67975351b661cd486909779e5f12210405c69f6f34e150dc"),
         (lambda: fixture("ex22"),
          "8ee37cb607ac93332a9c5689942f852c0a2b44bb0dd2fd0977117ae9c5056f7a")],
        ids=["P1-n12-s3", "P2-n8", "P4-n12-s3", "ex11", "ex21", "ex22"],
    )
    def test_generated_tensor_digest(self, make, digest):
        assert hashlib.sha256(make().tensor.array.tobytes()).hexdigest() == digest

    def test_threaded_symmetrization_digest(self, monkeypatch):
        # P1 at n = 40 is the smallest whose symmetrization the buffer cap
        # lets run on two workers; the digests were computed by the serial
        # code.
        workers = []

        class Pool(tensor_core.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(tensor_core, "ThreadPoolExecutor", Pool)
        inst = gen_problem1(40, 3)
        assert workers == [2]
        assert hashlib.sha256(inst.tensor.array.tobytes()).hexdigest() == (
            "ad2470380d162ff3d08cce8d411343cda8696f762f9e47fdff8121f16d24c409"
        )
        assert hashlib.sha256(inst.rhs.tobytes()).hexdigest() == (
            "ea5950d3c39492f772838d87abadef9972eb777b0c7054d76cec978e75b850a8"
        )

    def test_semi_symmetrize_digest(self):
        T = DenseTensor(np.random.default_rng(20181).random((7,) * 4))
        assert hashlib.sha256(semi_symmetrize(T).array.tobytes()).hexdigest() == (
            "c7c05274a706874fb256c6e22021e1dbf5628157874200897eb19470f552923d"
        )


class TestGenerationMemory:
    """Peak traced allocation while generating, in units of the tensor's
    own bytes: P1 holds the draw and its mean, P4 and P2 only the tensor,
    and each builds s*I - B in place.  The limits hold on any number of
    CPUs: the symmetrization's workers share a fixed buffer budget."""

    LIMITS = pytest.mark.parametrize("problem, limit", [("1", 2.25), ("4", 1.05), ("2", 1.05)],
                                     ids=["P1", "P4", "P2"])

    @staticmethod
    def peak_ratio(problem):
        tracemalloc.start()
        try:
            inst = generate(problem, 40, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / inst.tensor.array.nbytes

    @LIMITS
    def test_peak_relative_to_tensor_bytes(self, problem, limit):
        assert self.peak_ratio(problem) <= limit

    @LIMITS
    def test_peak_on_64_cpus(self, monkeypatch, problem, limit):
        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 64)
        assert self.peak_ratio(problem) <= limit


class TestGenerationThreads:
    def test_one_block_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        generate("1", 10, 0)

    def test_no_thread_left_running(self):
        before = threading.active_count()
        generate("1", 40, 3)
        assert threading.active_count() == before


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
            generate("1", 5, 3).tensor.array, generate("P1", 5, 3).tensor.array
        )
        np.testing.assert_array_equal(
            generate("ex22", 2).tensor.array, fixture("ex22").tensor.array
        )

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            generate("9", 5)
