import csv
import gc
import hashlib
import re
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mteq import (
    DenseTensor,
    DimensionMismatch,
    SolveConfig,
    SparseTensor,
    Status,
    contract_full,
    fixture,
    majorization,
    residual,
    solve,
)
from mteq import tensor_core
from mteq.problems import gen_problem1, gen_problem3, gen_problem4
from mteq.solvers import AUDIT_TOL, METHODS, OMEGA_TOL, Stepper
from mteq.tensor_core import system_scale
from reference import (
    coo,
    dense_array,
    dense_contract,
    diagonal_array,
    diagonal_tensor,
    forbid_n_by_n_zeros,
    identity_tensor,
    jacobian,
)


def started(method, T, b, x0, alpha=1.0, omega=1.0, scale=1.0):
    """A Stepper started at x0, with x0^[m-1] and F(x0) to take its first step from."""
    stepper = Stepper(method, T, b, alpha, omega, scale)
    _, xpow, F, _ = stepper.start(np.asarray(x0, dtype=np.float64))
    return stepper, xpow, F


def r_oracle(T, x):
    """r(x) = (T x^{m-1} - (m-1) M x^[m-1]) / (m-1), computed from its definition."""
    p = T.order - 1
    return (contract_full(T, x) - p * majorization(T) @ x**p) / p


def assert_correction_is_its_definition(stepper, T, b, alpha, x_prev, x):
    """The stepper's eps after the step x_prev -> x is
    min(-alpha F(x), r_oracle(x) - r_oracle(x_prev)), to within 1e-14 of
    the larger max |r|, as the oracle subtracts two r values."""
    r_prev, r = r_oracle(T, x_prev), r_oracle(T, x)
    expected = np.minimum(-alpha * residual(T, b, x), r - r_prev)
    size = max(np.abs(r_prev).max(), np.abs(r).max())
    np.testing.assert_allclose(stepper.eps, expected, rtol=0.0, atol=1e-14 * size)


def in_storage(A, storage):
    """The dense array A as a DenseTensor, or as a SparseTensor of its nonzeros."""
    return DenseTensor(A) if storage == "dense" else coo(A)


class TestSolveConfig:
    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.method == "smeqm" and cfg.alpha == 1.0 and cfg.max_iter == 3000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "newton"},
            {"alpha": 0.0},
            {"alpha": 2.5},
            {"method": "sor", "omega": 0.0},
            {"method": "sor", "omega": 2.0},
            {"eta": 0.0},
            {"max_iter": 0},
            {"max_iter": 2.5},
            {"max_iter": True},
            {"eta": float("inf")},
            {"eta": float("nan")},
            {"alpha": True},
            {"eta": True},
            {"method": "sor", "omega": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_alpha_two_admitted(self):
        assert SolveConfig(alpha=2.0).alpha == 2.0

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"eta": np.True_}, "eta"),
            ({"alpha": np.True_}, "alpha"),
            ({"method": "sor", "omega": np.True_}, "omega"),
            ({"alpha": None}, "alpha"),
            ({"alpha": "1"}, "alpha"),
            ({"alpha": Decimal("0.5")}, "alpha"),
        ],
        ids=["eta-numpy-bool", "alpha-numpy-bool", "omega-numpy-bool", "alpha-None", "alpha-str",
             "alpha-Decimal"],
    )
    def test_non_numbers_rejected_by_name(self, kwargs, field):
        # numpy's bool is no bool subclass, and a Decimal passes a comparison
        # with a float but not the step's arithmetic
        value = kwargs[field]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a number, got {value!r}")):
            SolveConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": np.float32(0.5)}, {"max_iter": np.int64(5)}, {"alpha": Fraction(1, 2)}],
        ids=["alpha-float32", "max_iter-int64", "alpha-Fraction"],
    )
    def test_real_numbers_of_any_type_accepted(self, kwargs):
        # each runs as the float or int of the same value does
        cfg = SolveConfig(method="anewton", **kwargs)
        plain = SolveConfig(method="anewton", alpha=float(cfg.alpha), max_iter=int(cfg.max_iter))
        inst = gen_problem1(6, 2)
        out, ref = solve(inst.tensor, inst.rhs, None, cfg), solve(inst.tensor, inst.rhs, None, plain)
        assert (out.status, out.iterations) == (ref.status, ref.iterations)
        assert out.x.tobytes() == ref.x.tobytes()

    def test_numbers_are_stored_as_float_or_int(self):
        # a Fraction alpha would otherwise make every array of the loop dtype=object
        cfg = SolveConfig(method="sor", alpha=Fraction(1, 2), omega=np.float32(1.5),
                          eta=Fraction(1, 10**8), max_iter=np.int64(5))
        assert [type(v) for v in (cfg.alpha, cfg.omega, cfg.eta, cfg.max_iter)] == [float, float, float, int]
        assert (cfg.alpha, cfg.omega, cfg.eta, cfg.max_iter) == (0.5, 1.5, 1e-8, 5)


class TestStepFunctions:
    def test_smeqm_first_step_on_ex21(self):
        inst = fixture("ex21")
        cfg = SolveConfig(max_iter=1, scale=False)
        x1 = solve(inst.tensor, inst.rhs, [0.8, 2.0], cfg).x
        np.testing.assert_allclose(x1, [0.843433, 2.0], atol=5e-7)

    def test_anewton_first_two_steps_on_ex21(self):
        inst = fixture("ex21")
        stepper, xpow, F = started("anewton", inst.tensor, inst.rhs, [0.8, 2.0])
        x1, xpow, F, _, fallback = stepper.step(xpow, F)
        np.testing.assert_allclose(x1, [0.843433, 2.0], atol=5e-7)
        np.testing.assert_allclose(stepper.eps, [-0.262865, 0.0], atol=5e-7)
        assert not fallback
        x2, _, _, _, fallback = stepper.step(xpow, F)
        np.testing.assert_allclose(x2, [0.918343, 2.0], atol=5e-7)
        assert not fallback

    @pytest.mark.parametrize("alpha, k", [(0.5, 11), (1.0, 7)], ids=["0.5", "1.0"])
    def test_anewton_fallback_is_the_smeqm_step(self, alpha, k):
        # On this instance step k is the first whose corrected candidate
        # leaves S, so it takes the plain smeqm update from x_{k-1}.
        inst = gen_problem1(6, 2)
        T, b = inst.tensor, inst.rhs
        x = np.zeros(6)
        stepper, xpow, F = started("anewton", T, b, x, alpha, scale=system_scale(T, b))
        fallbacks = []
        for _ in range(k):
            x_prev = x
            x, xpow, F, _, fallback = stepper.step(xpow, F)
            fallbacks.append(fallback)
        assert fallbacks == [False] * (k - 1) + [True]
        cfg = SolveConfig(alpha=alpha, max_iter=1, scale=False)
        assert x.tobytes() == solve(T, b, x_prev, cfg).x.tobytes()
        cfg = SolveConfig(method="anewton", alpha=alpha, max_iter=k)
        assert solve(T, b, None, cfg).trace.eps_fallback == fallbacks

    def test_r_correction_on_ex21(self):
        # from (0.8, 2), where r(x0) = (0.128/3, -16)
        inst = fixture("ex21")
        T, b, x = inst.tensor, inst.rhs, np.array([0.8, 2.0])
        np.testing.assert_allclose(r_oracle(T, x), [0.128 / 3.0, -16.0], atol=1e-12)
        stepper, xpow, F = started("anewton", T, b, x)
        for _ in range(25):
            x_prev = x
            x, xpow, F, _, _ = stepper.step(xpow, F)
            assert_correction_is_its_definition(stepper, T, b, 1.0, x_prev, x)

    @pytest.mark.parametrize("storage", ["dense", "coo"])
    @pytest.mark.parametrize("alpha, k", [(0.5, 11), (1.0, 7)], ids=["0.5", "1.0"])
    def test_correction_at_every_step_on_problem1(self, storage, alpha, k):
        # the run of test_anewton_fallback_is_the_smeqm_step, to 4 steps past
        # its first fallback at step k
        inst = gen_problem1(6, 2)
        T, b = in_storage(dense_array(inst.tensor), storage), inst.rhs
        x = np.zeros(6)
        stepper, xpow, F = started("anewton", T, b, x, alpha, scale=system_scale(T, b))
        fallbacks = []
        for _ in range(k + 4):
            x_prev = x
            x, xpow, F, _, fallback = stepper.step(xpow, F)
            fallbacks.append(fallback)
            assert_correction_is_its_definition(stepper, T, b, alpha, x_prev, x)
        assert fallbacks.index(True) == k - 1

    def test_epsilon_update_entrywise_min(self):
        # From (0.5, 2.5) on ex21 the first step lands on x_2 = 2 exactly, so
        # there -alpha F = 0 lies below r(x1) - r(x0) = -16 + 31.25; on
        # entry 1 the difference of r lies below -alpha F.
        inst = fixture("ex21")
        T, b, x0 = inst.tensor, inst.rhs, np.array([0.5, 2.5])
        stepper, xpow, F = started("anewton", T, b, x0)
        x1, _, _, _, fallback = stepper.step(xpow, F)
        assert not fallback and x1[1] == 2.0
        aF, dr = -residual(T, b, x1), r_oracle(T, x1) - r_oracle(T, x0)
        np.testing.assert_allclose(aF, [0.265391, 0.0], atol=5e-7)
        np.testing.assert_allclose(dr, [-3.505130, 15.25], atol=5e-7)
        np.testing.assert_allclose(stepper.eps, [dr[0], aF[1]], rtol=0.0, atol=1e-14 * 31.25)

    @pytest.mark.parametrize("storage", ["dense", "coo"])
    @pytest.mark.parametrize("method", METHODS)
    def test_start_evaluates_x0(self, storage, method):
        # start(x0) returns x0, x0^[m-1], F(x0) and its largest entry bit for bit
        T = in_storage(dense_array(gen_problem1(6, 2).tensor), storage)
        b, x0 = np.linspace(1.0, 2.0, 6), np.linspace(0.0, 0.5, 6)
        stepper = Stepper(method, T, b, 0.5, 1.3)
        x, xpow, F, Fmax = stepper.start(x0)
        ref = residual(T, b, x0)
        assert x.tobytes() == x0.tobytes() and xpow.tobytes() == (x0 ** (T.order - 1)).tobytes()
        assert F.tobytes() == ref.tobytes() and Fmax == ref.max()
        if method == "anewton":
            assert np.all(stepper.eps == 0.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_problem3_at_scale_builds_no_n_by_n_array(self, monkeypatch, method):
        # P3's M is diagonal, so every method divides by diagonal(T) and builds no M
        inst = gen_problem3(2000)
        assert isinstance(inst.tensor, SparseTensor)
        forbid_n_by_n_zeros(monkeypatch, inst.n)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(method=method, max_iter=5))
        assert out.status is Status.MAX_ITER and out.iterations == 5

    def test_jacobi_step_on_diagonal_tensor_is_exact_direction(self):
        # for the identity tensor the Jacobi step solves the system in one move
        T = identity_tensor(3, 2)
        b = np.array([4.0, 9.0])
        cfg = SolveConfig(method="jacobi", max_iter=1, scale=False)
        x1 = solve(T, b, np.zeros(2), cfg).x
        np.testing.assert_allclose(x1, [2.0, 3.0])


def guard_system():
    """A dense order-4, n = 6 system whose M is diagonal, with two entries
    off the (i, j, ..., j) positions, and its right side."""
    T = diagonal_array(4, np.linspace(1.3, 2.9, 6) + 1 / 7)
    T[0, 1, 2, 3], T[3, 4, 5, 0] = -0.37, -0.29
    return DenseTensor(T), np.linspace(0.6, 1.4, 6) / 3


class TestDiagonalMajorization:
    """Where M is diagonal every method divides by diagonal(T), as jacobi
    always does, and the plain step is x^[m-1] - c (F / d), with c = alpha
    (alpha omega for sor): smeqm, jacobi and gs take the same step, bit for
    bit."""

    @pytest.mark.parametrize("method", ["smeqm", "jacobi", "anewton"])
    def test_tiny_diagonal_entry_is_data(self, method):
        # diag(1, 1e-20): a division by 1e-20 is exact, and only an exact zero
        # is singular; smeqm and anewton used to reject the LU pivot 1e-20
        T = diagonal_tensor(3, [1.0, 1e-20])
        out = solve(T, [1.0, 1e-20], None, SolveConfig(method=method))
        assert out.status is Status.CONVERGED and out.iterations == 1
        assert out.x.tolist() == [1.0, 1.0]

    # sha256 of x, computed with the LU and triangular solves of M, which
    # the division by d reproduces bit for bit for these methods.
    GUARD = {
        ("smeqm", 1.0): ("Converged", 7,
                          "f2aa22fd6350ae82f227f9ecb0c7b1fcdcd3d19e53c79d63e8322da41179087e"),
        ("smeqm", 1.9): ("MaxIterReached", 3000,
                          "86234f023b150581d700ccd52768d5df2338956449cd96c23ceaedef515e4df8"),
        ("sor", 1.0): ("Converged", 16,
                        "b40070dc1fed84bccce7134073fe4287c7be1b32c52614c55e9dcdc58cda7ce5"),
        ("sor", 1.9): ("NonFinite", 1822,
                        "c9a9f7b6352dac9aa44d95fcb13f76cd3abab08a064c689283c305a64cb61116"),
        ("anewton", 1.0): ("Converged", 7,
                            "f2aa22fd6350ae82f227f9ecb0c7b1fcdcd3d19e53c79d63e8322da41179087e"),
        ("anewton", 1.9): ("MaxIterReached", 3000,
                            "86234f023b150581d700ccd52768d5df2338956449cd96c23ceaedef515e4df8"),
    }

    @pytest.mark.parametrize("method, alpha", sorted(GUARD))
    def test_each_method_keeps_its_order_of_operations(self, method, alpha):
        T, b = guard_system()
        out = solve(T, b, None, SolveConfig(method, alpha, omega=1.3))
        status, iterations, digest = self.GUARD[method, alpha]
        assert (out.status.value, out.iterations) == (status, iterations)
        assert hashlib.sha256(out.x.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("system", ["guard", "P3-n50"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
    @pytest.mark.parametrize("method", ["jacobi", "gs"])
    def test_jacobi_and_gs_step_as_smeqm(self, method, alpha, system):
        # a dense system and a COO one; alpha = 1.9 runs 3000 iterations,
        # so a difference in the last bit of one step would show in x
        if system == "guard":
            T, b = guard_system()
        else:
            inst = gen_problem3(50)
            T, b = inst.tensor, inst.rhs
        out = solve(T, b, None, SolveConfig(method, alpha, omega=1.3))
        ref = solve(T, b, None, SolveConfig("smeqm", alpha))
        assert (out.status, out.iterations) == (ref.status, ref.iterations)
        assert out.x.tobytes() == ref.x.tobytes()


    @pytest.mark.parametrize("system", ["P1-n6", "guard", "P3-n50"])
    @pytest.mark.parametrize("method", METHODS)
    def test_builds_m_at_most_once(self, monkeypatch, method, system):
        # a dense M is built once, both to judge whether it is diagonal and
        # to invert it; jacobi, and a COO T whose M is diagonal, build none
        built, majorization = [], tensor_core.majorization
        monkeypatch.setattr(tensor_core, "majorization", lambda T: built.append(T) or majorization(T))
        if system == "guard":
            T, b = guard_system()
        else:
            inst = gen_problem1(6, 0) if system == "P1-n6" else gen_problem3(50)
            T, b = inst.tensor, inst.rhs
        Stepper(method, T, b, 1.0, 1.3).close()
        assert len(built) == (0 if method == "jacobi" or system == "P3-n50" else 1)


class TestStepWrappersRunSolvesCode:
    """Steps taken one at a time from x0 = 0 give solve()'s iterates bit for
    bit: for anewton a Stepper driven by hand on the system as given, with
    the system's scale, and for the other methods one-step solves, each
    restarted from the last iterate."""

    @pytest.mark.parametrize("problem", ["P1", "P3"])
    @pytest.mark.parametrize("method", ["smeqm", "jacobi", "gs", "sor", "anewton"])
    def test_first_five_iterates(self, problem, method):
        inst = gen_problem1(10, 3) if problem == "P1" else gen_problem3(10)
        w = system_scale(inst.tensor, inst.rhs)
        x = np.zeros(10)
        if method == "anewton":
            stepper, xpow, F = started(method, inst.tensor, inst.rhs, x, scale=w)
        one_step = SolveConfig(method=method, omega=1.3, max_iter=1)
        for k in range(1, 6):
            if method == "anewton":
                x, xpow, F, _, fallback = stepper.step(xpow, F)
            else:
                x = solve(inst.tensor, inst.rhs, x, one_step).x
            cfg = SolveConfig(method=method, omega=1.3, max_iter=k)
            out = solve(inst.tensor, inst.rhs, None, cfg)
            assert out.status is Status.MAX_ITER and out.iterations == k
            assert out.x.tobytes() == x.tobytes(), (method, k)
            if method == "anewton":
                assert fallback == out.trace.eps_fallback[-1]


class TestSolveFixtures:
    def test_ex21_smeqm_unscaled(self):
        inst = fixture("ex21")
        out = solve(inst.tensor, inst.rhs, [0.8, 2.0], SolveConfig(scale=False))
        assert out.status is Status.CONVERGED
        np.testing.assert_allclose(out.x, [1.0, 2.0], atol=1e-6)
        assert out.trace.max_violation() <= 1e-12
        assert not out.infeasible_start

    def test_ex21_anewton_faster_than_smeqm(self):
        inst = fixture("ex21")
        base = solve(inst.tensor, inst.rhs, [0.8, 2.0], SolveConfig(scale=False))
        newt = solve(inst.tensor, inst.rhs, [0.8, 2.0], SolveConfig(method="anewton", scale=False))
        assert newt.status is Status.CONVERGED
        np.testing.assert_allclose(newt.x, [1.0, 2.0], atol=1e-6)
        assert newt.iterations < base.iterations

    def test_ex22_converges_to_larger_solution(self):
        inst = fixture("ex22")
        out = solve(inst.tensor, inst.rhs, [1.5, 2.0], SolveConfig())
        assert out.status is Status.CONVERGED
        np.testing.assert_allclose(out.x, [2.0, 2.0], atol=1e-6)

    @pytest.mark.parametrize("method", ["smeqm", "jacobi", "gs", "sor", "anewton"])
    def test_all_methods_agree_on_problem1(self, method):
        inst = gen_problem1(8, 5)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(method=method))
        assert out.status is Status.CONVERGED
        assert np.all(out.x >= 0.0)
        res = residual(inst.tensor, inst.rhs, out.x)
        assert np.linalg.norm(res) / out.scale_factor <= 1e-8

    def test_gs_is_sor_with_unit_omega(self):
        inst = gen_problem1(6, 2)
        gs = solve(inst.tensor, inst.rhs, None, SolveConfig(method="gs"))
        sor = solve(inst.tensor, inst.rhs, None, SolveConfig(method="sor", omega=1.0))
        np.testing.assert_array_equal(gs.x, sor.x)
        assert gs.iterations == sor.iterations


class TestSolveBehaviour:
    def test_scale_invariance(self):
        inst = gen_problem1(6, 7)
        big = DenseTensor(dense_array(inst.tensor) * 1e9)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig())
        out_big = solve(big, inst.rhs * 1e9, None, SolveConfig())
        assert out_big.status is Status.CONVERGED
        np.testing.assert_allclose(out_big.x, out.x, rtol=1e-9)
        assert out_big.scale_factor == pytest.approx(out.scale_factor * 1e9)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_extreme_scale_gives_the_same_x(self, k):
        # the squares of F for the system times 2^-600 underflow and for 2^600
        # overflow; the residual in units of the scale stays in range
        inst = gen_problem1(6, 7)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig())
        far = solve(DenseTensor(np.ldexp(dense_array(inst.tensor), k)), np.ldexp(inst.rhs, k), None,
                    SolveConfig())
        assert far.iterations == out.iterations > 0
        assert far.x.tobytes() == out.x.tobytes()

    def test_start_feasibility_is_judged_in_units_of_the_scale(self):
        # F(x0) = (0, 6e-13) is 6.7e-14 in units of w = 9, so the start is
        # feasible at every scale, though 2^60 F(x0) is far above AUDIT_TOL
        T, b, x0 = identity_tensor(3, 2), np.array([4.0, 9.0]), [2.0, 3.0 + 1e-13]
        for k in (0, 60):
            out = solve(times_power_of_two(T, k), np.ldexp(b, k), x0, SolveConfig())
            assert out.status is Status.CONVERGED and not out.infeasible_start

    def test_infeasible_start_flagged_not_fatal(self):
        T = identity_tensor(3, 2)
        out = solve(T, [4.0, 9.0], [3.0, 1.0], SolveConfig(scale=False))
        assert out.infeasible_start
        assert out.status is Status.CONVERGED
        np.testing.assert_allclose(out.x, [2.0, 3.0], atol=1e-8)

    def test_negative_x0_rejected(self):
        inst = fixture("ex22")
        with pytest.raises(ValueError):
            solve(inst.tensor, inst.rhs, [-0.1, 2.0])

    def test_nonfinite_x0_rejected(self):
        inst = fixture("ex22")
        with pytest.raises(ValueError, match="finite"):
            solve(inst.tensor, inst.rhs, [np.nan, 2.0])

    @pytest.mark.parametrize("scale", [True, False])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_rhs_rejected(self, scale, bad):
        inst = gen_problem3(10)
        b = inst.rhs.copy()
        b[0] = bad
        with pytest.raises(ValueError, match="b must be finite"):
            solve(inst.tensor, b, None, SolveConfig(scale=scale))

    def test_wrong_length_x0_rejected(self):
        inst = fixture("ex22")
        with pytest.raises(DimensionMismatch):
            solve(inst.tensor, inst.rhs, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("scale", [True, False])
    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_length_rhs_rejected(self, scale, length):
        # a length-1 b would broadcast against F if it were not checked
        inst = fixture("ex22")
        with pytest.raises(DimensionMismatch):
            solve(inst.tensor, np.ones(length), None, SolveConfig(scale=scale))

    @pytest.mark.parametrize("scale", [True, False])
    def test_wrong_length_rhs_rejected_before_factoring(self, scale):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = arr[1, 1, 0] = 1.0  # a singular majorization matrix
        with pytest.raises(DimensionMismatch):
            solve(DenseTensor(arr), [1.0], None, SolveConfig(scale=scale))

    def test_negative_power_status(self):
        # at x0 = 0 the first direction is -b; a negative b entry makes
        # x^[m-1] negative with an even-power root, a hard abort
        out = solve(identity_tensor(3, 2), [-1.0, 1.0], None, SolveConfig())
        assert out.status is Status.NEGATIVE_POWER_RHS
        assert out.iterations == 0 and out.res2 == np.sqrt(2.0)  # ||F(0)||_2 = ||b||_2

    def test_singular_majorization_status(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = arr[1, 1, 0] = 1.0  # all entries off the (i, j, j) grid
        out = solve(DenseTensor(arr), [1.0, 1.0], None, SolveConfig())
        assert out.status is Status.SINGULAR_MATRIX
        assert out.iterations == 0
        assert np.isnan(out.res2) and np.isnan(out.omega)

    # M = T has a zero diagonal entry but is nonsingular: the splittings
    # cannot divide by it, while smeqm inverts M and runs.
    ZERO_DIAGONAL = DenseTensor(np.array([[0.0, -1.0], [-1.0, 2.0]]))

    @pytest.mark.parametrize("method", ["jacobi", "gs", "sor"])
    def test_zero_diagonal_splitting_status(self, method):
        out = solve(self.ZERO_DIAGONAL, [1.0, 1.0], None, SolveConfig(method=method))
        assert out.status is Status.SINGULAR_MATRIX
        assert out.iterations == 0 and len(out.trace) == 0
        assert np.isnan(out.res2) and np.isnan(out.omega)

    def test_zero_diagonal_factors_for_smeqm(self):
        out = solve(self.ZERO_DIAGONAL, [1.0, 1.0], None, SolveConfig(method="smeqm"))
        assert out.status is Status.NEGATIVE_POWER_RHS

    # P4 n = 3 seed 1 at alpha = 2 diverges.  Jacobi and Gauss-Seidel reach
    # inf entries; smeqm stays finite (x ~ 5e82) while the 2-norm of its
    # residual overflows, which is not a non-finite outcome.
    @pytest.mark.parametrize("method", ["jacobi", "gs"])
    def test_non_finite_status(self, method):
        inst = gen_problem4(3, 1)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(method=method, alpha=2.0))
        assert out.status is Status.NON_FINITE
        assert 0 < out.iterations < 3000
        assert len(out.trace) == out.iterations
        assert np.all(np.isfinite(out.x))
        assert out.res2 == out.trace.res2[-1]  # the last finite iterate's residual

    def test_non_finite_residual_at_start(self):
        # x0 is finite, but F(x0) overflows to inf entries
        inst = fixture("ex22")
        out = solve(inst.tensor, inst.rhs, [1e200, 1e200], SolveConfig())
        assert out.status is Status.NON_FINITE
        assert out.iterations == 0 and len(out.trace) == 0
        assert out.omega == np.inf

    def test_start_with_inf_and_nan_residual_is_infeasible(self):
        # F(x0) = (inf, NaN): its largest entry is NaN, yet F_1 is above AUDIT_TOL
        inst = fixture("ex22")
        out = solve(inst.tensor, inst.rhs, [1e200, 1.0], SolveConfig())
        assert out.status is Status.NON_FINITE and out.infeasible_start

    # The same divergent runs, with every warning turned into an error: the
    # status reports the divergence, and numpy prints nothing.
    @pytest.mark.parametrize(
        "method, status, iterations",
        [("jacobi", Status.NON_FINITE, 2543), ("gs", Status.NON_FINITE, 2893),
         ("smeqm", Status.MAX_ITER, 3000)],
    )
    def test_divergence_raises_no_warning(self, method, status, iterations):
        inst = gen_problem4(3, 1)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve(inst.tensor, inst.rhs, None, SolveConfig(method=method, alpha=2.0))
        assert out.status is status and out.iterations == iterations
        assert np.geterr() == before

    @pytest.mark.parametrize("method", ["smeqm", "jacobi", "gs", "sor", "anewton"])
    def test_leaves_no_reference_cycle(self, monkeypatch, method):
        # a cycle would keep each finished solve's factors, trace and
        # magnitudes of the tensor alive until a full garbage collection;
        # at n = 40 the run has a worker thread, which must not point back
        # at the stepper that owns it
        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
        for inst in (gen_problem1(6, 2), gen_problem1(40, 2)):
            gc.collect()
            gc.disable()
            try:
                solve(inst.tensor, inst.rhs, None, SolveConfig(method=method))
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_overflowing_norm_keeps_max_iter(self):
        inst = gen_problem4(3, 1)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(method="smeqm", alpha=2.0))
        assert out.status is Status.MAX_ITER and out.iterations == 3000
        assert np.all(np.isfinite(out.x))
        assert out.trace.res2[-1] == np.inf

    def test_max_iter_status(self):
        inst = gen_problem1(6, 0)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(max_iter=3))
        assert out.status is Status.MAX_ITER
        assert out.iterations == 3

    def test_alpha_warning_flag(self):
        inst = gen_problem1(6, 0)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(alpha=1.5))
        assert out.alpha_warning
        assert not solve(inst.tensor, inst.rhs, None, SolveConfig()).alpha_warning

    def test_monotone_feasible_audit_on_problem1(self):
        inst = gen_problem1(8, 11)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(alpha=0.5))
        assert out.status is Status.CONVERGED
        assert out.trace.max_violation() <= 1e-12
        assert out.trace.max_feas_violation() <= 1e-12

    def test_monotone_audit_is_relative_to_x(self):
        # x reaches 6.37e6 here, where one ulp is 9.3e-10, so a drop of a few
        # ulps read 6.4e-7 in absolute units of x
        inst = gen_problem3(10)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(method="anewton", alpha=0.5))
        assert out.status is Status.CONVERGED and out.x.max() > 6e6
        assert out.trace.max_violation() <= AUDIT_TOL

    def test_eta_controls_stopping(self):
        inst = gen_problem1(6, 3)
        loose = solve(inst.tensor, inst.rhs, None, SolveConfig(eta=1e-4))
        tight = solve(inst.tensor, inst.rhs, None, SolveConfig(eta=1e-10))
        assert loose.iterations < tight.iterations
        assert loose.trace.res2[-1] <= 1e-4
        assert loose.res2 == loose.trace.res2[-1] and tight.res2 == tight.trace.res2[-1]

    def test_converged_at_start_runs_zero_iterations(self):
        T = identity_tensor(3, 2)
        out = solve(T, [4.0, 9.0], [2.0, 3.0], SolveConfig(scale=False))
        assert out.status is Status.CONVERGED
        assert out.iterations == 0
        assert out.res2 == 0.0


@pytest.fixture(scope="module")
def p1_n40():
    """P1 at n = 40, whose 3.5 MiB packed matrix a run contracts on two threads."""
    return gen_problem1(40, 3)


def outcome_bits(out):
    """Everything a solve returns but the trace's wall times, as bytes and values."""
    trace = out.trace
    return (out.status, out.iterations, out.x.tobytes(), out.res2, out.omega, trace.res2, trace.resinf,
            trace.mono_violation, trace.feas_violation, trace.eps_fallback)


class TestSplitContraction:
    """A dense run whose packed matrix is past one core's L2 and within two
    contracts on a worker thread as well (`tensor_core._row_split`)."""

    @pytest.fixture
    def starts(self, monkeypatch):
        """The threads started, with 2 usable CPUs whatever the machine has."""
        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 2)
        started, start = [], threading.Thread.start

        def starting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", starting)
        return started

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("method", METHODS)
    def test_same_outcome_on_one_cpu(self, monkeypatch, p1_n40, method, alpha):
        cfg = SolveConfig(method=method, alpha=alpha, omega=1.3 if method == "sor" else 1.0, max_iter=25)
        outcomes = []
        for cpus in (2, 1):
            monkeypatch.setattr(tensor_core, "_usable_cpus", lambda c=cpus: c)
            outcomes.append(outcome_bits(solve(p1_n40.tensor, p1_n40.rhs, None, cfg)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("ending", ["converged", "max_iter", "raises"])
    def test_joins_its_worker(self, monkeypatch, starts, p1_n40, ending):
        threads = threading.active_count()
        if ending == "raises":
            step = Stepper.step

            def failing(stepper, xpow, F):
                step(stepper, xpow, F)
                raise RuntimeError("step failed")

            monkeypatch.setattr(Stepper, "step", failing)
            with pytest.raises(RuntimeError, match="step failed"):
                solve(p1_n40.tensor, p1_n40.rhs, None, SolveConfig(method="anewton"))
        else:
            cfg = SolveConfig(method="anewton", max_iter=3000 if ending == "converged" else 5)
            out = solve(p1_n40.tensor, p1_n40.rhs, None, cfg)
            assert out.status is (Status.CONVERGED if ending == "converged" else Status.MAX_ITER)
        assert len(starts) == 1 and not starts[0].is_alive()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("case", ["P3", "P1 n = 10", "P1 n = 50", "one CPU"])
    def test_starts_no_thread(self, monkeypatch, case):
        # COO never splits, nor a packed matrix within one L2 or past two, nor
        # a run on one CPU; the system is generated first, since generating
        # P1 at n = 40 or 50 may start a thread of its own
        inst = {"P3": lambda: gen_problem3(50), "P1 n = 10": lambda: gen_problem1(10, 3),
                "P1 n = 50": lambda: gen_problem1(50, 3), "one CPU": lambda: gen_problem1(40, 3)}[case]()
        monkeypatch.setattr(tensor_core, "_usable_cpus", lambda: 1 if case == "one CPU" else 2)

        def refused(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refused)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(method="anewton", max_iter=5))
        assert out.iterations >= 1

    def test_concurrent_solves_agree(self, starts, p1_n40):
        # two solves of one system at once, each with its own worker: four
        # threads on at most two cores, switching every 10 us
        cfg = SolveConfig(method="anewton")
        expected = outcome_bits(solve(p1_n40.tensor, p1_n40.rhs, None, cfg))
        results = [None, None]

        def run(i):
            results[i] = outcome_bits(solve(p1_n40.tensor, p1_n40.rhs, None, cfg))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runners = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in runners:
                t.start()
            for t in runners:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in runners)
        assert results == [expected, expected]
        # one worker per solve, counted by name apart from the two solving
        # threads; p1_n40, a module fixture, was generated before the patch
        assert [t.name for t in starts].count("mteq-rows") == 3


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        inst = fixture("ex22")
        out = solve(inst.tensor, inst.rhs, [1.5, 2.0], SolveConfig())
        path = tmp_path / "trace.csv"
        out.trace.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(out.trace)
        assert [int(r["k"]) for r in rows] == list(range(1, len(out.trace) + 1))
        np.testing.assert_allclose([float(r["res2"]) for r in rows], out.trace.res2)
        np.testing.assert_allclose(
            [float(r["mono_violation"]) for r in rows], out.trace.mono_violation
        )
        np.testing.assert_allclose(
            [float(r["feas_violation"]) for r in rows], out.trace.feas_violation
        )
        assert list(rows[0])[-1] == "feas_violation"

    def test_residual_series_is_decreasing_for_smeqm(self):
        inst = gen_problem1(6, 13)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig())
        r = np.array(out.trace.res2)
        assert np.all(np.diff(r) <= 1e-12)


def strong_m_system(m, n, density, margin, seed, sparse, huge_row=None):
    """(T, b) with T = s*I - B, B >= 0 random and s `margin` times the
    largest row sum of B, so T is a strong M-tensor for margin > 1; b > 0,
    so the system has exactly one positive solution.  T is COO if `sparse`,
    else dense.  With a `huge_row`, that entry of b is 1e12, so
    ||F||_2 / w can meet eta while the rows of the other entries are
    unresolved."""
    rng = np.random.default_rng(seed)
    B = rng.uniform(0.0, 1.0, (n,) * m) * (rng.random((n,) * m) < density)
    i = np.arange(n)
    B[(i,) * m] = rng.uniform(0.1, 1.0, n)  # every row sum is positive
    arr = -B
    arr[(i,) * m] += margin * B.reshape(n, -1).sum(axis=1).max()
    b = rng.uniform(0.01, 1.0, n)
    if huge_row is not None:
        b[huge_row] = 1e12
    return (coo(arr) if sparse else DenseTensor(arr)), b


@st.composite
def strong_m_systems(draw, huge_b=False):
    """A strong_m_system with m in 2..5, n in 1..8 and margin in 1.05..2,
    with a huge entry of b if huge_b."""
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    density, margin = draw(st.floats(0.05, 1.0)), draw(st.floats(1.05, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    huge_row = draw(st.integers(0, n - 1)) if huge_b else None
    return strong_m_system(m, n, density, margin, seed, draw(st.booleans()), huge_row)


def times_power_of_two(T, k):
    if isinstance(T, SparseTensor):
        return SparseTensor(T.order, T.dim, T.idx, np.ldexp(T.vals, k))
    return DenseTensor(np.ldexp(dense_array(T), k))


def inverse_jacobian_magnitude(T, x):
    """|J^{-1}| for J = (m-1) sym(T) x^{m-2}, the Jacobian of T x^{m-1} at x,
    where sym averages T over its trailing indices."""
    return np.abs(np.linalg.inv(jacobian(T, x)))


def residual_with_rounding(T, b, x):
    """|F(x)| as computed, plus a first-order bound on the rounding in it:
    gamma (|T| |x|^{m-1} + |b|) with gamma = (n^{m-1} + m) u.  Each row sums
    at most n^{m-1} products of m factors, then subtracts b_i."""
    n, m = T.dim, T.order
    gamma = (n ** (m - 1) + m) * np.finfo(np.float64).eps / 2
    size = dense_contract(np.abs(dense_array(T)), np.abs(x)) + np.abs(b)
    return np.abs(residual(T, b, x)) + gamma * size


class TestRandomStrongMTensors:
    # On the example, jacobi at alpha 0.5 ends 1.005e-5 (relative) from
    # x_ref, beyond a fixed rtol of 1e-5.
    @settings(max_examples=20, deadline=None)
    @given(system=strong_m_systems(), k=st.integers(-30, 30))
    @example(system=strong_m_system(5, 8, 0.9712633763946104, 1.9819586992722098, 2049286, True), k=0)
    # Here both computed residuals are 0 and the two x differ by 2.8e-17
    # (anewton, alpha 0.5): only the rounding of F bounds the error.
    @example(system=strong_m_system(3, 1, 0.16806911267458574, 1.6870931939589489, 2257511098, True), k=0)
    def test_every_method_reaches_the_solution(self, system, k):
        # Converged bounds the residual, not the error; to first order
        # x - x_ref = J^{-1} (F(x) - F(x_ref)), where each F is the computed
        # one plus its rounding, and the factor 2 covers the second-order term.
        T, b = system
        ref = solve(T, b, None, SolveConfig(method="anewton", eta=1e-10))
        assert ref.status is Status.CONVERGED and np.all(ref.x > 0.0)
        jinv, f_ref = inverse_jacobian_magnitude(T, ref.x), residual_with_rounding(T, b, ref.x)
        for method in METHODS:
            for alpha in (0.5, 1.0):
                cfg = SolveConfig(method=method, alpha=alpha)
                out = solve(T, b, None, cfg)
                assert out.status is Status.CONVERGED, (method, alpha)
                assert not out.infeasible_start
                assert out.trace.max_violation() <= AUDIT_TOL, (method, alpha)
                assert out.trace.max_feas_violation() <= AUDIT_TOL, (method, alpha)
                bound = 2.0 * jinv @ (residual_with_rounding(T, b, out.x) + f_ref)
                assert np.all(np.abs(out.x - ref.x) <= bound), (method, alpha)
                big = solve(times_power_of_two(T, k), np.ldexp(b, k), None, cfg)
                assert big.x.tobytes() == out.x.tobytes(), (method, alpha)
                for column in ("res2", "resinf", "feas_violation", "eps_fallback"):
                    assert getattr(big.trace, column) == getattr(out.trace, column), column


def badly_scaled_system(sparse):
    """m = 2, T = [[2, 0, -1], [0, 2, 0], [-1, 0, 2]] and b = (1, 1e12, 1),
    solved by x = (1, 5e11, 1).  ||F||_2 / w meets the default eta as soon
    as row 2 is resolved, with x_1 and x_3 still far off."""
    A = np.array([[2.0, 0.0, -1.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 2.0]])
    return (coo(A) if sparse else DenseTensor(A)), np.array([1.0, 1e12, 1.0])


def backward_error_oracle(A, b, x):
    """max_i |F_i| / ((|A| |x|^{m-1})_i + |b_i|) from the dense array A, by
    reshape-matmul, with 0/0 read as 0."""
    num = np.abs(dense_contract(A, x) - b)
    den = dense_contract(np.abs(A), np.abs(x)) + np.abs(b)
    return np.divide(num, den, out=np.zeros(len(x)), where=num != 0.0).max(initial=0.0)


class TestBackwardError:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "coo"])
    @pytest.mark.parametrize("method", ["jacobi", "gs", "sor"])
    def test_every_row_is_resolved(self, method, sparse):
        # the 2-norm test alone is met after one step, at x_1 = 0.5
        T, b = badly_scaled_system(sparse)
        out = solve(T, b, None, SolveConfig(method=method))
        assert out.status is Status.CONVERGED and out.omega <= OMEGA_TOL
        exact = np.array([1.0, 5e11, 1.0])
        assert np.max(np.abs(out.x - exact) / exact) <= 1e-4

    @settings(max_examples=20, deadline=None)
    @given(system=strong_m_systems(huge_b=True))
    @example(system=badly_scaled_system(sparse=False))
    def test_converged_means_small_backward_error(self, system):
        T, b = system
        for method in METHODS:
            for alpha in (0.5, 1.0):
                out = solve(T, b, None, SolveConfig(method=method, alpha=alpha))
                if out.status is Status.CONVERGED:
                    omega = backward_error_oracle(dense_array(T), b, out.x)
                    assert omega <= 2 * OMEGA_TOL, (method, alpha, omega)
