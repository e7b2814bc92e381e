import csv
import gc
import warnings

import numpy as np
import pytest

from mteq import (
    DenseTensor,
    EpsilonState,
    SolveConfig,
    Status,
    epsilon_update,
    fixture,
    identity_tensor,
    majorization,
    r_correction,
    residual,
    scale_system,
    solve,
    step_anewton,
    step_smeqm,
    step_splitting,
)
from mteq.problems import gen_problem1, gen_problem3, gen_problem4


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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_alpha_two_admitted(self):
        assert SolveConfig(alpha=2.0).alpha == 2.0


class TestStepFunctions:
    def test_smeqm_first_step_on_ex21(self):
        inst = fixture("ex21")
        lu = majorization(inst.tensor).lu()
        x1 = step_smeqm(lu, inst.tensor, inst.rhs, [0.8, 2.0], 1.0)
        np.testing.assert_allclose(x1, [0.843433, 2.0], atol=5e-7)

    def test_anewton_first_two_steps_on_ex21(self):
        inst = fixture("ex21")
        M = majorization(inst.tensor)
        lu = M.lu()
        x0 = np.array([0.8, 2.0])
        state = EpsilonState.initial(r_correction(inst.tensor, M, x0))
        x1, state = step_anewton(lu, inst.tensor, inst.rhs, x0, 1.0, state)
        np.testing.assert_allclose(x1, [0.843433, 2.0], atol=5e-7)
        np.testing.assert_allclose(state.eps, [-0.262865, 0.0], atol=5e-7)
        assert not state.fallback_used
        x2, state = step_anewton(lu, inst.tensor, inst.rhs, x1, 1.0, state)
        np.testing.assert_allclose(x2, [0.918343, 2.0], atol=5e-7)
        assert not state.fallback_used

    def test_r_correction_on_ex21(self):
        inst = fixture("ex21")
        M = majorization(inst.tensor)
        np.testing.assert_allclose(
            r_correction(inst.tensor, M, [0.8, 2.0]), [0.128 / 3.0, -16.0], atol=1e-12
        )

    def test_epsilon_update_entrywise_min(self):
        state = EpsilonState(r_prev=np.array([1.0, 0.0]), eps=np.zeros(2))
        new = epsilon_update(state, F_k=[-2.0, -0.5], r_k=[1.5, -3.0], alpha=1.0)
        np.testing.assert_allclose(new.eps, [0.5, -3.0])
        np.testing.assert_allclose(new.r_prev, [1.5, -3.0])

    def test_splitting_variants_disagree_only_in_update(self):
        inst = fixture("ex22")
        x = np.array([1.5, 2.0])
        gs = step_splitting(inst.tensor, inst.rhs, x, 1.0, "gs")
        sor1 = step_splitting(inst.tensor, inst.rhs, x, 1.0, "sor", omega=1.0)
        np.testing.assert_array_equal(gs, sor1)
        with pytest.raises(ValueError):
            step_splitting(inst.tensor, inst.rhs, x, 1.0, "ssor")

    def test_jacobi_step_on_diagonal_tensor_is_exact_direction(self):
        # for the identity tensor the Jacobi step solves the system in one move
        T = identity_tensor(3, 2)
        b = np.array([4.0, 9.0])
        x1 = step_splitting(T, b, np.zeros(2), 1.0, "jacobi")
        np.testing.assert_allclose(x1, [2.0, 3.0])


class TestStepWrappersRunSolvesCode:
    """The public step functions, driven by hand on the scaled system from
    x0 = 0, give solve()'s iterates bit for bit."""

    @pytest.mark.parametrize("problem", ["P1", "P3"])
    @pytest.mark.parametrize("method", ["smeqm", "jacobi", "gs", "sor", "anewton"])
    def test_first_five_iterates(self, problem, method):
        inst = gen_problem1(10, 3) if problem == "P1" else gen_problem3(10)
        scaled = scale_system(inst.tensor, inst.rhs)
        T, b = scaled.tensor, scaled.rhs
        M = majorization(T)
        x = np.zeros(10)
        state = EpsilonState.initial(r_correction(T, M, x))
        for k in range(1, 6):
            if method == "smeqm":
                x = step_smeqm(M.lu(), T, b, x, 1.0)
            elif method == "anewton":
                x, state = step_anewton(M.lu(), T, b, x, 1.0, state)
            else:
                x = step_splitting(T, b, x, 1.0, method, omega=1.3)
            cfg = SolveConfig(method=method, omega=1.3, max_iter=k)
            out = solve(inst.tensor, inst.rhs, None, cfg)
            assert out.status is Status.MAX_ITER and out.iterations == k
            assert out.x.tobytes() == x.tobytes(), (method, k)
            if method == "anewton":
                assert state.fallback_used == out.trace.eps_fallback[-1]


class TestSolveFixtures:
    def test_ex21_smeqm_unscaled(self):
        inst = fixture("ex21")
        out = solve(inst.tensor, inst.rhs, [0.8, 2.0], SolveConfig(scale=False))
        assert out.converged
        np.testing.assert_allclose(out.x, [1.0, 2.0], atol=1e-6)
        assert out.trace.max_violation() <= 1e-12
        assert not out.infeasible_start

    def test_ex21_anewton_faster_than_smeqm(self):
        inst = fixture("ex21")
        base = solve(inst.tensor, inst.rhs, [0.8, 2.0], SolveConfig(scale=False))
        newt = solve(inst.tensor, inst.rhs, [0.8, 2.0], SolveConfig(method="anewton", scale=False))
        assert newt.converged
        np.testing.assert_allclose(newt.x, [1.0, 2.0], atol=1e-6)
        assert newt.iterations < base.iterations

    def test_ex22_converges_to_larger_solution(self):
        inst = fixture("ex22")
        out = solve(inst.tensor, inst.rhs, [1.5, 2.0], SolveConfig())
        assert out.converged
        np.testing.assert_allclose(out.x, [2.0, 2.0], atol=1e-6)

    @pytest.mark.parametrize("method", ["smeqm", "jacobi", "gs", "sor", "anewton"])
    def test_all_methods_agree_on_problem1(self, method):
        inst = gen_problem1(8, 5)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(method=method))
        assert out.converged
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
        big = DenseTensor(inst.tensor.array * 1e9)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig())
        out_big = solve(big, inst.rhs * 1e9, None, SolveConfig())
        assert out_big.converged
        np.testing.assert_allclose(out_big.x, out.x, rtol=1e-9)
        assert out_big.scale_factor == pytest.approx(out.scale_factor * 1e9)

    def test_infeasible_start_flagged_not_fatal(self):
        T = identity_tensor(3, 2)
        out = solve(T, [4.0, 9.0], [3.0, 1.0], SolveConfig(scale=False))
        assert out.infeasible_start
        assert out.converged
        np.testing.assert_allclose(out.x, [2.0, 3.0], atol=1e-8)

    def test_negative_x0_rejected(self):
        inst = fixture("ex22")
        with pytest.raises(ValueError):
            solve(inst.tensor, inst.rhs, [-0.1, 2.0])

    def test_nonfinite_x0_rejected(self):
        inst = fixture("ex22")
        with pytest.raises(ValueError, match="finite"):
            solve(inst.tensor, inst.rhs, [np.nan, 2.0])

    def test_wrong_length_x0_rejected(self):
        inst = fixture("ex22")
        with pytest.raises(ValueError):
            solve(inst.tensor, inst.rhs, [1.0, 2.0, 3.0])

    def test_negative_power_status(self):
        # at x0 = 0 the first direction is -b; a negative b entry makes
        # x^[m-1] negative with an even-power root, a hard abort
        out = solve(identity_tensor(3, 2), [-1.0, 1.0], None, SolveConfig())
        assert out.status is Status.NEGATIVE_POWER_RHS

    def test_singular_majorization_status(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = arr[1, 1, 0] = 1.0  # all entries off the (i, j, j) grid
        out = solve(DenseTensor(arr), [1.0, 1.0], None, SolveConfig())
        assert out.status is Status.SINGULAR_MATRIX
        assert out.iterations == 0

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

    def test_non_finite_residual_at_start(self):
        # x0 is finite, but F(x0) overflows to inf entries
        inst = fixture("ex22")
        out = solve(inst.tensor, inst.rhs, [1e200, 1e200], SolveConfig())
        assert out.status is Status.NON_FINITE
        assert out.iterations == 0 and len(out.trace) == 0

    # The same divergent runs, with every warning turned into an error: the
    # status reports the divergence, and numpy prints nothing.
    @pytest.mark.parametrize(
        "method, status, iterations",
        [("jacobi", Status.NON_FINITE, 2551), ("gs", Status.NON_FINITE, 2901),
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
    def test_leaves_no_reference_cycle(self, method):
        # a cycle would keep each finished solve's scaled tensor alive until
        # a full garbage collection
        inst = gen_problem1(6, 2)
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
        assert out.converged
        assert out.trace.max_violation() <= 1e-12
        assert out.trace.max_feas_violation() <= 1e-12

    def test_eta_controls_stopping(self):
        inst = gen_problem1(6, 3)
        loose = solve(inst.tensor, inst.rhs, None, SolveConfig(eta=1e-4))
        tight = solve(inst.tensor, inst.rhs, None, SolveConfig(eta=1e-10))
        assert loose.iterations < tight.iterations
        assert loose.trace.res2[-1] <= 1e-4

    def test_converged_at_start_runs_zero_iterations(self):
        T = identity_tensor(3, 2)
        out = solve(T, [4.0, 9.0], [2.0, 3.0], SolveConfig(scale=False))
        assert out.converged
        assert out.iterations == 0


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        inst = fixture("ex22")
        out = solve(inst.tensor, inst.rhs, [1.5, 2.0], SolveConfig())
        path = tmp_path / "trace.csv"
        out.trace.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(out.trace)
        assert [int(r["k"]) for r in rows] == out.trace.k
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

    def test_unscaled_column_carries_scale_factor(self):
        inst = gen_problem1(6, 4)
        out = solve(inst.tensor, inst.rhs, None, SolveConfig())
        np.testing.assert_allclose(
            out.trace.res2_unscaled, np.array(out.trace.res2) * out.scale_factor
        )
