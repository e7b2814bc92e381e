"""Acceptance gate: the release-blocking behaviours, one test per criterion.

Each test prints its own PASS/FAIL line (visible with -s); the conftest
terminal summary repeats the scoreboard after every run.  The shared
100-instance benchmark suite is computed once per session and reused by
criteria 4-6.
"""

import functools
import time

import numpy as np
import pytest

from mteq import (
    DenseTensor,
    Existence,
    NotZTensor,
    SolveConfig,
    Status,
    Verdict,
    contract_full,
    existence_sufficient,
    fixture,
    gen_problem1,
    gen_problem2,
    gen_problem3,
    gen_problem4,
    is_feasible_S,
    is_z_tensor,
    mtensor_certificate,
    residual,
    solve,
    solve_structured,
)
from mteq.cli import rep_seed
from mteq.solvers import Stepper
from reference import dense_contract, semi_symmetrize

# test name -> (criterion number, scoreboard title)
CRITERIA = {
    "test_criterion_01_ex21_both_methods": (1, "Ex21: S-MEQM and A-Newton reach (1, 2) monotonically"),
    "test_criterion_02_ex22_solution_and_feasibility": (2, "Ex22: solve to (2, 2); feasible-set membership"),
    "test_criterion_03_hand_step_oracle": (3, "A-Newton hand-step oracle on Ex21"),
    "test_criterion_04_monotone_suite": (4, "100-instance monotonicity/feasibility audit, 5 methods"),
    "test_criterion_05_alpha_sweep_orderings": (5, "S-MEQM iteration-count orderings over alpha"),
    "test_criterion_06_anewton_vs_smeqm": (6, "A-Newton beats S-MEQM on paired instances"),
    "test_criterion_07_problem3_boundary_values": (7, "Problem 3 boundary values at n = 10 and 50"),
    "test_criterion_08_structured_solve_oracle": (8, "iterative methods match the structured closed form"),
    "test_criterion_09_jacobian_finite_differences": (9, "semi-symmetric Jacobian vs finite differences"),
    "test_criterion_10_certification_suite": (10, "certification and existence across all problems"),
}

REPS = 100
BENCH_N = 10
BENCH_KEYS = [(method, alpha) for method in ("smeqm", "jacobi", "gs", "sor", "anewton") for alpha in (0.5, 1.0)] + [
    ("smeqm", 1.9),
    ("smeqm", 2.0),
]


def _report(num, ok):
    title = {v[0]: v[1] for v in CRITERIA.values()}[num]
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {title}")


def check(num):
    """Decorator: run the criterion body, then print its scoreboard line."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(num, False)
                raise
            _report(num, True)

        return inner

    return wrap


@pytest.fixture(scope="session")
def bench_suite():
    """Outcomes for the shared seeded instances across methods and alphas."""
    instances = [gen_problem1(BENCH_N, rep_seed(0, "1", BENCH_N, rep)) for rep in range(REPS)]
    runs = {}
    for method, alpha in BENCH_KEYS:
        cfg = SolveConfig(method=method, alpha=alpha)
        runs[(method, alpha)] = [solve(inst.tensor, inst.rhs, None, cfg) for inst in instances]
    return runs


@check(1)
def test_criterion_01_ex21_both_methods():
    inst = fixture("ex21")
    t0 = time.perf_counter()
    for method in ("smeqm", "anewton"):
        cfg = SolveConfig(method=method, alpha=1.0, scale=False)
        out = solve(inst.tensor, inst.rhs, [0.8, 2.0], cfg)
        assert out.status is Status.CONVERGED and out.iterations <= 3000
        assert np.abs(out.x - np.array([1.0, 2.0])).max() <= 1e-6
        assert out.trace.max_violation() <= 1e-12
    assert time.perf_counter() - t0 < 1.0


@check(2)
def test_criterion_02_ex22_solution_and_feasibility():
    inst = fixture("ex22")
    t0 = time.perf_counter()
    out = solve(inst.tensor, inst.rhs, [1.5, 2.0], SolveConfig(alpha=1.0))
    assert out.status is Status.CONVERGED
    assert np.abs(out.x - np.array([2.0, 2.0])).max() <= 1e-6
    assert not is_feasible_S(inst.tensor, inst.rhs, [0.0, 2.0]).in_S
    assert is_feasible_S(inst.tensor, inst.rhs, [1.5, 2.0]).in_S
    assert time.perf_counter() - t0 < 1.0


@check(3)
def test_criterion_03_hand_step_oracle():
    # Independent scalar arithmetic, frozen here:
    #   x0 = (0.8, 2), x0^[3] = (0.512, 8), F(x0) = (-0.264, 0)
    #   M = [[3, -0.5], [0, 3]]; d = (0.088, 0); x1 = (0.6^(1/3), 2)
    #   eps_1 = min(-F(x1), r(x1) - r(x0)) = (-0.262865, 0)
    #   x1^[3] + M^-1 (-F(x1) - eps_1) = (0.774487, 8) -> x2 = (0.918343, 2)
    inst = fixture("ex21")
    stepper = Stepper("anewton", inst.tensor, inst.rhs, 1.0)
    _, xpow, F, _ = stepper.start(np.array([0.8, 2.0]))
    x1, xpow, F, _, fallback = stepper.step(xpow, F)
    assert np.abs(x1 - np.array([0.843433, 2.0])).max() <= 5e-6
    assert np.abs(stepper.eps - np.array([-0.262865, 0.0])).max() <= 5e-6
    assert not fallback
    x2, _, _, _, fallback = stepper.step(xpow, F)
    assert np.abs(x2 - np.array([0.918343, 2.0])).max() <= 5e-6
    assert not fallback


@check(4)
def test_criterion_04_monotone_suite(bench_suite):
    for method in ("smeqm", "jacobi", "gs", "sor", "anewton"):
        for alpha in (0.5, 1.0):
            for out in bench_suite[(method, alpha)]:
                assert out.status is Status.CONVERGED and out.iterations <= 3000, (method, alpha)
                assert not out.infeasible_start
                assert out.trace.max_violation() <= 1e-12, (method, alpha)
                assert out.trace.max_feas_violation() <= 1e-12, (method, alpha)


@check(5)
def test_criterion_05_alpha_sweep_orderings(bench_suite):
    mean = lambda key: float(np.mean([o.iterations for o in bench_suite[key]]))
    m05, m10, m19 = mean(("smeqm", 0.5)), mean(("smeqm", 1.0)), mean(("smeqm", 1.9))
    assert 200.0 <= m10 <= 900.0, m10
    assert m05 > m10, (m05, m10)
    assert m19 < m10, (m19, m10)
    for out in bench_suite[("smeqm", 2.0)]:
        assert out.status.value == "MaxIterReached" and out.iterations == 3000


@check(6)
def test_criterion_06_anewton_vs_smeqm(bench_suite):
    newton = [o.iterations for o in bench_suite[("anewton", 1.0)]]
    base = [o.iterations for o in bench_suite[("smeqm", 1.0)]]
    assert 20.0 <= float(np.mean(newton)) <= 150.0, np.mean(newton)
    wins = sum(a < b for a, b in zip(newton, base))
    assert wins >= 0.9 * REPS, wins


@check(7)
def test_criterion_07_problem3_boundary_values():
    # S-MEQM handles n = 10; at n = 50 the discretization is stiff enough
    # that only A-Newton converges within the iteration budget
    for n, method in ((10, "smeqm"), (50, "anewton")):
        inst = gen_problem3(n)
        t0 = time.perf_counter()
        out = solve(inst.tensor, inst.rhs, None, SolveConfig(method=method))
        elapsed = time.perf_counter() - t0
        assert out.status is Status.CONVERGED, (n, method)
        assert out.trace.res2[-1] <= 1e-8
        assert np.all(out.x > 0.0)
        assert abs(out.x[0] - 6.37e6) <= 1e-6 * 6.37e6
        assert abs(out.x[-1] - 6.37e6) <= 1e-6 * 6.37e6
        assert elapsed < 30.0, (n, elapsed)


@check(8)
def test_criterion_08_structured_solve_oracle():
    rng = np.random.default_rng(20240601)
    for trial in range(20):
        n, m = 5, 3
        Mmat = -rng.random((n, n))
        np.fill_diagonal(Mmat, 0.0)
        np.fill_diagonal(Mmat, 1.01 * (-Mmat).sum(axis=1) + 0.1)
        arr = np.zeros((n,) * m)
        for j in range(n):
            arr[(slice(None),) + (j,) * (m - 1)] = Mmat[:, j]
        T = DenseTensor(arr)
        b = rng.random(n) + 0.05  # positive, so M^-1 b >= 0 and x0 = 0 is feasible
        x_ref = solve_structured(T, b)
        for method in ("smeqm", "jacobi", "gs", "sor", "anewton"):
            out = solve(T, b, None, SolveConfig(method=method))
            assert out.status is Status.CONVERGED, (trial, method)
            assert np.abs(out.x - x_ref).max() <= 1e-6, (trial, method)


@check(9)
def test_criterion_09_jacobian_finite_differences():
    rng = np.random.default_rng(77)
    m, n = 4, 5
    for _ in range(20):
        B = semi_symmetrize(rng.random((n,) * m))
        arr = -B
        i = np.arange(n)
        arr[(i,) * m] += 1.01 * B.reshape(n, -1).sum(axis=1)
        T = DenseTensor(arr)
        assert mtensor_certificate(T).verdict is Verdict.STRONG_BY_ROW_SUM
        x = rng.uniform(0.5, 2.0, n)
        jac = (m - 1) * dense_contract(arr, x, 2)
        fd = np.empty((n, n))
        for j in range(n):
            h = 1e-6 * (1.0 + x[j])
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (contract_full(T, xp) - contract_full(T, xm)) / (2 * h)
        denom = max(1.0, np.abs(jac).max())
        assert np.abs(jac - fd).max() / denom <= 1e-6


@check(10)
def test_criterion_10_certification_suite():
    # random and deterministic generators certify by the strict row-sum bound
    for inst in (
        gen_problem1(10, 0),
        gen_problem1(10, 1),
        gen_problem1(10, 2),
        gen_problem2(10),
        gen_problem4(10, 0),
    ):
        cert = mtensor_certificate(inst.tensor)
        assert cert.verdict is Verdict.STRONG_BY_ROW_SUM, inst.problem
        assert cert.s > cert.row_sum_bound
    # Problem 3 is a Z-tensor whose interior rows are only weakly dominant:
    # s equals the row-sum bound exactly, so the (strict, sufficient)
    # row-sum certificate must answer Unknown rather than certify
    p3 = gen_problem3(10)
    assert is_z_tensor(p3.tensor)
    cert = mtensor_certificate(p3.tensor)
    assert cert.verdict is Verdict.UNKNOWN
    assert cert.s == cert.row_sum_bound == 2.0
    # the quadratic fixture has a positive off-diagonal entry
    assert not is_z_tensor(fixture("ex11").tensor)
    with pytest.raises(NotZTensor):
        mtensor_certificate(fixture("ex11").tensor)
    # the existence test is sufficient, not necessary: Ex21 has two
    # verifiable nonnegative solutions yet reports Inconclusive
    e21 = fixture("ex21")
    assert existence_sufficient(e21.tensor, e21.rhs) is Existence.INCONCLUSIVE
    for sol in e21.known_solutions:
        assert np.abs(residual(e21.tensor, e21.rhs, sol)).max() <= 1e-9
