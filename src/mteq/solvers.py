"""Monotone iterative solvers for M-tensor equations.

Four families share one driver: the sequential M-matrix equation method
(solve M d = -F(x_k), advance x^[m-1] by alpha*d), its Jacobi /
Gauss-Seidel / SOR splitting variants, and an approximate Newton method
that augments the step with a correction built from
r(x) = (T x^{m-1} - (m-1) M x^[m-1]) / (m-1).

From a feasible start (x0 in S = {x >= 0 : F(x) <= 0}) with alpha in
(0, 1], the iterates increase monotonically and stay in S; the driver
audits both properties per iteration and records any violation in the
trace rather than aborting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dense_linalg import LuFactorization, lower_tri_solve, lu_solve
from .errors import NegativePowerRHS, SingularMatrix, ZeroDiagonal
from .tensor_core import (
    MajorizationMatrix,
    Tensor,
    _contract,
    contract_full,
    elementwise_root,
    majorization,
    residual,
    scale_system,
)

METHODS = ("smeqm", "jacobi", "gs", "sor", "anewton")


class Status(str, Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIterReached"
    NEGATIVE_POWER_RHS = "NegativePowerRHS"
    SINGULAR_MATRIX = "SingularMatrix"
    NON_FINITE = "NonFinite"


@dataclass(frozen=True)
class SolveConfig:
    """Method selection and iteration parameters.

    alpha in (0, 1] is covered by the monotone convergence theory; values
    in (1, 2) are admitted as experimental and flagged in the outcome.
    omega is the SOR relaxation factor (ignored elsewhere); eta is the
    stopping tolerance on the 2-norm of the scaled residual.
    """

    method: str = "smeqm"
    alpha: float = 1.0
    omega: float = 1.0
    eta: float = 1e-8
    max_iter: int = 3000
    scale: bool = True
    audit_monotone: bool = True
    audit_tol: float = 1e-12

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if self.method == "sor" and not 0.0 < self.omega < 2.0:
            raise ValueError("omega must lie in (0, 2)")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


class IterationTrace:
    """Per-iteration records behind convergence plots and benchmark tables."""

    CSV_HEADER = "k,res2,resinf,mono_violation,eps_fallback,ms,feas_violation"

    def __init__(self):
        self.k: list[int] = []
        self.res2: list[float] = []
        self.resinf: list[float] = []
        self.res2_unscaled: list[float] = []
        self.mono_violation: list[float] = []
        self.feas_violation: list[float] = []
        self.eps_fallback: list[bool] = []
        self.ms: list[float] = []

    def __len__(self) -> int:
        return len(self.k)

    def append(self, k, res2, resinf, res2_unscaled, mono, feas, fallback, ms):
        self.k.append(k)
        self.res2.append(res2)
        self.resinf.append(resinf)
        self.res2_unscaled.append(res2_unscaled)
        self.mono_violation.append(mono)
        self.feas_violation.append(feas)
        self.eps_fallback.append(fallback)
        self.ms.append(ms)

    def max_violation(self) -> float:
        return max(self.mono_violation, default=0.0)

    def max_feas_violation(self) -> float:
        return max(self.feas_violation, default=0.0)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for row in zip(
                self.k,
                self.res2,
                self.resinf,
                self.mono_violation,
                self.eps_fallback,
                self.ms,
                self.feas_violation,
            ):
                k, r2, ri, mono, fb, ms, feas = row
                fh.write(f"{k},{r2:.16e},{ri:.16e},{mono:.16e},{int(fb)},{ms:.3f},{feas:.16e}\n")


@dataclass(frozen=True)
class SolveOutcome:
    status: Status
    x: np.ndarray
    iterations: int
    trace: IterationTrace
    infeasible_start: bool = False
    alpha_warning: bool = False
    scale_factor: float = 1.0

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED


@dataclass(frozen=True)
class EpsilonState:
    """Carries r(x_{k-1}) and the accepted correction between Newton steps."""

    r_prev: np.ndarray
    eps: np.ndarray
    fallback_used: bool = False

    @classmethod
    def initial(cls, r0: np.ndarray) -> "EpsilonState":
        return cls(r_prev=np.asarray(r0, dtype=np.float64), eps=np.zeros_like(r0))


def r_correction(T: Tensor, M: MajorizationMatrix, x) -> np.ndarray:
    """r(x) = (T x^{m-1} - (m-1) M x^[m-1]) / (m-1)."""
    x = np.asarray(x, dtype=np.float64)
    m = T.order
    return (contract_full(T, x) - (m - 1) * (M.values @ x ** (m - 1))) / (m - 1)


def epsilon_update(state: EpsilonState, F_k, r_k, alpha: float) -> EpsilonState:
    """Entrywise eps_k = min(-alpha F(x_k), r(x_k) - r(x_{k-1}))."""
    F_k = np.asarray(F_k, dtype=np.float64)
    r_k = np.asarray(r_k, dtype=np.float64)
    eps = np.minimum(-alpha * F_k, r_k - state.r_prev)
    return EpsilonState(r_prev=r_k, eps=eps, fallback_used=state.fallback_used)


def step_smeqm(M_lu: LuFactorization, T: Tensor, b, x_k, alpha: float) -> np.ndarray:
    """One step of x^[m-1] <- x^[m-1] + alpha*d with M d = -F(x_k)."""
    x_k = np.asarray(x_k, dtype=np.float64)
    d = lu_solve(M_lu, -residual(T, b, x_k))
    return elementwise_root(x_k ** (T.order - 1) + alpha * d, T.order)


def step_splitting(T: Tensor, b, x_k, alpha: float, variant: str, omega: float = 1.0) -> np.ndarray:
    """One Jacobi / Gauss-Seidel / SOR step on the splitting M = D - L - U."""
    x_k = np.asarray(x_k, dtype=np.float64)
    M = majorization(T).values
    F = residual(T, b, x_k)
    if variant == "jacobi":
        d = np.diag(M)
        if np.any(d == 0.0):
            raise ZeroDiagonal("Jacobi step with a zero diagonal entry of M")
        update = alpha * F / d
    elif variant in ("gs", "sor"):
        w = 1.0 if variant == "gs" else omega
        P = np.tril(M, -1) * w + np.diag(np.diag(M))
        update = alpha * w * lower_tri_solve(P, F)
    else:
        raise ValueError(f"unknown splitting variant {variant!r}")
    return elementwise_root(x_k ** (T.order - 1) - update, T.order)


def step_anewton(
    M_lu: LuFactorization,
    T: Tensor,
    b,
    x_k,
    alpha: float,
    state: EpsilonState,
    accept_tol: float = 1e-12,
) -> tuple[np.ndarray, EpsilonState]:
    """One approximate-Newton step with the feasibility fallback.

    Solves M x^[m-1] = M x_k^[m-1] - alpha F(x_k) - eps_k.  If the
    candidate leaves F <= accept_tol entrywise it is accepted; otherwise
    eps_k is dropped and the plain step is taken (at most one re-solve).
    Returns the new iterate and the state updated for the next step.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    m = T.order
    xpow = x_k ** (m - 1)
    F = residual(T, b, x_k)
    cand = elementwise_root(xpow + lu_solve(M_lu, -alpha * F - state.eps), m)
    fallback = bool(np.any(residual(T, b, cand) > accept_tol))
    if fallback:
        cand = elementwise_root(xpow + lu_solve(M_lu, -alpha * F), m)
    M = majorization(T)
    new_state = epsilon_update(
        replace(state, fallback_used=fallback),
        residual(T, b, cand),
        r_correction(T, M, cand),
        alpha,
    )
    return cand, new_state


def solve(T: Tensor, b, x0=None, cfg: SolveConfig | None = None) -> SolveOutcome:
    """Run the configured iteration until ||F_hat(x_k)||_2 <= eta or max_iter.

    With cfg.scale the system is first divided by its largest absolute
    entry and the stopping test applies to the scaled residual.  An
    infeasible start is reported in the outcome but iteration proceeds
    with the monotonicity audit disabled.  A step that yields an inf or
    NaN ends the run with Status.NON_FINITE; x and the iteration count
    are then those of the last finite iterate.  A residual whose entries
    are finite but whose 2-norm overflows keeps iterating.
    """
    cfg = cfg or SolveConfig()
    b = np.asarray(b, dtype=np.float64)
    n, m = T.dim, T.order
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 must have length {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if np.any(x < 0):
        raise ValueError("x0 must be nonnegative")

    if cfg.scale:
        scaled = scale_system(T, b)
        Th, bh, w = scaled.tensor, scaled.rhs, scaled.scale
    else:
        Th, bh, w = T, b, 1.0
    M = majorization(Th)
    alpha = cfg.alpha
    alpha_warning = alpha > 1.0
    trace = IterationTrace()

    def outcome(status, iters, infeasible=False):
        return SolveOutcome(status, x, iters, trace, infeasible, alpha_warning, w)

    # Per-method precomputation: one factorization, reused every iteration.
    try:
        if cfg.method in ("smeqm", "anewton"):
            lu = M.lu()
        elif cfg.method == "jacobi":
            dvec = M.diagonal.copy()
            if np.any(dvec == 0.0):
                raise ZeroDiagonal("majorization matrix has a zero diagonal entry")
        else:  # gs / sor; gs is exactly sor with omega = 1
            w_sor = 1.0 if cfg.method == "gs" else cfg.omega
            P = np.tril(M.values, -1) * w_sor + np.diag(M.diagonal)
            if np.any(M.diagonal == 0.0):
                raise ZeroDiagonal("majorization matrix has a zero diagonal entry")
    except (SingularMatrix, ZeroDiagonal):
        return outcome(Status.SINGULAR_MATRIX, 0)

    # For alpha <= 1 a negative x^[m-1] is a hard error.  In the
    # experimental alpha > 1 regime with odd power m-1, the real signed
    # root exists and the iteration continues (oscillating instead of
    # aborting when the step overshoots).
    signed_root_ok = alpha > 1.0 and (m - 1) % 2 == 1

    def root_step(v):
        if signed_root_ok and v.min() < 0.0:
            return np.sign(v) * np.abs(v) ** (1.0 / (m - 1))
        return elementwise_root(v, m)

    F = residual(Th, bh, x)
    infeasible = bool(np.any(F > cfg.audit_tol) or np.any(x < -cfg.audit_tol))
    audit = cfg.audit_monotone and not infeasible

    if cfg.method == "anewton":
        Mvals = M.values
        r_prev = (F + bh - (m - 1) * (Mvals @ x ** (m - 1))) / (m - 1)
        eps = np.zeros(n)

    # res2 is ||F(x_k)||_2: the stopping test of iteration k and, after
    # the step, the trace row of iteration k + 1.
    res2 = float(np.linalg.norm(F))
    if _non_finite(res2, x, F):
        return outcome(Status.NON_FINITE, 0, infeasible)
    status = Status.MAX_ITER
    iters = cfg.max_iter
    # Iterates are float64 vectors of length n (x0 was checked above), so
    # the loop calls the contraction kernel without contract_full's check.
    for k in range(cfg.max_iter):
        if res2 <= cfg.eta:
            status, iters = Status.CONVERGED, k
            break
        t0 = time.perf_counter()
        xpow = x ** (m - 1)
        fallback = False
        try:
            if cfg.method == "smeqm":
                x_new = root_step(xpow + alpha * lu_solve(lu, -F))
                F_new = _contract(Th, x_new, 1) - bh
            elif cfg.method == "jacobi":
                x_new = root_step(xpow - alpha * F / dvec)
                F_new = _contract(Th, x_new, 1) - bh
            elif cfg.method in ("gs", "sor"):
                step = lower_tri_solve(P, F)
                x_new = root_step(xpow - alpha * w_sor * step)
                F_new = _contract(Th, x_new, 1) - bh
            else:  # anewton
                x_new = root_step(xpow + lu_solve(lu, -alpha * F - eps))
                F_new = _contract(Th, x_new, 1) - bh
                if F_new.max() > cfg.audit_tol:
                    fallback = True
                    x_new = root_step(xpow + alpha * lu_solve(lu, -F))
                    F_new = _contract(Th, x_new, 1) - bh
                r_new = (F_new + bh - (m - 1) * (Mvals @ x_new ** (m - 1))) / (m - 1)
                eps = np.minimum(-alpha * F_new, r_new - r_prev)
                r_prev = r_new
        except NegativePowerRHS:
            status, iters = Status.NEGATIVE_POWER_RHS, k
            break

        res2 = float(np.linalg.norm(F_new))
        if _non_finite(res2, x_new, F_new):
            status, iters = Status.NON_FINITE, k
            break
        mono = float(max(0.0, (x - x_new).max())) if audit else 0.0
        feas = float(max(0.0, F_new.max())) if audit else 0.0
        ms = (time.perf_counter() - t0) * 1e3
        trace.append(k + 1, res2, float(np.abs(F_new).max()), res2 * w, mono, feas, fallback, ms)
        x, F = x_new, F_new
    else:
        if res2 <= cfg.eta:
            status = Status.CONVERGED

    return outcome(status, iters, infeasible)


def _non_finite(res2: float, x: np.ndarray, F: np.ndarray) -> bool:
    """Whether x or F holds an inf or NaN.  The entries are looked at only
    when the norm res2 is not finite, so finite iterations pay nothing; a
    finite vector whose 2-norm overflows does not count."""
    return not math.isfinite(res2) and not (np.isfinite(x).all() and np.isfinite(F).all())
