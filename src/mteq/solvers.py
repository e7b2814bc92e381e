"""Monotone iterative solvers for M-tensor equations.

Four families share one driver: the sequential M-matrix equation method
(solve M d = -F(x_k), advance x^[m-1] by alpha*d), its Jacobi /
Gauss-Seidel / SOR splittings (Li, Xie & Xu, Numer. Linear Algebra Appl.,
2017), and an approximate Newton method that augments the step with a
correction built from r(x) = (T x^{m-1} - (m-1) M x^[m-1]) / (m-1).  Each
method's math exists once, in `Stepper`, which solve() and the public step
functions share.

From a feasible start (x0 in S = {x >= 0 : F(x) <= 0}) with alpha in
(0, 1], the iterates increase monotonically and stay in S; the driver
audits both properties per iteration and records any violation in the
trace rather than aborting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
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

# ndarray.max/min wrap the ufunc reduction in Python code that costs about
# as much as the reduction itself on the loop's length-n vectors.
_max, _min = np.maximum.reduce, np.minimum.reduce


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
            rows = zip(self.k, self.res2, self.resinf, self.mono_violation, self.eps_fallback, self.ms,
                       self.feas_violation)
            for k, r2, ri, mono, fb, ms, feas in rows:
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


def _r_of(Tx, Mxpow, p: int) -> np.ndarray:
    """r(x) from Tx = T x^{m-1} and Mxpow = M x^[m-1], with p = m - 1."""
    return (Tx - p * Mxpow) / p


def _eps_of(aF, r, r_prev) -> np.ndarray:
    """eps_k = min(-alpha F(x_k), r(x_k) - r(x_{k-1})), with aF = -alpha F(x_k)."""
    return np.minimum(aF, r - r_prev)


class Stepper:
    """One method's iteration on a fixed system T x^{m-1} = b, prepared once:
    M factored (smeqm, anewton), its diagonal (jacobi) or its lower splitting
    part P (gs, sor; gs is sor at omega = 1), else SingularMatrix/ZeroDiagonal.
    step(xpow, F), with xpow = x^[m-1] and F = F(x) of the iterate x, returns
    (x_new, xpow_new, F_new, F_new.max(), fallback); fallback tells whether
    anewton dropped its correction.  anewton carries r(x_{k-1}), eps_k and
    -alpha F(x_k) - eps_k in r_prev, eps and rhs, which `start` sets.
    """

    def __init__(self, method, T: Tensor, b, M, alpha, omega=1.0, accept_tol=1e-12, lu=None):
        self.method, self.T, self.b = method, T, np.asarray(b, dtype=np.float64)
        self.alpha, self.accept_tol, self.p = alpha, accept_tol, T.order - 1
        # For alpha <= 1 a negative x^[m-1] is a hard error.  For alpha > 1
        # and odd m-1 the real signed root is taken, so a step that
        # overshoots makes the iteration oscillate instead of aborting.
        self.signed_root = alpha > 1.0 and self.p % 2 == 1
        if method in ("smeqm", "anewton"):
            self.lu = M.lu() if lu is None else lu
            self.Mvals = M.values if method == "anewton" else None
        elif method in ("jacobi", "gs", "sor"):
            if np.any(M.diagonal == 0.0):
                raise ZeroDiagonal("majorization matrix has a zero diagonal entry")
            if method == "jacobi":
                self.dvec = M.diagonal.copy()
            else:
                w = 1.0 if method == "gs" else omega
                self.P = np.tril(M.values, -1) * w + np.diag(M.diagonal)
                self.alpha_w = alpha * w
        else:
            raise ValueError(f"unknown method {method!r}")
        self._name = "_sor" if method == "gs" else "_" + method

    def step(self, xpow: np.ndarray, F: np.ndarray):
        return getattr(self, self._name)(xpow, F)

    def start(self, xpow: np.ndarray, F: np.ndarray, r_prev=None, eps=None) -> None:
        """Set anewton's state at x; r_prev is r(x) and eps 0 unless given."""
        if self.method == "anewton":
            self.r_prev = _r_of(F + self.b, self.Mvals @ xpow, self.p) if r_prev is None else r_prev
            self.eps = np.zeros_like(F) if eps is None else eps
            self.rhs = -self.alpha * F - self.eps

    def _advance(self, v):
        """x = v^[1/(m-1)], x^[m-1], F(x) and F(x).max().  x is a float64
        vector of length n, so the contraction kernel runs unchecked."""
        if self.signed_root and _min(v) < 0.0:
            x = np.sign(v) * np.abs(v) ** (1.0 / self.p)
        else:
            x = elementwise_root(v, self.p + 1)
        F = _contract(self.T, x, 1) - self.b
        return x, x**self.p, F, _max(F)

    def _smeqm(self, xpow, F):
        return *self._advance(xpow + self.alpha * lu_solve(self.lu, -F)), False

    def _jacobi(self, xpow, F):
        return *self._advance(xpow - self.alpha * F / self.dvec), False

    def _sor(self, xpow, F):
        return *self._advance(xpow - self.alpha_w * lower_tri_solve(self.P, F)), False

    def _anewton(self, xpow, F):
        """Solve M x^[m-1] = M x_k^[m-1] - alpha F(x_k) - eps_k; if the
        candidate leaves some F entry above accept_tol, drop eps_k and take
        the plain step instead (at most one re-solve)."""
        x_new, xpow_new, F_new, Fmax = self._advance(xpow + lu_solve(self.lu, self.rhs))
        fallback = bool(Fmax > self.accept_tol)
        if fallback:
            x_new, xpow_new, F_new, Fmax = self._advance(xpow + self.alpha * lu_solve(self.lu, -F))
        r_new = _r_of(F_new + self.b, self.Mvals @ xpow_new, self.p)
        aF = -self.alpha * F_new
        self.eps, self.r_prev = _eps_of(aF, r_new, self.r_prev), r_new
        self.rhs = aF - self.eps
        return x_new, xpow_new, F_new, Fmax, fallback


def _step_from(stepper: Stepper, x_k, r_prev=None, eps=None):
    x_k = np.asarray(x_k, dtype=np.float64)
    xpow, F = x_k**stepper.p, residual(stepper.T, stepper.b, x_k)
    stepper.start(xpow, F, r_prev, eps)
    return stepper.step(xpow, F)


def r_correction(T: Tensor, M: MajorizationMatrix, x) -> np.ndarray:
    """r(x) = (T x^{m-1} - (m-1) M x^[m-1]) / (m-1)."""
    x = np.asarray(x, dtype=np.float64)
    return _r_of(contract_full(T, x), M.values @ x ** (T.order - 1), T.order - 1)


def epsilon_update(state: EpsilonState, F_k, r_k, alpha: float) -> EpsilonState:
    """Entrywise eps_k = min(-alpha F(x_k), r(x_k) - r(x_{k-1}))."""
    r_k = np.asarray(r_k, dtype=np.float64)
    eps = _eps_of(-alpha * np.asarray(F_k, dtype=np.float64), r_k, state.r_prev)
    return EpsilonState(r_prev=r_k, eps=eps, fallback_used=state.fallback_used)


def step_smeqm(M_lu: LuFactorization, T: Tensor, b, x_k, alpha: float) -> np.ndarray:
    """One step of x^[m-1] <- x^[m-1] + alpha*d with M d = -F(x_k)."""
    return _step_from(Stepper("smeqm", T, b, None, alpha, lu=M_lu), x_k)[0]


def step_splitting(T: Tensor, b, x_k, alpha: float, variant: str, omega: float = 1.0) -> np.ndarray:
    """One Jacobi / Gauss-Seidel / SOR step on the splitting M = D - L - U."""
    if variant not in ("jacobi", "gs", "sor"):
        raise ValueError(f"unknown splitting variant {variant!r}")
    return _step_from(Stepper(variant, T, b, majorization(T), alpha, omega), x_k)[0]


def step_anewton(M_lu: LuFactorization, T: Tensor, b, x_k, alpha: float, state: EpsilonState,
                 accept_tol: float = 1e-12) -> tuple[np.ndarray, EpsilonState]:
    """One approximate-Newton step with the feasibility fallback; returns
    the new iterate and the state updated for the next step."""
    stepper = Stepper("anewton", T, b, majorization(T), alpha, accept_tol=accept_tol, lu=M_lu)
    x_new, _, _, _, fallback = _step_from(stepper, x_k, state.r_prev, state.eps)
    return x_new, EpsilonState(stepper.r_prev, stepper.eps, fallback)


def solve(T: Tensor, b, x0=None, cfg: SolveConfig | None = None) -> SolveOutcome:
    """Run the configured iteration until ||F_hat(x_k)||_2 <= eta or max_iter.

    With cfg.scale the system is first divided by its largest absolute
    entry and the stopping test applies to the scaled residual.  An
    infeasible start is reported in the outcome but iteration proceeds
    with the monotonicity audit disabled.  A step that yields an inf or
    NaN ends the run with Status.NON_FINITE; x and the iteration count
    are then those of the last finite iterate.  A residual whose entries
    are finite but whose 2-norm overflows keeps iterating.  Overflow on
    the way there is reported by the status, not by numpy warnings.
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
    trace = IterationTrace()

    def outcome(status, iters, infeasible=False):
        return SolveOutcome(status, x, iters, trace, infeasible, cfg.alpha > 1.0, w)

    # One factorization (or splitting) per run, reused every iteration.
    try:
        stepper = Stepper(cfg.method, Th, bh, majorization(Th), cfg.alpha, cfg.omega, cfg.audit_tol)
    except (SingularMatrix, ZeroDiagonal):
        return outcome(Status.SINGULAR_MATRIX, 0)

    with np.errstate(over="ignore", invalid="ignore"):
        F = residual(Th, bh, x)
        infeasible = bool(np.any(F > cfg.audit_tol) or np.any(x < -cfg.audit_tol))
        audit = cfg.audit_monotone and not infeasible
        xpow = x ** (m - 1)
        stepper.start(xpow, F)

        # res2 is ||F(x_k)||_2: the stopping test of iteration k and, after
        # the step, the trace row of iteration k + 1.
        res2 = math.sqrt(F @ F)
        if _non_finite(res2, x, F):
            return outcome(Status.NON_FINITE, 0, infeasible)
        for k in range(cfg.max_iter + 1):
            if res2 <= cfg.eta or k == cfg.max_iter:
                status, iters = Status.CONVERGED if res2 <= cfg.eta else Status.MAX_ITER, k
                break
            t0 = time.perf_counter()
            try:
                x_new, xpow_new, F_new, Fmax, fallback = stepper.step(xpow, F)
            except NegativePowerRHS:
                status, iters = Status.NEGATIVE_POWER_RHS, k
                break
            res2 = math.sqrt(F_new @ F_new)
            if _non_finite(res2, x_new, F_new):
                status, iters = Status.NON_FINITE, k
                break
            mono = float(max(0.0, _max(x - x_new))) if audit else 0.0
            feas = float(max(0.0, Fmax)) if audit else 0.0
            ms = (time.perf_counter() - t0) * 1e3
            # The largest |entry| of a finite F; abs() turns a -0.0 maximum into 0.0.
            resinf = float(abs(max(Fmax, -_min(F_new))))
            trace.append(k + 1, res2, resinf, res2 * w, mono, feas, fallback, ms)
            x, xpow, F = x_new, xpow_new, F_new

    return outcome(status, iters, infeasible)


def _non_finite(res2: float, x: np.ndarray, F: np.ndarray) -> bool:
    """Whether x or F holds an inf or NaN, looked at only when the norm res2
    is not finite; a finite vector whose 2-norm overflows does not count."""
    return not math.isfinite(res2) and not (np.isfinite(x).all() and np.isfinite(F).all())
