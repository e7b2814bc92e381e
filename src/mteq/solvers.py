"""Monotone iterative solvers for M-tensor equations.

Four families share one driver: the sequential M-matrix equation method
(solve M d = -F(x_k), advance x^[m-1] by alpha*d), its Jacobi /
Gauss-Seidel / SOR splittings (Li, Xie & Xu, Numer. Linear Algebra Appl.,
2017), and an approximate Newton method that augments the step with a
correction built from r(x) = (T x^{m-1} - (m-1) M x^[m-1]) / (m-1).  Each
method's math exists once, in `Stepper`, which solve() drives: it is the
only code that evaluates anything on T during a run (the start, every
step and the backward error).  The matrix a method solves with does not
change during a run, so `_prepared_solve` inverts it once and each
iteration costs one matrix-vector product, or a division where M is
diagonal.  A dense T whose packed matrix is past one core's L2 and within
two is contracted on two threads where 2 CPUs are usable: the Stepper
starts one worker thread for the run (`tensor_core._row_split`), and
solve() joins it before it returns, whatever the outcome.  Every result
has the same bits with the worker as without.

From a feasible start (x0 in S = {x >= 0 : F(x) <= 0}) with alpha in
(0, 1], the iterates increase monotonically and stay in S; the driver
audits both properties per iteration and records any violation in the
trace rather than aborting.
"""

from __future__ import annotations

import math
import time
from contextlib import closing
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NegativePowerRHS, SingularMatrix
from .tensor_core import (
    Tensor,
    _as_vector,
    _contract,
    _is_number,
    _majorization_unless_diagonal,
    _row_split,
    diagonal,
    elementwise_root,
    magnitudes,
    system_scale,
)

METHODS = ("smeqm", "jacobi", "gs", "sor", "anewton")

# A point with an F entry above AUDIT_TOL has left S: a start there is
# infeasible, and its run is not audited; an anewton candidate there is
# dropped for the plain update.  It applies to F / w (see solve).
AUDIT_TOL = 1e-12

# Converged needs, besides ||F / w||_2 <= eta, a componentwise backward error
# omega(x) (see Stepper.backward_error) at or below OMEGA_TOL.  The 2-norm
# alone is met by an x that resolves only the rows with the largest entries
# of b.
OMEGA_TOL = 1e-5

# M is singular when its 1-norm reciprocal condition number
# 1 / (||M||_1 ||M^-1||_1) is below RCOND_TOL, or when numpy cannot invert it.
RCOND_TOL = 1e-14

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
    in (1, 2] are admitted as experimental and flagged in the outcome.
    omega is the SOR relaxation factor; every other method steps at
    omega = 1, so gs is sor at omega = 1.  eta is the stopping tolerance on
    the 2-norm of F / w, with w the system's largest absolute entry (1 when
    scale is False).
    """

    method: str = "smeqm"
    alpha: float = 1.0
    omega: float = 1.0
    eta: float = 1e-8
    max_iter: int = 3000
    scale: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for name in ("alpha", "omega", "eta", "max_iter"):
            value, count = getattr(self, name), name == "max_iter"
            if not _is_number(type(value), count):
                raise ValueError(f"{name} must be {'an integer' if count else 'a number'}, got {value!r}")
            # stored as a plain float or int: a Fraction or np.float32 would change the loop's dtype
            object.__setattr__(self, name, int(value) if count else float(value))
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if self.method == "sor" and not 0.0 < self.omega < 2.0:
            raise ValueError("omega must lie in (0, 2)")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


class IterationTrace:
    """Per-iteration records behind convergence plots and benchmark tables.

    res2, resinf and feas_violation (the largest entry of F, if positive)
    are in units of solve()'s w; mono_violation is the largest drop of an
    entry of x in the step, in units of the largest |entry| of the new x.
    """

    CSV_HEADER = "k,res2,resinf,mono_violation,eps_fallback,ms,feas_violation"

    def __init__(self):
        self.res2: list[float] = []
        self.resinf: list[float] = []
        self.mono_violation: list[float] = []
        self.feas_violation: list[float] = []
        self.eps_fallback: list[bool] = []
        self.ms: list[float] = []

    def __len__(self) -> int:
        return len(self.res2)

    def append(self, res2, resinf, mono, feas, fallback, ms):
        self.res2.append(res2)
        self.resinf.append(resinf)
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
            rows = zip(self.res2, self.resinf, self.mono_violation, self.eps_fallback, self.ms,
                       self.feas_violation)
            for k, (r2, ri, mono, fb, ms, feas) in enumerate(rows, 1):
                fh.write(f"{k},{r2:.16e},{ri:.16e},{mono:.16e},{int(fb)},{ms:.3f},{feas:.16e}\n")


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    status: Status
    x: np.ndarray
    iterations: int
    trace: IterationTrace
    infeasible_start: bool = False
    alpha_warning: bool = False
    scale_factor: float = 1.0
    # ||F(x)||_2 / scale_factor of the returned x: the last trace row, the
    # start residual after 0 iterations, NaN if none was computed.
    res2: float = math.nan
    # The componentwise backward error of the returned x (see
    # Stepper.backward_error; not SolveConfig.omega, the SOR factor), NaN
    # if no residual was computed (SingularMatrix).
    omega: float = math.nan


class Stepper:
    """One method's iteration on a fixed system T x^{m-1} = b, with M the
    majorization matrix of T.

    Every method takes the plain step x^[m-1] <- x^[m-1] - c A^{-1} F(x),
    with c = alpha omega and A fixed for the run, inverted once by
    `_prepared_solve`: A = M (smeqm, anewton), diag(M) (jacobi, and every
    method where M is diagonal), or P, the lower splitting part of M (gs,
    sor).  omega is 1 for every method but sor, so gs is sor at omega = 1,
    and where M is diagonal smeqm, jacobi and gs take the same step.
    anewton first tries x^[m-1] - M^{-1}(alpha F(x_k) + eps_k) and takes the
    plain step if that candidate has an F entry above AUDIT_TOL * scale,
    with scale solve()'s w.  anewton's state is eps_k = min(-alpha F(x_k),
    r(x_k) - r(x_{k-1})), in eps, the difference taken from the step as
    (F_k - F_{k-1}) / (m-1) - M (x_k^[m-1] - x_{k-1}^[m-1]).
    start(x0) evaluates the start, returns (x0, x0^[m-1], F(x0),
    F(x0).max()) and sets eps = 0.  step(xpow, F), with xpow = x^[m-1]
    and F = F(x), returns (x_new, xpow_new, F_new, F_new.max(), fallback)
    and stores the new eps.
    backward_error(x, F) is the componentwise backward error of x.
    Every contraction goes through `split`, the run's `_row_split`;
    close() joins its worker thread, if it started one.
    """

    def __init__(self, method, T: Tensor, b, alpha, omega=1.0, scale=1.0):
        self.T, self.b = T, np.asarray(b, dtype=np.float64)
        self.accept_tol = AUDIT_TOL * scale
        self.alpha, self.p, self.newton = alpha, T.order - 1, method == "anewton"
        # For alpha <= 1 a negative x^[m-1] is a hard error.  For alpha > 1
        # and odd m-1 the real signed root is taken, so a step that
        # overshoots makes the iteration oscillate instead of aborting.
        self.signed_root = alpha > 1.0 and self.p % 2 == 1
        omega = omega if method == "sor" else 1.0  # gs is sor at omega = 1
        self.solve, self.product = _prepared_solve(method, T, omega)
        self.c = alpha * omega
        self.split = _row_split(T)  # last, so that a constructor that raises starts no thread

    def start(self, x0: np.ndarray):
        """Evaluate the start x0, a float64 vector of length n: returns
        (x0, x0^[m-1], F(x0), F(x0).max()).  Prepares |T| for
        backward_error and sets eps_0 = 0, anewton's state."""
        self.mags, self.eps = magnitudes(self.T), 0.0
        return self._evaluate(x0)

    def step(self, xpow: np.ndarray, F: np.ndarray):
        if not self.newton:
            return *self._advance(xpow - self.c * self.solve(F)), False
        x_new, xpow_new, F_new, Fmax = self._advance(xpow - self.solve(self.alpha * F + self.eps))
        fallback = bool(Fmax > self.accept_tol)
        if fallback:
            x_new, xpow_new, F_new, Fmax = self._advance(xpow - self.c * self.solve(F))
        # eps_k, with r(x_k) - r(x_{k-1}) from the change in F and in x^[m-1]
        self.eps = np.minimum(-self.alpha * F_new, (F_new - F) / self.p - self.product(xpow_new - xpow))
        return x_new, xpow_new, F_new, Fmax, fallback

    def backward_error(self, x: np.ndarray, F: np.ndarray) -> float:
        """omega(x) = max_i |F_i| / ((|T| |x|^{m-1})_i + |b_i|), with F = F(x):
        the componentwise backward error of Oettli & Prager (Numer. Math.,
        1964; Higham, "Accuracy and Stability of Numerical Algorithms",
        ch. 7), the smallest relative change of the entries of T and b that
        x solves exactly.  It is a ratio, so it does not depend on how the
        system is scaled.  0/0 counts as 0, and a non-finite F gives inf."""
        num = np.abs(F)
        den = _contract(self.T, np.abs(x), self.mags, split=self.split) + np.abs(self.b)
        omega = _max(np.divide(num, den, out=np.zeros_like(num), where=num != 0.0))
        return math.inf if math.isnan(omega) else float(omega)

    def _advance(self, v):
        """x = v^[1/(m-1)], then _evaluate(x)."""
        if self.signed_root and _min(v) < 0.0:
            x = np.sign(v) * np.abs(v) ** (1.0 / self.p)
        else:
            x = elementwise_root(v, self.p + 1)
        return self._evaluate(x)

    def _evaluate(self, x):
        """x, x^[m-1], F(x) and F(x).max().  x is a float64 vector of length
        n, so the contraction kernel runs unchecked."""
        F = _contract(self.T, x, split=self.split) - self.b
        return x, x**self.p, F, _max(F)

    def close(self) -> None:
        """End and join the run's worker thread, if it has one."""
        if self.split is not None:
            self.split.close()


def _prepared_solve(method, T: Tensor, omega=1.0):
    """(solve, product), prepared once: solve(v) = A^{-1} v for the matrix A
    that `method` solves with, and product(v) = M v.  jacobi, and every
    method where M is diagonal, divide by d = diagonal(T), singular only at
    a zero d_i, and build no n x n array.  Else smeqm and anewton invert M,
    a nonsingular M-matrix when T is a strong M-tensor, so M^{-1} >= 0, and
    gs and sor invert P = diag(d) + omega tril(M, -1), omega 1 for gs, and
    keep the lower triangle of the result; each step is then one product."""
    d = diagonal(T)
    M = None if method == "jacobi" else _majorization_unless_diagonal(T)
    if (M is None or method in ("gs", "sor")) and np.any(d == 0.0):
        raise SingularMatrix("majorization matrix has a zero diagonal entry")
    if M is None:
        return (lambda v: v / d), (lambda v: d * v)
    if method in ("gs", "sor"):
        P = np.tril(M, -1) * omega + np.diag(d)
        Pinv = np.tril(np.linalg.inv(P))
        return (lambda v: Pinv @ v), None
    with np.errstate(all="ignore"):  # a 1-norm that overflows gives rcond 0
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise SingularMatrix("majorization matrix is singular") from None
        rcond = 1.0 / (np.linalg.norm(M, 1) * np.linalg.norm(Minv, 1))
    if not rcond >= RCOND_TOL:
        raise SingularMatrix(f"majorization matrix has reciprocal condition {rcond:.3e} below {RCOND_TOL:g}")
    return (lambda v: Minv @ v), (lambda v: M @ v)


def solve(T: Tensor, b, x0=None, cfg: SolveConfig | None = None) -> SolveOutcome:
    """Run the configured iteration until x_k is converged or max_iter.

    No step changes when (T, b) is divided by a scalar, so the iteration
    runs on (T, b) as given.  w is its largest absolute entry
    (`system_scale`) with cfg.scale, else 1; the stopping test, the
    tolerances and the trace read F / w.  x_k is converged when
    ||F(x_k)||_2 / w <= eta and its componentwise backward error
    omega(x_k) <= OMEGA_TOL; omega is computed only once the first test
    holds, and the outcome reports it for the returned x.  A dense T is
    contracted through the packed matrix it holds, on two threads when the
    Stepper starts a worker, which is joined before solve() returns or
    raises.  An infeasible start is reported in the outcome but iteration
    proceeds with the monotonicity audit disabled.  A step that yields an
    inf or NaN ends the run with Status.NON_FINITE; x and the iteration
    count are then those of the last finite iterate.  A residual whose
    entries are finite but whose 2-norm overflows keeps iterating.
    Overflow on the way there is reported by the status, not by numpy
    warnings.
    """
    cfg = cfg or SolveConfig()
    n = T.dim
    b = _as_vector(b, n, "b")
    x = np.zeros(n) if x0 is None else _as_vector(x0, n, "x0").copy()
    if np.any(x < 0):
        raise ValueError("x0 must be nonnegative")

    w = system_scale(T, b) if cfg.scale else 1.0
    trace = IterationTrace()
    # One inverse of M (or of its splitting) per run, reused every iteration.
    try:
        stepper = Stepper(cfg.method, T, b, cfg.alpha, cfg.omega, w)
    except SingularMatrix:
        return SolveOutcome(Status.SINGULAR_MATRIX, x, 0, trace, alpha_warning=cfg.alpha > 1.0,
                            scale_factor=w)

    with closing(stepper), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, xpow, F, _ = stepper.start(x)
        # Not the largest entry: F(x0) = (inf, NaN) is infeasible, yet its max is NaN.
        infeasible = bool(np.any(F > AUDIT_TOL * w))
        # res2 = ||F(x_k) / w||_2, the stopping test of iteration k and the outcome's
        # res2 if the run ends at x_k; F / w is squared, so the sum stays in range.
        Fw = F / w
        res2, omega, k = math.sqrt(Fw @ Fw), math.nan, 0
        status = Status.NON_FINITE if _non_finite(res2, x, F) else None
        while status is None:
            # omega(x_k), or NaN while the 2-norm test fails; NaN <= OMEGA_TOL is False.
            omega = stepper.backward_error(x, F) if res2 <= cfg.eta else math.nan
            if omega <= OMEGA_TOL or k == cfg.max_iter:
                status = Status.CONVERGED if omega <= OMEGA_TOL else Status.MAX_ITER
                break
            t0 = time.perf_counter()
            try:
                x_new, xpow_new, F_new, Fmax, fallback = stepper.step(xpow, F)
            except NegativePowerRHS:
                status = Status.NEGATIVE_POWER_RHS
                break
            Fw = F_new / w
            res2_new = math.sqrt(Fw @ Fw)
            if _non_finite(res2_new, x_new, F_new):
                status = Status.NON_FINITE
                break
            # The largest drop of an entry, in units of the largest |entry| of x_new.
            drop = _max(x - x_new)
            mono = 0.0 if infeasible or drop <= 0.0 else float(drop / _max(np.abs(x_new)))
            feas = 0.0 if infeasible else float(max(0.0, Fmax)) / w
            ms = (time.perf_counter() - t0) * 1e3
            # The largest |entry| of a finite F; abs() turns a -0.0 maximum into 0.0.
            resinf = float(abs(max(Fmax, -_min(F_new)))) / w
            trace.append(res2_new, resinf, mono, feas, fallback, ms)
            x, xpow, F, res2, k = x_new, xpow_new, F_new, res2_new, k + 1
        if math.isnan(omega):
            omega = stepper.backward_error(x, F)

    return SolveOutcome(status, x, k, trace, infeasible, cfg.alpha > 1.0, w, res2, omega)


def _non_finite(res2: float, x: np.ndarray, F: np.ndarray) -> bool:
    """Whether x or F holds an inf or NaN, looked at only when the norm res2
    is not finite; a finite vector whose 2-norm overflows does not count."""
    return not math.isfinite(res2) and not (np.isfinite(x).all() and np.isfinite(F).all())
