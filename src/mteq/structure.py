"""Structural analysis: Z/M-tensor certification, feasibility, existence tests,
and closed-form solution of structured equations.

A Z-tensor can be written s*I - B with B >= 0; it is a strong M-tensor when
s exceeds the spectral radius of B.  Exact computation of that radius is
intractable in general, so certification relies on the sufficient row-sum
bound; a power-type estimate is available as an advisory extra.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dense_linalg import lu_solve
from .errors import NoNonnegativeSolution, NotStructured, NotZTensor
from .tensor_core import (
    Tensor,
    contract_full,
    diagonal,
    elementwise_root,
    identity_minus,
    majorization,
    offdiagonal_max,
    residual,
    row_sums,
    split_offmajor,
    stored_values,
)


class Verdict(str, Enum):
    STRONG_BY_ROW_SUM = "StrongByRowSum"
    NOT_Z_TENSOR = "NotZTensor"
    UNKNOWN = "Unknown"


class Existence(str, Enum):
    NONNEGATIVE = "NonnegativeExists"
    POSITIVE = "PositiveExists"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class MTensorCertificate:
    s: float
    row_sum_bound: float
    power_estimate: float | None
    verdict: Verdict


@dataclass(frozen=True)
class FeasibilityReport:
    is_nonneg: bool
    residual_max: float
    in_S: bool


def is_z_tensor(T: Tensor) -> bool:
    """True iff every off-diagonal entry is <= 0."""
    return offdiagonal_max(T) <= 0.0


def mtensor_certificate(T: Tensor, use_power_method: bool = False) -> MTensorCertificate:
    """Certify strong M-tensor structure via the row-sum bound on rho(B).

    Decomposes T = s*I - B with s the largest diagonal entry, the choice
    that minimizes the row-sum bound among decompositions with B >= 0.
    """
    if not is_z_tensor(T):
        raise NotZTensor("tensor has a positive off-diagonal entry")
    s = float(diagonal(T).max())
    B = identity_minus(T, s)
    row_sum_bound = float(row_sums(B).max())
    estimate = None
    if use_power_method:
        estimate = spectral_radius_estimate(B, max_iter=200, tol=1e-10)
    verdict = Verdict.STRONG_BY_ROW_SUM if s > row_sum_bound else Verdict.UNKNOWN
    return MTensorCertificate(s, row_sum_bound, estimate, verdict)


def spectral_radius_estimate(B: Tensor, max_iter: int = 200, tol: float = 1e-10) -> float:
    """Power-type estimate of the spectral radius of a nonnegative tensor.

    Iterates u <- (B u^{m-1})^[1/(m-1)], normalized in the infinity norm,
    from u = e.  Advisory only: for reducible tensors the iteration need
    not reach the true radius, but the result never exceeds the row-sum
    bound by more than tol.
    """
    if np.any(stored_values(B) < 0):
        raise ValueError("spectral radius estimate requires a nonnegative tensor")
    m = B.order
    u = np.ones(B.dim)
    estimate = 0.0
    for _ in range(max_iter):
        w = contract_full(B, u)
        if not np.any(w > 0):
            return 0.0
        alive = u > tol
        new_estimate = float((w[alive] / u[alive] ** (m - 1)).max())
        u_new = elementwise_root(w, m)
        u_new /= u_new.max()
        done = abs(new_estimate - estimate) <= tol * max(1.0, new_estimate)
        estimate = new_estimate
        u = u_new
        if done:
            break
    return estimate


def is_feasible_S(T: Tensor, b, x, tol: float = 1e-10) -> FeasibilityReport:
    """Membership test for S = {x >= 0 : T x^{m-1} <= b}, relaxed by tol."""
    x = np.asarray(x, dtype=np.float64)
    F = residual(T, b, x)
    is_nonneg = bool(np.all(x >= -tol))
    residual_max = float(F.max())
    return FeasibilityReport(is_nonneg, residual_max, is_nonneg and residual_max <= tol)


def solve_structured(T: Tensor, b) -> np.ndarray:
    """Closed-form solve when only (i, j, ..., j) entries are present.

    The equation reduces to M y = b with y = x^[m-1]; a nonnegative y
    yields the unique nonnegative solution x = y^[1/(m-1)].
    """
    if np.any(stored_values(split_offmajor(T)) != 0.0):
        raise NotStructured("tensor has entries outside the (i, j, ..., j) positions")
    M = majorization(T)
    y = lu_solve(M.lu(), np.asarray(b, dtype=np.float64))
    if np.any(y < -1e-12):
        raise NoNonnegativeSolution(f"M^-1 b has negative entry {y.min():.3e}")
    return elementwise_root(np.where(y < 0, 0.0, y), T.order)


def existence_sufficient(T: Tensor, b) -> Existence:
    """Sufficient existence test: sign of y = M^-1 b.

    Positive y guarantees a positive solution; nonnegative y a nonnegative
    one.  A sign change is Inconclusive (the test is not necessary).
    """
    M = majorization(T)
    y = lu_solve(M.lu(), np.asarray(b, dtype=np.float64))
    if np.all(y > 1e-12):
        return Existence.POSITIVE
    if np.all(y >= -1e-12):
        return Existence.NONNEGATIVE
    return Existence.INCONCLUSIVE
