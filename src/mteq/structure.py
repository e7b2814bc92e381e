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

from .errors import NoNonnegativeSolution, NotStructured, NotZTensor
from .solvers import AUDIT_TOL, _prepared_solve
from .tensor_core import (
    Tensor,
    _as_vector,
    _contract,
    contract_full,
    diagonal,
    elementwise_root,
    has_offmajor,
    identity_minus,
    packed_sums,
    row_sums,
    system_scale,
)


# The stopping rule of spectral_radius_estimate.
POWER_MAX_ITER, POWER_TOL = 200, 1e-10


class Verdict(str, Enum):
    STRONG_BY_ROW_SUM = "StrongByRowSum"
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
    """True iff every off-diagonal packed sum (`packed_sums`) is <= 0: the
    Z-test of T's semi-symmetrization, its average over trailing orderings,
    which has the same T x^{m-1}.  Every Z-tensor passes, and both storages
    give the same answer."""
    return bool(np.count_nonzero(packed_sums(T)[0] > 0) == np.count_nonzero(diagonal(T) > 0))


def mtensor_certificate(T: Tensor, use_power_method: bool = False) -> MTensorCertificate:
    """Certify strong M-tensor structure via the row-sum bound on rho(B).

    Decomposes T = s*I - B with s the largest diagonal entry, the choice
    that minimizes the row-sum bound among decompositions with B >= 0.
    Row i of B sums to s minus row i of T, so the bound is read from T's
    own correctly rounded row sums; B is built only for the power
    estimate.  The verdict compares s with the rounded bound, not the row
    sums with 0: P3's interior rows sum to 2^-53, and 2 - 2^-53 rounds to
    its s = 2, so P3 stays Unknown.
    """
    if not is_z_tensor(T):
        raise NotZTensor("tensor has a positive off-diagonal entry")
    s = float(diagonal(T).max())
    row_sum_bound = s - float(row_sums(T).min())
    estimate = spectral_radius_estimate(identity_minus(T, s)) if use_power_method else None
    verdict = Verdict.STRONG_BY_ROW_SUM if s > row_sum_bound else Verdict.UNKNOWN
    return MTensorCertificate(s, row_sum_bound, estimate, verdict)


def spectral_radius_estimate(B: Tensor) -> float:
    """Power-type estimate of the spectral radius of a nonnegative tensor.

    Iterates u <- (B u^{m-1})^[1/(m-1)], normalized in the infinity norm,
    from u = e.  Advisory only: for reducible tensors the iteration need
    not reach the true radius, but the result never exceeds the row-sum
    bound by more than POWER_TOL.
    """
    if np.any(packed_sums(B)[0] < 0):
        raise ValueError("spectral radius estimate requires a nonnegative tensor")
    m = B.order
    u = np.ones(B.dim)
    estimate = 0.0
    for _ in range(POWER_MAX_ITER):
        w = contract_full(B, u)
        if not np.any(w > 0):
            return 0.0
        alive = u > POWER_TOL
        new_estimate = float((w[alive] / u[alive] ** (m - 1)).max())
        u_new = elementwise_root(w, m)
        u_new /= u_new.max()
        done = abs(new_estimate - estimate) <= POWER_TOL * max(1.0, new_estimate)
        estimate = new_estimate
        u = u_new
        if done:
            break
    return estimate


def is_feasible_S(T: Tensor, b, x) -> FeasibilityReport:
    """Membership test for S = {x >= 0 : T x^{m-1} <= b} by solve()'s start
    test, F <= AUDIT_TOL * system_scale(T, b); the scale is read only for a
    positive F, so an identically zero system has every x >= 0 in S.  A
    non-finite b or x is rejected, as solve() rejects it."""
    b, x = _as_vector(b, T.dim, "b"), _as_vector(x, T.dim, "x")
    F = _contract(T, x) - b
    is_nonneg = bool(np.all(x >= 0.0))
    residual_max = float(F.max())
    below = residual_max <= 0.0 or residual_max <= AUDIT_TOL * system_scale(T, b)
    return FeasibilityReport(is_nonneg, residual_max, is_nonneg and below)


def solve_structured(T: Tensor, b) -> np.ndarray:
    """Closed-form solve when only (i, j, ..., j) entries are present.

    The equation reduces to M y = b with y = x^[m-1]; a nonnegative y
    yields the unique nonnegative solution x = y^[1/(m-1)].
    """
    if has_offmajor(T):
        raise NotStructured("tensor has entries outside the (i, j, ..., j) positions")
    y, tol = _solve_majorization(T, b)
    if np.any(y < -tol):
        raise NoNonnegativeSolution(f"M^-1 b has negative entry {y.min():.3e}")
    return elementwise_root(np.where(y < 0, 0.0, y), T.order)


def existence_sufficient(T: Tensor, b) -> Existence:
    """Sufficient existence test: sign of y = M^-1 b.

    Positive y guarantees a positive solution; nonnegative y a nonnegative
    one.  A sign change is Inconclusive (the test is not necessary).
    """
    y, tol = _solve_majorization(T, b)
    if np.all(y > tol):
        return Existence.POSITIVE
    if np.all(y >= -tol):
        return Existence.NONNEGATIVE
    return Existence.INCONCLUSIVE


def _solve_majorization(T: Tensor, b) -> tuple[np.ndarray, float]:
    """y = M^-1 b for the majorization matrix M of T, and the tolerance
    AUDIT_TOL * max|y| that its signs are judged by, in the units of b; y
    is smeqm's prepared solve, a division where M is diagonal.  A b of the
    wrong length raises DimensionMismatch, and a non-finite b, whose y
    would read as a sign pattern it does not have, is rejected."""
    b = _as_vector(b, T.dim, "b")
    y = _prepared_solve("smeqm", T)[0](b)
    return y, AUDIT_TOL * float(np.abs(y).max())
