"""Small dense linear-algebra kernel: LAPACK LU and triangular solves.

A majorization matrix that is not diagonal is factored once per run
(`dgetrf`); each iteration then costs one `dgetrs` (or, for the
Gauss-Seidel / SOR splitting, one `dtrtrs`) call, O(n^2).  The LAPACK
routines are bound on first use: importing `scipy.linalg` costs about
28 MB and 0.3 s, which only a run that factors or splits a dense M pays,
so a run with a diagonal M never loads it.  They are called without
scipy's per-call argument validation, so the inputs are checked here:
once when factoring, and for shape only when solving.  A non-finite
right side is not rejected; it gives a non-finite solution, which the
solver loop reports.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SingularMatrix

# A pivot below this fraction of the matrix magnitude flags singularity.
PIVOT_TOL = 1e-14


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, imported once, on the first call."""
    from scipy.linalg import lapack
    return lapack


def lu_factor(A) -> tuple[np.ndarray, np.ndarray]:
    """Factor a square matrix as P A = L U with partial (row) pivoting.

    Returns `dgetrf`'s pair (packed, ipiv), the shape
    `scipy.linalg.lu_factor` returns: `packed` holds the unit-lower factor
    strictly below the diagonal and the upper factor on and above it, in
    Fortran order; `ipiv` holds the 0-based row interchanges, row k swapped
    with row ipiv[k] in turn.  Raises SingularMatrix when a pivot |U_kk|
    falls below PIVOT_TOL times the largest |A_ij|, also where LAPACK itself
    reports no singularity.
    """
    A = np.array(A, dtype=np.float64, order="F")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("lu_factor requires a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("lu_factor requires finite entries")
    threshold = PIVOT_TOL * max(np.abs(A).max(), 1e-300)
    packed, ipiv, _ = _lapack().dgetrf(A, overwrite_a=1)
    pivots = np.abs(np.diagonal(packed))
    small = np.flatnonzero(pivots < threshold)
    if small.size:
        k = int(small[0])
        raise SingularMatrix(f"pivot {packed[k, k]:.3e} at column {k} below threshold")
    return packed, ipiv


def lu_solve(lu, rhs) -> np.ndarray:
    """Solve A y = rhs given lu = lu_factor(A), passed to `dgetrs` unchanged."""
    packed, ipiv = lu
    rhs = np.asarray(rhs, dtype=np.float64)
    n = packed.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match dim {n}")
    return _lapack().dgetrs(packed, ipiv, rhs)[0]


def lower_tri_solve(A, rhs) -> np.ndarray:
    """Forward substitution for a lower-triangular A; the upper part is ignored.

    Solves through the transpose, which is Fortran-ordered for a C-ordered
    A and so is passed to LAPACK without a copy.  Raises SingularMatrix when
    a diagonal entry is exactly zero.
    """
    A = np.asarray(A, dtype=np.float64)
    y, info = _lapack().dtrtrs(A.T, np.asarray(rhs, dtype=np.float64), lower=0, trans=1)
    if info > 0:
        raise SingularMatrix("lower triangular solve with a zero diagonal entry")
    return y
