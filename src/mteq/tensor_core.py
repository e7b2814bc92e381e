"""Tensor storage and the contraction primitives used by every solver.

A tensor of order m and dimension n is stored either densely, as a numpy
array of shape (n,) * m (`DenseTensor`), or in coordinate form, as the list
of its nonzero entries (`SparseTensor`).  The storage is chosen where a
tensor is built; every primitive here accepts both and keeps the storage of
its input, and each storage has exactly one contraction kernel.  Indices are
1-based in external formats and 0-based internally.  All operations here are
pure functions over immutable inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NegativePowerRHS

# Entries of x^[m-1] in [-ROOT_CLAMP_TOL, 0) are treated as rounding noise
# and clamped to zero before taking the (m-1)-th root.
ROOT_CLAMP_TOL = 1e-14


@dataclass(frozen=True)
class DenseTensor:
    """Order-m, dimension-n real tensor with dense storage."""

    array: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.array, dtype=np.float64))
        if arr.ndim < 2:
            raise ValueError("tensor order must be at least 2")
        n = arr.shape[0]
        if any(s != n for s in arr.shape):
            raise ValueError("all tensor modes must have equal dimension")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def order(self) -> int:
        return self.array.ndim

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @classmethod
    def from_entries(cls, order: int, dim: int, entries) -> "DenseTensor":
        """Build a tensor from sparse records [i1, ..., im, value], 1-based.

        Unlisted positions are zero; the records are validated as by
        SparseTensor.from_entries.
        """
        return cls.from_sparse(SparseTensor.from_entries(order, dim, entries))

    @classmethod
    def from_sparse(cls, T: "SparseTensor") -> "DenseTensor":
        """The dense copy of a COO tensor, with n^m entries."""
        arr = np.zeros((T.dim,) * T.order)
        arr[tuple(T.idx.T)] = T.vals
        return cls(arr)

    def entry(self, *index: int) -> float:
        """Entry at a 1-based multi-index."""
        return float(self.array[tuple(i - 1 for i in index)])


@dataclass(frozen=True)
class SparseTensor:
    """Order-m, dimension-n real tensor in coordinate (COO) storage.

    Row k of `idx` (nnz x m, 0-based) is the multi-index of `vals[k]`;
    unlisted positions are zero.  Entries are kept in lexicographic index
    order.  The layout follows Bader & Kolda, "Efficient MATLAB computations
    with sparse and factored tensors" (SIAM J. Sci. Comput., 2007).
    """

    order: int
    dim: int
    idx: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        order, dim = int(self.order), int(self.dim)
        if order < 2:
            raise ValueError("tensor order must be at least 2")
        if dim < 0:
            raise ValueError("tensor dimension must be nonnegative")
        idx = np.asarray(self.idx)
        if idx.size == 0:
            idx = np.zeros((0, order), dtype=np.intp)
        elif not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("entry indices must be integers")
        if idx.ndim != 2 or idx.shape[1] != order:
            raise ValueError(f"index array must have shape (nnz, {order}), got {idx.shape}")
        vals = np.asarray(self.vals, dtype=np.float64)
        if vals.shape != (idx.shape[0],):
            raise ValueError(f"expected {idx.shape[0]} entry values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("tensor entries must be finite")
        outside = np.any((idx < 0) | (idx >= dim), axis=1)
        if np.any(outside):
            raise ValueError(f"index {_one_based(idx[outside][0])} out of range for dim {dim}")
        perm = np.lexsort(idx.T[::-1])
        idx, vals = idx[perm].astype(np.intp, copy=False), vals[perm]
        repeated = np.all(idx[1:] == idx[:-1], axis=1)
        if np.any(repeated):
            raise ValueError(f"duplicate entry at index {_one_based(idx[1:][repeated][0])}")
        idx.flags.writeable = False
        vals.flags.writeable = False
        for name, value in (("order", order), ("dim", dim), ("idx", idx), ("vals", vals)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_entries(cls, order: int, dim: int, entries) -> "SparseTensor":
        """Build a tensor from sparse records [i1, ..., im, value], 1-based.

        Unlisted positions are zero.  Indices must be integers in 1..dim,
        values finite, and no index tuple may repeat.
        """
        records = entries if isinstance(entries, list) else list(entries)
        for rec in records:
            if len(rec) != order + 1:
                raise ValueError(f"entry record has {len(rec) - 1} indices, expected {order}")
        table = np.array(records, dtype=np.float64).reshape(-1, order + 1)
        idx = table[:, :order]
        bad = np.any((idx < 1) | (idx > dim) | (idx != np.floor(idx)), axis=1)
        if np.any(bad):
            raise ValueError(f"index {idx[bad][0].tolist()} is not an integer in 1..{dim}")
        return cls(order, dim, idx.astype(np.intp) - 1, table[:, order])

    @property
    def array(self) -> np.ndarray:
        """A dense copy with n^m entries, for inspection and tests only."""
        return DenseTensor.from_sparse(self).array

    def entry(self, *index: int) -> float:
        """Entry at a 1-based multi-index."""
        hit = np.all(self.idx == np.subtract(index, 1), axis=1)
        return float(self.vals[hit].sum())

    def _take(self, keep, vals) -> "SparseTensor":
        """The tensor over the entries selected by `keep` (a mask or slice),
        with values `vals`.  Entries taken from this tensor are already
        sorted, in range and distinct, so validation is skipped; `vals` must
        be finite."""
        idx, vals = self.idx[keep], np.asarray(vals, dtype=np.float64)
        idx.flags.writeable = False
        vals.flags.writeable = False
        T = object.__new__(SparseTensor)
        for name, value in (("order", self.order), ("dim", self.dim), ("idx", idx), ("vals", vals)):
            object.__setattr__(T, name, value)
        return T


Tensor = DenseTensor | SparseTensor

# A COO contraction costs about as much per stored entry as a dense one does
# for this many entries: numpy gathers and a bincount against one BLAS pass
# (measured 24-69, mostly about 30, for m = 2..6 on a 2-core x86-64 VM with
# OpenBLAS).  It also exceeds m + 1, so COO chosen by it is the smaller
# storage as well.
COO_ENTRY_COST = 32


def cheaper_storage(T: SparseTensor) -> Tensor:
    """T itself when a contraction over its stored entries costs less than
    one over all n^m entries, else its dense copy."""
    if COO_ENTRY_COST * T.vals.size < T.dim**T.order:
        return T
    return DenseTensor.from_sparse(T)


def _one_based(row) -> tuple:
    return tuple(int(i) + 1 for i in row)


@dataclass(frozen=True)
class MajorizationMatrix:
    """The n x n matrix M with m_ij = m_{ij...j}, plus a cached LU factorization."""

    values: np.ndarray
    _lu_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("majorization matrix must be square")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.values)

    def lu(self):
        """LU factorization with partial pivoting, computed once and reused."""
        if not self._lu_cache:
            from .dense_linalg import lu_factor

            self._lu_cache.append(lu_factor(self.values))
        return self._lu_cache[0]


@dataclass(frozen=True)
class ScaledSystem:
    """A system divided through by the largest absolute entry of (tensor, rhs)."""

    tensor: Tensor
    rhs: np.ndarray
    scale: float


def _as_vector(x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (n,):
        raise DimensionMismatch(f"expected vector of length {n}, got shape {v.shape}")
    return v


def stored_values(T: Tensor) -> np.ndarray:
    """The explicitly stored entries: all n^m of a dense tensor, the listed
    ones of a COO tensor (whose unlisted entries are zero)."""
    return T.vals if isinstance(T, SparseTensor) else T.array


def _contract(T: Tensor, x: np.ndarray, keep: int) -> np.ndarray:
    """Contract every mode of T after the first `keep` (1 or 2) with x.

    This is the one contraction kernel of each storage: a sum over the
    stored entries for COO, one matrix-vector product per mode for dense.
    x must already be a float64 vector of length n; it is not checked here,
    so that solve() can contract its own iterates without the check.
    """
    n = T.dim
    if isinstance(T, SparseTensor):
        w = T.vals
        for k in range(keep, T.order):
            w = w * x[T.idx[:, k]]
        rows = T.idx[:, 0] if keep == 1 else T.idx[:, 0] * n + T.idx[:, 1]
        a = np.bincount(rows, weights=w, minlength=n**keep)
    else:
        a = T.array
        for _ in range(T.order - keep):
            a = a.reshape(-1, n) @ x
    return a if keep == 1 else a.reshape(n, n)


def contract_full(T: Tensor, x) -> np.ndarray:
    """The vector T x^{m-1}: entry i is the sum over trailing multi-indices
    of T(i, i2, ..., im) * x_{i2} ... x_{im}."""
    return _contract(T, _as_vector(x, T.dim), 1)


def contract_matrix(T: Tensor, x) -> np.ndarray:
    """The n x n matrix T x^{m-2}; satisfies (T x^{m-2}) x = T x^{m-1}."""
    return _contract(T, _as_vector(x, T.dim), 2)


def residual(T: Tensor, b, x) -> np.ndarray:
    """F(x) = T x^{m-1} - b."""
    b = _as_vector(b, T.dim)
    return contract_full(T, x) - b


def elementwise_power(x, p: float) -> np.ndarray:
    """Entrywise power x^[p].  Fractional p requires nonnegative entries."""
    x = np.asarray(x, dtype=np.float64)
    if p != int(p) and np.any(x < 0):
        raise NegativePowerRHS(f"negative entry under fractional power {p}")
    return x**p

def elementwise_root(v, m: int) -> np.ndarray:
    """x = v^[1/(m-1)], clamping rounding-scale negatives to zero.

    Raises NegativePowerRHS if any entry is below -ROOT_CLAMP_TOL.
    """
    v = np.asarray(v, dtype=np.float64)
    if np.any(v < -ROOT_CLAMP_TOL):
        raise NegativePowerRHS(
            f"cannot take a real (m-1)-th root: min entry {v.min():.3e}"
        )
    v = np.where(v < 0.0, 0.0, v)
    return v ** (1.0 / (m - 1))


def _major_mask(T: SparseTensor) -> np.ndarray:
    """Which stored entries sit at (i, j, ..., j) positions."""
    return np.all(T.idx[:, 1:] == T.idx[:, 1:2], axis=1)


def _diagonal_mask(T: SparseTensor) -> np.ndarray:
    """Which stored entries sit on the main diagonal (i, i, ..., i)."""
    return np.all(T.idx == T.idx[:, :1], axis=1)


def diagonal(T: Tensor) -> np.ndarray:
    """The entries T(i, i, ..., i)."""
    if isinstance(T, SparseTensor):
        on = _diagonal_mask(T)
        d = np.zeros(T.dim)
        d[T.idx[on, 0]] = T.vals[on]
        return d
    i = np.arange(T.dim)
    return T.array[(i,) * T.order]


def offdiagonal_max(T: Tensor) -> float:
    """Largest entry outside the main diagonal (i, i, ..., i); -inf if none."""
    if isinstance(T, SparseTensor):
        off = T.vals[~_diagonal_mask(T)]
        # Off-diagonal positions that are not listed hold zeros.
        unlisted_zero = T.dim**T.order - T.dim > off.size
        return float(off.max(initial=0.0 if unlisted_zero else -np.inf))
    arr = T.array.copy()
    i = np.arange(T.dim)
    arr[(i,) * T.order] = -np.inf
    return float(arr.max())


def identity_minus(T: Tensor, s: float) -> Tensor:
    """s*I - T, in the storage of T."""
    if isinstance(T, SparseTensor):
        off = ~_diagonal_mask(T)
        diag = np.repeat(np.arange(T.dim)[:, None], T.order, axis=1)
        idx = np.concatenate([T.idx[off], diag])
        return SparseTensor(T.order, T.dim, idx, np.concatenate([-T.vals[off], s - diagonal(T)]))
    return DenseTensor(s * identity_tensor(T.order, T.dim).array - T.array)


def row_sums(T: Tensor) -> np.ndarray:
    """Entry i is the sum of T(i, i2, ..., im) over all trailing indices.

    COO rows are summed with math.fsum (correctly rounded), so the result
    does not depend on the order of the stored entries.
    """
    if isinstance(T, SparseTensor):
        # Entries are sorted, so each row is one contiguous run.
        starts = np.searchsorted(T.idx[:, 0], np.arange(1, T.dim))
        return np.array([math.fsum(row) for row in np.split(T.vals, starts)])
    return contract_full(T, np.ones(T.dim))


def majorization(T: Tensor) -> MajorizationMatrix:
    """Extract the majorization matrix M with M[i, j] = T(i, j, j, ..., j)."""
    if isinstance(T, SparseTensor):
        major = _major_mask(T)
        vals = np.zeros((T.dim, T.dim))
        vals[T.idx[major, 0], T.idx[major, 1]] = T.vals[major]
        return MajorizationMatrix(vals)
    j = np.arange(T.dim)
    vals = T.array[(slice(None),) + (j,) * (T.order - 1)]
    return MajorizationMatrix(np.array(vals))


def split_offmajor(T: Tensor) -> Tensor:
    """The off-major part: T with all (i, j, ..., j) entries zeroed.

    The complement (T minus the result) acts on x as M x^[m-1].
    """
    if isinstance(T, SparseTensor):
        off = ~_major_mask(T)
        return T._take(off, T.vals[off])
    arr = T.array.copy()
    j = np.arange(T.dim)
    arr[(slice(None),) + (j,) * (T.order - 1)] = 0.0
    return DenseTensor(arr)


def identity_tensor(m: int, n: int) -> DenseTensor:
    """The tensor with ones on the main diagonal (i, i, ..., i) and zeros elsewhere."""
    arr = np.zeros((n,) * m)
    i = np.arange(n)
    arr[(i,) * m] = 1.0
    return DenseTensor(arr)


def semi_symmetrize(T: DenseTensor) -> DenseTensor:
    """Average over all permutations of the trailing m-1 indices.

    Leaves contract_full unchanged for every x and is idempotent.
    """
    m = T.order
    perms = list(itertools.permutations(range(1, m)))
    acc = np.zeros_like(T.array)
    for p in perms:
        acc += np.transpose(T.array, (0,) + p)
    return DenseTensor(acc / len(perms))


def scale_system(T: Tensor, b) -> ScaledSystem:
    """Divide tensor and right side by their joint largest absolute entry."""
    b = _as_vector(b, T.dim)
    w = max(np.abs(stored_values(T)).max(initial=0.0), np.abs(b).max())
    if w == 0.0:
        raise ValueError("cannot scale an identically zero system")
    if isinstance(T, SparseTensor):
        scaled = T._take(slice(None), T.vals / w)
    else:
        scaled = DenseTensor(T.array / w)
    return ScaledSystem(scaled, b / w, float(w))
