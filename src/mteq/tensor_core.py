"""Tensor storage and the contraction primitives used by every solver.

A tensor of order m and dimension n is stored either densely, as its packed
matrix (`DenseTensor`), or in coordinate form, as the list of its nonzero
packed sums (`SparseTensor`).  Every tensor built from entries is stored as
`cheaper_storage` picks; every primitive here accepts both, a primitive
that returns a tensor returns it in the storage of its input, and
`majorization` returns a dense n x n array for either, which no solve
builds for a COO tensor whose M is diagonal (`_majorization_unless_diagonal`).
The one contraction is T x^{m-1}, with one kernel per storage.
Indices are 1-based in external formats and 0-based internally.  All
operations here but a `_RowSplit` are pure functions over immutable inputs.

T x^{m-1} depends on T only through the sums of T(i, ...) over the
orderings of each trailing multi-index, and both storages keep those sums
alone: a COO tensor the nonzero ones, a dense tensor its packed matrix
`DenseTensor.packed`, n x C(n+m-2, m-1), one column per sorted trailing
multi-index, about (m-1)! times fewer entries than n^m.  This is the packed
symmetric storage of Schatz, Low, van de Geijn & Kolda, "Exploiting
symmetry in tensors for high performance" (SIAM J. Sci. Comput., 2014), on
the trailing modes, for every tensor, symmetric or not.  The structure
tests read the sums in either storage (`packed_sums`), and `symmetrize`
averages a tensor over all orders of its indices on P.
Every dense row loop that runs on two threads runs on one `_RowSplit`,
whose worker thread computes the lower rows while the caller computes the
upper ones, with the bits of one thread, where 2 CPUs are usable: a run's
contractions when P is past one core's L2 and within two (`SPLIT_BYTES`,
`_row_split`), and the packing of a dense tensor's rows and `symmetrize`
when P is past one L2 (`_by_rows`, which joins its worker before it
returns).  Nothing else here starts a thread.

Each input is checked once, where it enters, and a tensor and a number
only here: `_is_number` is the package's one rule for a scalar (also for
`SolveConfig`), `_order_and_dim` checks the order and dimension,
`from_entries` the entry fields, and a constructor's one max/min pass
(row by row for a dense one) rejects an inf or NaN and keeps the largest
|entry| as `max_abs`, so no solve reads n^m entries for its scale.
`_as_vector` checks a vector's length and, if named, finiteness.  A
tensor record is read by `from_entries` and written by its inverse,
`entries`: one per nonzero packed sum, the same from either storage.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NegativePowerRHS

# Entries of x^[m-1] in [-ROOT_CLAMP_TOL, 0) are treated as rounding noise
# and clamped to zero before taking the (m-1)-th root.
ROOT_CLAMP_TOL = 1e-14


class DenseTensor:
    """Order-m, dimension-n real tensor with dense storage, read-only.

    `DenseTensor(array)` checks the n^m array, packs it row by row into
    `packed` (`_pack`, see `_packing`) and keeps no reference to it;
    `max_abs` is the array's largest |entry|.  A generator hands `_pack`
    its rows as it makes them (`_of_rows`), so it never holds an n^m
    array: packing holds P and one row of n^{m-1} entries per thread.
    One built from a packed matrix alone (`identity_minus`, `symmetrize`)
    is the tensor of its packed records (`entries`), and its `max_abs` is
    the largest |packed entry|.
    """

    __slots__ = ("order", "dim", "packed", "max_abs")

    def __init__(self, array):
        arr = np.asarray(array, dtype=np.float64)
        n = arr.shape[0] if arr.ndim else 0
        if any(s != n for s in arr.shape):
            raise ValueError("all tensor modes must have equal dimension")
        self._pack(*_order_and_dim(arr.ndim, n), lambda lo, hi: arr[lo:hi])

    def _pack(self, order: int, dim: int, rows) -> "DenseTensor":
        """Pack the dim row slabs T(i, ...) of shape (dim,)^(order-1) into
        self and return self: the one packer.  rows(lo, hi) gives the rows
        lo <= i < hi in order of i; each is checked finite (`_max_abs`) and
        binned into its row of P as it arrives, and none is kept, so rows
        may make them as asked.  The row loop is `_by_rows`'s: on two
        threads for a P past SPLIT_BYTES, each row's bits the same either
        way; `max_abs` is the largest row's."""
        layout = _packing(dim, order)
        packed = np.empty((dim, layout.size))

        def pack(lo: int, hi: int) -> float:
            max_abs = 0.0
            for i, row in enumerate(rows(lo, hi), lo):
                max_abs = max(max_abs, _max_abs(row))
                packed[i] = np.bincount(layout.column, weights=row.reshape(-1), minlength=layout.size)
            return max_abs

        return self._keep(order, packed, max(_by_rows(pack, packed)))

    def _keep(self, order: int, packed: np.ndarray, max_abs: float) -> "DenseTensor":
        packed.flags.writeable = False
        for name, value in (("order", order), ("dim", packed.shape[0]), ("packed", packed), ("max_abs", max_abs)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a DenseTensor is read-only")

    def __reduce__(self):
        return _of_packed, (self.order, self.packed, self.max_abs)

    @classmethod
    def from_sparse(cls, T: "SparseTensor") -> "DenseTensor":
        """The dense copy of a COO tensor: each sum at its row and packed column."""
        layout = _packing(T.dim, T.order)
        packed = np.zeros((T.dim, layout.size))
        packed[T.cols[0], layout.column[np.ravel_multi_index(T.cols[1:], (T.dim,) * (T.order - 1))]] = T.vals
        return _of_packed(T.order, packed, T.max_abs)


@dataclass(frozen=True, eq=False)
class SparseTensor:
    """Order-m, dimension-n real tensor in coordinate (COO) storage.

    The constructor checks the entries as given, then keeps their nonzero
    packed sums: row k of `idx` (nnz x m, 0-based), in lexicographic order, is
    a row and a sorted trailing multi-index, and `vals[k]` the sum of T over
    its orderings.  Records in that form, a generator's or a file's, are kept;
    others (an old file's, a dense array's) are grouped (`_grouped`).  `idx` is
    stored column-major, and `cols[k]` is its k-th column, the contiguous index
    array of mode k that the contraction gathers through; `max_abs` is the
    largest |entry| given.  idx, cols and vals are read-only; `_rows` is
    cols[0] as a writeable view of the same memory, which the contraction bins
    by and nothing writes: np.bincount copies a read-only index on every call.
    The layout follows Bader & Kolda, "Efficient MATLAB computations with
    sparse and factored tensors" (SIAM J. Sci. Comput., 2007).
    """

    order: int
    dim: int
    idx: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        order, dim = _order_and_dim(self.order, self.dim)
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
        max_abs = _max_abs(vals)
        outside = np.any((idx < 0) | (idx >= dim), axis=1)
        if np.any(outside):
            raise ValueError(f"index {_one_based(idx[outside][0])} out of range for dim {dim}")
        perm = np.lexsort(idx.T[::-1])
        idx, vals = idx[perm], vals[perm]
        repeated = np.all(idx[1:] == idx[:-1], axis=1)
        if np.any(repeated):
            raise ValueError(f"duplicate entry at index {_one_based(idx[1:][repeated][0])}")
        if np.any(idx[:, 1:-1] > idx[:, 2:]):  # else each entry is its own sum, as in packed records
            idx, vals = _grouped(idx, vals)
        nonzero = vals != 0.0
        self._keep(order, dim, np.asfortranarray(idx[nonzero], dtype=np.intp), vals[nonzero], max_abs)

    def _keep(self, order: int, dim: int, idx: np.ndarray, vals: np.ndarray, max_abs: float) -> "SparseTensor":
        rows = idx[:, 0]  # taken before idx is made read-only, so it stays writeable
        idx.flags.writeable = False
        vals.flags.writeable = False
        for name, value in (("order", order), ("dim", dim), ("idx", idx), ("vals", vals),
                            ("cols", tuple(idx.T)), ("_rows", rows), ("max_abs", max_abs)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def from_entries(cls, order: int, dim: int, entries) -> "SparseTensor":
        """Build a tensor from sparse records [i1, ..., im, value], 1-based.

        Unlisted positions are zero.  Fields must be real numbers, not bools
        (TypeError); indices integers in 1..dim, values finite, none repeated.
        The records are dropped once their float table exists, so a caller
        that hands over its only reference (`tensorio.read_tensor`) has them
        freed before the tensor is built.
        """
        order, dim = _order_and_dim(order, dim)
        records = entries if isinstance(entries, list) else list(entries)
        kinds = set(map(type, itertools.chain.from_iterable(records)))  # one pass over every field
        if bad := sorted(k.__name__ for k in kinds if not _is_number(k)):
            raise TypeError(f"entry fields must be numbers, got {', '.join(bad)}")
        for rec in records:
            if len(rec) != order + 1:
                raise ValueError(f"entry record has {len(rec) - 1} indices, expected {order}")
        table = np.array(records, dtype=np.float64).reshape(-1, order + 1)
        del entries, records  # one Python list per record, several times the table's bytes
        idx = table[:, :order]
        bad = np.any((idx < 1) | (idx > dim) | (idx != np.floor(idx)), axis=1)
        if np.any(bad):
            raise ValueError(f"index {idx[bad][0].tolist()} is not an integer in 1..{dim}")
        return cls(order, dim, idx.astype(np.intp) - 1, table[:, order])


Tensor = DenseTensor | SparseTensor


def _grouped(idx: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys (row, sorted trailing multi-index), sorted, of entries
    in lexicographic index order, and their sums, binned from 0.0 as in `_pack`."""
    keys = np.column_stack((idx[:, 0], np.sort(idx[:, 1:], axis=1)))
    order = np.lexsort(keys.T[::-1])  # stable, so each group stays in increasing index
    keys = keys[order]
    first = np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)]
    return keys[first], np.bincount(np.cumsum(first) - 1, weights=vals[order])


def _of_packed(order: int, packed: np.ndarray, max_abs: float) -> DenseTensor:
    """The DenseTensor of a new packed matrix that nothing else holds."""
    return object.__new__(DenseTensor)._keep(order, packed, max_abs)


def _of_rows(order: int, dim: int, rows) -> DenseTensor:
    """The DenseTensor whose rows T(i, ...), arrays of shape
    (dim,)^(order-1), are made by rows(lo, hi) for lo <= i < hi in order of
    i, packed as they arrive (`_pack`).  A range may start at any row a
    `_RowSplit` splits at, and on another thread."""
    return object.__new__(DenseTensor)._pack(order, dim, rows)


# COO is kept while COO_ENTRY_COST * (stored packed sums) < n C(n+m-2, m-1).
# A COO contraction (numpy gathers and a bincount) costs about as much per
# stored entry as the packed dense one (one BLAS pass over P) does for 10-40
# entries of P, for m = 2..6 (2-core x86-64 VM, OpenBLAS).  Both sides count
# packed sums, so a tensor reads back from its file of packed records in
# the storage it was written from.  Any value in [15.9, 24) keeps P3 dense
# for n <= 5 and COO from n = 6 (11 and 14 sums against 175 and 336).
COO_ENTRY_COST = 20


def cheaper_storage(T: SparseTensor) -> Tensor:
    """T, or its dense copy when contracting the packed matrix costs less."""
    size = T.dim * math.comb(T.dim + T.order - 2, T.order - 1)
    return T if COO_ENTRY_COST * T.vals.size < size else DenseTensor.from_sparse(T)


def _is_number(kind: type, count: bool = False) -> bool:
    """Whether values of type `kind` are numbers to the package: a
    numbers.Real, or for a count a numbers.Integral, and never a bool.
    numpy floats and ints and Fraction are; bool, numpy's bool, str, None
    and Decimal are not.  It takes the type, so that a caller can judge
    each distinct type of many values once."""
    return issubclass(kind, numbers.Integral if count else numbers.Real) and not issubclass(kind, bool)


def _order_and_dim(order, dim) -> tuple[int, int]:
    """order and dim as ints, checked: counts (`_is_number`), order >= 2, dim >= 1."""
    for key, value in (("order", order), ("dim", dim)):
        if not _is_number(type(value), count=True):
            raise ValueError(f"tensor {key!r} must be an integer, got {value!r}")
    if order < 2:
        raise ValueError("tensor order must be at least 2")
    if dim < 1:
        raise ValueError("tensor dimension must be positive")
    return int(order), int(dim)


def _one_based(row) -> tuple:
    return tuple(int(i) + 1 for i in row)


def _max_abs(values: np.ndarray) -> float:
    """max |v| over the entries of a tensor, 0 if there are none, from one
    max and one min, with no |v| temporary.  It is also the tensor's check
    for finite entries: a NaN passes through max and min, an inf gives inf."""
    w = float(max(values.max(initial=0.0), -values.min(initial=0.0)))
    if not math.isfinite(w):
        raise ValueError("tensor entries must be finite")
    return w


@dataclass(frozen=True, eq=False)
class ScaledSystem:
    """A system divided through by the largest absolute entry of (tensor, rhs)."""

    tensor: Tensor
    rhs: np.ndarray
    scale: float


def _as_vector(x, n: int, name: str | None = None) -> np.ndarray:
    """x as a float64 vector of length n, else DimensionMismatch.  A named
    vector is an input to the system, and its entries must also be finite."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (n,):
        raise DimensionMismatch(f"expected vector of length {n}, got shape {v.shape}")
    if name is not None and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def entries(T: Tensor) -> list[tuple]:
    """The records (i1, ..., im, value), 1-based, that `from_entries` builds
    T from, in lexicographic index order: one per nonzero packed sum P[i, u],
    at (i, the sorted trailing multi-index of u), so a COO tensor and its
    dense copy give the same records.  Read back, they give T's packed
    matrix bit for bit, each sum being one entry."""
    if isinstance(T, SparseTensor):
        idx, vals = T.idx, T.vals
    else:
        cols = _packing(T.dim, T.order).cols
        lex = np.lexsort(cols[::-1])  # the columns in lexicographic order of their index
        P = T.packed[:, lex]
        row, k = np.nonzero(P)
        idx, vals = np.column_stack((row, *(c[lex[k]] for c in cols))), P[row, k]
    # One tuple per entry, built column-wise.
    return list(zip(*(idx + 1).T.tolist(), vals.tolist()))


def packed_sums(T: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T's packed sums as (vals, major, starts) in either storage: vals row
    by row, row i from vals[starts[i]], and major marks the sums at
    (i, j, ..., j).  A dense T gives its packed matrix, zeros included, a
    COO T its stored sums, so both give the same nonzero sums in every row."""
    if isinstance(T, DenseTensor):
        major = np.zeros(T.packed.shape[1], dtype=bool)
        major[_packing(T.dim, T.order).major] = True
        return T.packed.ravel(), np.tile(major, T.dim), np.arange(T.dim) * major.size
    return T.vals, _major_mask(T), np.searchsorted(T.cols[0], np.arange(T.dim))


class _Layout(NamedTuple):
    """The packed layout of an order-m, dimension-n tensor (`_packing`)."""

    cols: tuple[np.ndarray, ...]
    column: np.ndarray
    count: np.ndarray
    major: np.ndarray
    pairs: np.ndarray | None
    size: int


@functools.lru_cache(maxsize=16)
def _packing(n: int, m: int) -> _Layout:
    """The packed layout of an order-m, dimension-n tensor: its `size`
    columns stand for the sorted trailing multi-indices
    cols[0][u] <= ... <= cols[m-2][u], most orderings first, then by index.
    Packing adds the entry at trailing multi-index j (a column of the
    n x n^{m-1} reshape) into column[j], in increasing j from 0.0, with one
    np.bincount, the same bits from an array or from COO entries.  count[u]
    is the number of orderings of column u.  major[j] is the column of
    (j, ..., j), so the diagonal and M are entries of P; pairs[u] =
    cols[0][u] * n + cols[1][u] (m >= 3) indexes the flattened x x^T.
    column stays writeable: np.bincount copies a read-only index."""
    shape = (n,) * (m - 1)
    # The position j of each trailing multi-index's sorted copy.
    key = np.ravel_multi_index(np.sort(np.indices(shape, np.int32).reshape(m - 1, -1), axis=0), shape)
    key, column, count = np.unique(key, return_inverse=True, return_counts=True)
    by_count = np.argsort(-count, kind="stable")
    rank = np.empty_like(by_count)
    rank[by_count] = np.arange(by_count.size)
    cols = tuple(np.ascontiguousarray(c) for c in np.unravel_index(key[by_count], shape))
    column = rank[column.reshape(-1)]
    layout = _Layout(cols, column, count[by_count], column.reshape(shape)[(np.arange(n),) * (m - 1)],
                     cols[0] * n + cols[1] if m > 2 else None, key.size)
    for a in (*cols, layout.count, layout.major, layout.pairs):
        if a is not None:
            a.flags.writeable = False
    return layout


def magnitudes(T: Tensor) -> np.ndarray:
    """|v| for the packed sums v that T x^{m-1} is computed from: a COO
    tensor's `vals`, a dense one's packed matrix.  Passed to `_contract` as
    `values` with |x| for x, they give |T| |x|^{m-1} on a Z-tensor, whose
    sums each add entries of one sign, and never more on any tensor."""
    return np.abs(T.vals if isinstance(T, SparseTensor) else T.packed)


# A run whose packed matrix has SPLIT_BYTES < nbytes <= 2 * SPLIT_BYTES
# contracts on two threads (`_row_split`) when 2 CPUs are usable: P then
# outgrows one core's 2 MiB L2 and streams from L3, but fits in the L2 of
# two.  OpenBLAS threads a gemv itself from 460,800 entries (P1 from n = 41).
# Median us of T x^{m-1} on P1 (m = 4) at seed 3 over 8 alternated processes
# of 2000 contractions each, every product `A @ z` against this rule, on a
# 2-core x86-64 VM with OpenBLAS 0.3.31:
#   n              30    35    40    41    45    50
#   P (MiB)      1.14  2.07  3.50  3.86  5.57  8.43
#   split          no   yes   yes   yes    no    no
#   A @ z          63   137   213   170   274   310
#   this rule      60   130   176   208   258   316
# Unsplit columns run the same code, so they show the noise.  At n = 41 the
# split is slower than OpenBLAS's own two threads, whose split at row 21
# gives other bits on two CPUs than on one; the split keeps the bits.
# Packing a dense tensor's rows and `symmetrize` make no BLAS call, so they
# split from SPLIT_BYTES up, with no upper bound (`_by_rows`).  Median ms on
# P1 over 40 alternated calls, one thread against two, on the same VM:
#   n                     40           60
#   draw and packing   19.7 / 12.8  95.7 / 55.3
#   symmetrize          8.7 / 7.2   48.3 / 32.4
SPLIT_BYTES = 2 << 20


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_split(T: Tensor) -> "_RowSplit | None":
    """The split for a run's contractions of T (`_contract`): a
    `_RowSplit`, which starts a worker thread, when T is dense, its packed
    matrix is in the window of SPLIT_BYTES and 2 CPUs are usable; else
    None, and each product is `A @ z`.  The caller closes a `_RowSplit`."""
    if (isinstance(T, DenseTensor) and SPLIT_BYTES < T.packed.nbytes <= 2 * SPLIT_BYTES
            and _usable_cpus() >= 2):
        return _RowSplit(T.dim)
    return None


def _by_rows(job, P: np.ndarray) -> list:
    """The results of job(lo, hi), a row loop over the rows lo <= i < hi of
    P that builds them, in row order: from a `_RowSplit`, started and
    joined here, when P is past SPLIT_BYTES and 2 CPUs are usable, else
    [job(0, n)] on the calling thread alone.  A loop that makes no BLAS
    call has no upper bound to its split (see SPLIT_BYTES)."""
    if P.nbytes <= SPLIT_BYTES or _usable_cpus() < 2:
        return [job(0, P.shape[0])]
    split = _RowSplit(P.shape[0])
    try:
        return split(job)
    finally:
        split.close()


class _RowSplit:
    """The one worker for a dense row loop over n rows, on two threads:
    split(job) calls job(h, n) on a worker thread while the caller calls
    job(0, h), h the multiple of 4 nearest n/2, and returns both results
    in row order.  A job writes rows [lo, hi) of its output alone, and
    releases the GIL where it can (np.dot, np.bincount, Philox draws), so
    the halves overlap.  A dense product is one job: np.dot of each half
    into its slice of one vector, where numpy's matmul keeps the GIL for a
    2-D x 1-D product.  OpenBLAS computes a gemv's rows in blocks of 4, so
    a split at a multiple of 4 gives each row the bits of the one-thread
    `A @ z`.  The worker runs each job under the caller's np.errstate, so
    it warns or raises as the caller would.  When a half raises, split
    raises the caller's exception, else the worker's: that of the lowest
    failing rows, as a one-thread loop would.  It holds only its two
    queues, not its owner; close() ends and joins the worker."""

    def __init__(self, n: int):
        import queue  # here, not at module level: only a split run needs it and its two extension modules

        self.h = 4 * round(n / 8)
        self._jobs, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._worker = threading.Thread(target=_lower_rows, args=(self._jobs, self._done, self.h, n),
                                        name="mteq-rows", daemon=True)
        self._worker.start()

    def __call__(self, job) -> list:
        self._jobs.put((job, np.geterr()))
        try:
            upper = job(0, self.h)
        finally:
            error, lower = self._done.get()  # also when the caller's half raised, so no answer is left over
        if error is not None:
            raise error
        return [upper, lower]

    def close(self) -> None:
        self._jobs.put(None)
        self._worker.join()


def _lower_rows(jobs, done, h: int, n: int) -> None:
    """A `_RowSplit`'s worker: job(h, n) for each (job, err) from the queue
    `jobs` until None, under the caller's numpy error state err, set only
    when it differs from the last job's.  Each job is answered on the
    queue `done` with (None, its result) or (the exception raised, None)."""
    state = None
    for job, err in iter(jobs.get, None):
        if err != state:
            np.seterr(**err)
            state = err
        try:
            result = job(h, n)
        except Exception as error:  # handed to the caller, which waits on done
            done.put((error, None))
        else:
            done.put((None, result))


def _contract(T: Tensor, x: np.ndarray, values: np.ndarray | None = None,
              split: "_RowSplit | None" = None) -> np.ndarray:
    """T x^{m-1}, the one contraction, with one kernel per storage.

    COO sums over the stored sums: it gathers x through the contiguous
    index column `cols[k]` of each trailing mode k, multiplies `vals` by
    the gathered factors in mode order and bins the products by row
    (`_rows`, which np.bincount takes without a copy).
    Dense is one matrix-vector product with the packed matrix `T.packed`,
    n x C(n+m-2, m-1), against the products z of x over its sorted
    trailing multi-indices; T x^{m-1} depends on T only through those sums.
    For m >= 3 the first two factors of z are gathered from the n^2 outer
    product x x^T, and the later ones multiplied in mode order as for COO:
    each entry is the same IEEE product as gathering every factor.  For
    m = 2, z is x.  x must already be a float64 vector of length n; it is
    not checked here, so that solve() can contract its own iterates
    without the check.  `values` stands in for T.vals or T.packed (see
    `magnitudes`).  `split` is the run's `_row_split(T)`: with one, the
    matrix-vector product is computed on two threads, with the bits of
    `A @ z`; without one it is `A @ z`.
    """
    if isinstance(T, SparseTensor):
        w = T.vals if values is None else values
        for c in T.cols[1:]:
            w = w * x[c]
        return np.bincount(T._rows, weights=w, minlength=T.dim)
    z = x
    if T.order > 2:
        layout = _packing(T.dim, T.order)
        z = np.outer(x, x).ravel()[layout.pairs]
        for c in layout.cols[2:]:
            z = z * x[c]
    A = T.packed if values is None else values
    if split is None:
        return A @ z
    y = np.empty(T.dim)
    split(lambda lo, hi: np.dot(A[lo:hi], z, out=y[lo:hi]))
    return y


def contract_full(T: Tensor, x) -> np.ndarray:
    """The vector T x^{m-1}: entry i is the sum over trailing multi-indices
    of T(i, i2, ..., im) * x_{i2} ... x_{im}."""
    return _contract(T, _as_vector(x, T.dim))


def residual(T: Tensor, b, x) -> np.ndarray:
    """F(x) = T x^{m-1} - b."""
    b = _as_vector(b, T.dim)
    return contract_full(T, x) - b


def elementwise_root(v, m: int) -> np.ndarray:
    """x = v^[1/(m-1)], clamping rounding-scale negatives to zero.

    Raises NegativePowerRHS if any entry is below -ROOT_CLAMP_TOL.  The
    clamp runs only when some entry is negative; -0.0 is not, and its root
    is +0.0 either way.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size:
        vmin = np.minimum.reduce(v, axis=None)  # v.min() without ndarray's Python wrapper
        if vmin < 0.0:
            if vmin < -ROOT_CLAMP_TOL:
                raise NegativePowerRHS(f"cannot take a real (m-1)-th root: min entry {vmin:.3e}")
            v = np.where(v < 0.0, 0.0, v)
    return v ** (1.0 / (m - 1))


def _major_mask(T: SparseTensor) -> np.ndarray:
    """Which stored sums sit at (i, j, ..., j): their trailing index is sorted."""
    return T.cols[1] == T.cols[-1]


def _diagonal_mask(T: SparseTensor) -> np.ndarray:
    """Which stored sums sit on the main diagonal (i, i, ..., i)."""
    return np.all(T.idx == T.idx[:, :1], axis=1)


def diagonal(T: Tensor) -> np.ndarray:
    """The entries T(i, i, ..., i)."""
    if isinstance(T, SparseTensor):
        on = _diagonal_mask(T)
        d = np.zeros(T.dim)
        d[T.idx[on, 0]] = T.vals[on]
        return d
    return T.packed[np.arange(T.dim), _packing(T.dim, T.order).major]


def identity_minus(T: Tensor, s: float) -> Tensor:
    """s*I - T, in the storage of T.  The dense result is 0.0 - T.packed
    with s added on the diagonal, so a zero entry of T gives +0.0; negation
    is exact, so it is the packed matrix of s*I - T bit for bit."""
    if isinstance(T, SparseTensor):
        off = ~_diagonal_mask(T)
        diag = np.repeat(np.arange(T.dim)[:, None], T.order, axis=1)
        idx = np.concatenate([T.idx[off], diag])
        return SparseTensor(T.order, T.dim, idx, np.concatenate([-T.vals[off], s - diagonal(T)]))
    packed = np.subtract(0.0, T.packed)
    packed[np.arange(T.dim), _packing(T.dim, T.order).major] += s
    return _of_packed(T.order, packed, _max_abs(packed))


def symmetrize(T: DenseTensor) -> DenseTensor:
    """The mean of T over all m! orders of its m indices, computed from
    T's packed matrix P at its n * C(n+m-2, m-1) positions alone.

    Let R = P / count (`_packing`), the mean of T(i, ...) over the
    orderings of each column's trailing index, and write w = (i, u_1, ...,
    u_{m-1}) for row i and the sorted trailing index of column u.  Then
    the packed matrix of the mean is

        P_sym[i, u] = (count[u] / m) * sum_{q=0}^{m-1} R[w_q, col(w without w_q)],

    where col is the packed column of an unsorted trailing index; the q = 0
    term is R[i, u].  Proof: group the m! orders of w by the position q
    they put first.  The (m-1)! orders of the other m-1 positions give
    each distinct ordering of their indices (m-1)!/count[c] times, c being
    the column of w without w_q, so the group sums to (m-1)! R[w_q, c] and
    the mean at w is the sum over q divided by m.  Every ordering of (i, u)
    has that mean, and P_sym[i, u] sums count[u] of them.  The terms are
    added in increasing q and then scaled, so the result is P_sym up to a
    few roundings per entry, not the bits of a sum over n^m arrays.

    P_sym is built one row at a time, each row from R alone, so the rows
    are independent, and the loop is `_by_rows`'s: on two threads for a P
    past SPLIT_BYTES, with the same bits.  Beside P, R and P_sym each
    thread holds a few vectors of one row's length, so the peak is about 3
    packed matrices.
    """
    n, m = T.dim, T.order
    layout = _packing(n, m)
    R = T.packed / layout.count
    # rest[q] is u without u_{q+1} of each column u, flattened, for the
    # term that puts w_{q+1} first; behind row i it is a trailing
    # multi-index, whose packed column is column.reshape(n, -1)[i, rest[q]].
    # The term is gathered from R's flat copy, at lead[q] = w_{q+1} * size
    # plus that column: one np.take, much faster than R[w_{q+1}, column].
    rest, lead = [], []
    for q in range(m - 1):
        flat = 0
        for k, c in enumerate(layout.cols):
            if k != q:
                flat = flat * n + c
        rest.append(np.broadcast_to(flat, (layout.size,)))
        lead.append(layout.cols[q] * layout.size)
    out, scale, columns = np.empty_like(R), layout.count / m, layout.column.reshape(n, -1)

    def mean(lo: int, hi: int) -> float:
        for i in range(lo, hi):
            row, column = out[i], columns[i]
            row[:] = R[i]
            for flat, start in zip(rest, lead):
                index = column.take(flat)
                index += start
                row += R.take(index)
            row *= scale
        return _max_abs(out[lo:hi])

    return _of_packed(m, out, max(_by_rows(mean, out)))


def row_sums(T: Tensor) -> np.ndarray:
    """Entry i is the sum of T(i, i2, ..., im) over all trailing indices.

    Each row of packed sums is summed with math.fsum (correctly rounded),
    so the result depends neither on the order of the entries nor on the
    storage.
    """
    vals, _, starts = packed_sums(T)
    return np.array([math.fsum(row.tolist()) for row in np.split(vals, starts[1:])])


def majorization(T: Tensor) -> np.ndarray:
    """The majorization matrix M with M[i, j] = T(i, j, j, ..., j), as a
    read-only C-contiguous float64 n x n array: M @ x rounds differently
    in Fortran order.  For a dense T it is the columns of (j, ..., j) of
    its packed matrix.
    """
    if isinstance(T, SparseTensor):
        major = _major_mask(T)
        M = np.zeros((T.dim, T.dim))
        M[T.idx[major, 0], T.idx[major, 1]] = T.vals[major]
    else:
        M = np.take(T.packed, _packing(T.dim, T.order).major, axis=1)
    M.flags.writeable = False
    return M


def _majorization_unless_diagonal(T: Tensor) -> np.ndarray | None:
    """None when T has no nonzero (i, j, ..., j) entry with j != i, so that
    M is diag(diagonal(T)), else M = majorization(T), built once; a COO T
    is judged from its stored sums, with no M."""
    if isinstance(T, SparseTensor):
        return majorization(T) if np.any(T.vals[_major_mask(T) & (T.cols[0] != T.cols[1])]) else None
    M = majorization(T)
    return None if np.count_nonzero(M) == np.count_nonzero(M.diagonal()) else M


def has_offmajor(T: Tensor) -> bool:
    """Whether T has a nonzero packed sum outside the (i, j, ..., j)
    positions (`packed_sums`), without a copy of T."""
    vals, major, _ = packed_sums(T)
    return bool(np.count_nonzero(vals) != np.count_nonzero(vals[major]))


def system_scale(T: Tensor, b) -> float:
    """The joint largest absolute entry of tensor and right side.  The
    tensor's part is `T.max_abs`, which its constructor computed, so no
    call reads the tensor's entries."""
    w = max(T.max_abs, np.abs(_as_vector(b, T.dim)).max())
    if w == 0.0:
        raise ValueError("cannot scale an identically zero system")
    return float(w)


def scale_system(T: Tensor, b) -> ScaledSystem:
    """The system divided through by w = system_scale(T, b), a copy: the
    reference that solve()'s residuals F / w are checked against."""
    w = system_scale(T, b)
    scaled = (object.__new__(SparseTensor)._keep(T.order, T.dim, T.idx.copy("F"), T.vals / w, T.max_abs / w)
              if isinstance(T, SparseTensor) else _of_packed(T.order, T.packed / w, T.max_abs / w))
    return ScaledSystem(scaled, _as_vector(b, T.dim) / w, w)
