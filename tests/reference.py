"""The tests' reference code: plain whole-array versions of what the package
computes, and the builders that only the tests need."""

import itertools

import numpy as np

from mteq import DenseTensor, SparseTensor
from mteq.tensor_core import entries


def dense_contract(A, x, keep=1):
    """A contracted with x in every mode after the first `keep`, one
    matrix-vector product per mode by reshape-matmul: T x^{m-1} for
    keep = 1, the n x n matrix T x^{m-2} for keep = 2."""
    n = len(x)
    for _ in range(A.ndim - keep):
        A = A.reshape(-1, n) @ x
    return A.reshape((n,) * keep)


def gathered_products(x, cols):
    """z_u = x[cols[0][u]] * x[cols[1][u]] * ..., one gather of x per mode,
    multiplied in mode order: the packed dense kernel's z before it built
    the first two factors from the outer product x x^T."""
    z = x[cols[0]]
    for c in cols[1:]:
        z = z * x[c]
    return z


def reference_permutation_mean(A, fixed):
    """Whole-array passes: zeros, += each transpose of the axes after the
    first `fixed` in itertools.permutations order, then divide by the count."""
    head = tuple(range(fixed))
    perms = list(itertools.permutations(range(fixed, A.ndim)))
    acc = np.zeros_like(A)
    for p in perms:
        acc += np.transpose(A, head + p)
    return acc / len(perms)


def semi_symmetrize(A):
    """The n^m array A averaged over all permutations of its trailing m-1
    indices: the same T x^{m-1} for every x, and idempotent."""
    return reference_permutation_mean(A, 1)


def jacobian(T, x):
    """The Jacobian of T x^{m-1} at x, (m-1) sym(T) x^{m-2}, where sym
    averages T over its trailing indices (`semi_symmetrize`)."""
    return (T.order - 1) * dense_contract(semi_symmetrize(dense_array(T)), x, 2)


def identity_tensor(m, n):
    """The tensor with ones on the main diagonal (i, i, ..., i) and zeros elsewhere."""
    return diagonal_tensor(m, np.ones(n))


def diagonal_tensor(m, d):
    """The order-m tensor with d on the main diagonal (i, i, ..., i) and zeros elsewhere."""
    return DenseTensor(diagonal_array(m, d))


def diagonal_array(m, d):
    """The n^m array of `diagonal_tensor`."""
    arr = np.zeros((len(d),) * m)
    arr[(np.arange(len(d)),) * m] = d
    return arr


def coo(arr):
    """The dense array arr as a SparseTensor of its nonzeros."""
    nonzero = arr != 0.0
    return SparseTensor(arr.ndim, arr.shape[0], np.argwhere(nonzero), arr[nonzero])


def dense_array(T):
    """The n^m array of T's records (`entries`), the same in either
    storage: each nonzero packed sum at its sorted trailing multi-index.
    It has T's packed matrix, and so T's T x^{m-1}; a dense tensor keeps no
    array of its own."""
    if isinstance(T, DenseTensor):
        T = SparseTensor.from_entries(T.order, T.dim, entries(T))
    arr = np.zeros((T.dim,) * T.order)
    arr[tuple(T.idx.T)] = T.vals
    return arr


def forbid_n_by_n_zeros(monkeypatch, n):
    """Make np.zeros fail for any array of n^2 entries or more."""
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        if np.prod(shape) >= n**2:
            raise AssertionError("an n x n array was built")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)


def packed_records(idx, vals):
    """The nonzero packed sums of COO entries (idx, vals), plainly: each
    entry, in lexicographic index order, added from 0.0 into the sum at its
    row and sorted trailing multi-index; as ((row, *trailing), sum) pairs
    in lexicographic order."""
    sums = {}
    for k in sorted(range(len(vals)), key=lambda k: tuple(idx[k])):
        key = (int(idx[k][0]), *sorted(int(i) for i in idx[k][1:]))
        sums[key] = sums.get(key, 0.0) + float(vals[k])
    return sorted((key, v) for key, v in sums.items() if v != 0.0)
