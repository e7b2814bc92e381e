"""The tests' reference contraction, over the full dense array."""


def dense_contract(A, x, keep=1):
    """A contracted with x in every mode after the first `keep`, one
    matrix-vector product per mode by reshape-matmul: T x^{m-1} for
    keep = 1, the n x n matrix T x^{m-2} for keep = 2."""
    n = len(x)
    for _ in range(A.ndim - keep):
        A = A.reshape(-1, n) @ x
    return A.reshape((n,) * keep)
