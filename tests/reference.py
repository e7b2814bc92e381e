"""The tests' reference contractions."""


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
