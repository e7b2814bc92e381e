"""Exception types shared across the package."""


class MteqError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MteqError, ValueError):
    """Tensor/vector shapes are inconsistent."""


class NegativePowerRHS(MteqError, ValueError):
    """An (m-1)-th root was requested of a vector with negative entries.

    Signals an infeasible start or an overshooting step length.
    """


class SingularMatrix(MteqError, ArithmeticError):
    """The majorization matrix M cannot be inverted, or its reciprocal
    condition number is below solvers.RCOND_TOL; or a diagonal M, or the
    lower splitting part of M, has a zero diagonal entry."""


class NotZTensor(MteqError, ValueError):
    """The tensor has a positive off-diagonal entry."""


class NotStructured(MteqError, ValueError):
    """The tensor has nonzero entries outside the (i, j, ..., j) positions."""


class NoNonnegativeSolution(MteqError, ValueError):
    """The structured solve produced a negative component."""
