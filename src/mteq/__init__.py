"""Monotone iterative solvers and benchmarks for M-tensor equations."""

from .errors import (
    DimensionMismatch,
    MteqError,
    NegativePowerRHS,
    NoNonnegativeSolution,
    NotStructured,
    NotZTensor,
    SingularMatrix,
)
from .problems import (
    ProblemInstance,
    fixture,
    gen_problem1,
    gen_problem2,
    gen_problem3,
    gen_problem4,
    generate,
)
from .solvers import (
    IterationTrace,
    SolveConfig,
    SolveOutcome,
    Status,
    solve,
)
from .structure import (
    Existence,
    FeasibilityReport,
    MTensorCertificate,
    Verdict,
    existence_sufficient,
    is_feasible_S,
    is_z_tensor,
    mtensor_certificate,
    solve_structured,
    spectral_radius_estimate,
)
from .tensor_core import (
    DenseTensor,
    SparseTensor,
    contract_full,
    elementwise_root,
    majorization,
    residual,
)

__version__ = "0.1.0"
