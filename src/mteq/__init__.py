"""Monotone iterative solvers and benchmarks for M-tensor equations."""

from .dense_linalg import LuFactorization, lower_tri_solve, lu_factor, lu_solve
from .errors import (
    DimensionMismatch,
    MteqError,
    NegativePowerRHS,
    NoNonnegativeSolution,
    NotStructured,
    NotZTensor,
    SingularMatrix,
    ZeroDiagonal,
)
from .problems import (
    BOUNDARY_VALUE,
    EARTH_MASS,
    GRAVITATIONAL_CONSTANT,
    ProblemInstance,
    fixture,
    gen_problem1,
    gen_problem2,
    gen_problem3,
    gen_problem4,
    generate,
)
from .solvers import (
    EpsilonState,
    IterationTrace,
    SolveConfig,
    SolveOutcome,
    Status,
    epsilon_update,
    r_correction,
    solve,
    step_anewton,
    step_smeqm,
    step_splitting,
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
    MajorizationMatrix,
    ScaledSystem,
    SparseTensor,
    contract_full,
    contract_matrix,
    elementwise_power,
    elementwise_root,
    identity_tensor,
    majorization,
    residual,
    scale_system,
    semi_symmetrize,
    split_offmajor,
)

__version__ = "0.1.0"
