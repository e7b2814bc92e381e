"""The public surface of the package, pinned: adding or removing a name or a
SolveConfig option changes these lists, so it shows up as a reviewed diff."""

import dataclasses
import types

import mteq

PUBLIC_NAMES = [
    "DenseTensor",
    "DimensionMismatch",
    "Existence",
    "FeasibilityReport",
    "IterationTrace",
    "MTensorCertificate",
    "MteqError",
    "NegativePowerRHS",
    "NoNonnegativeSolution",
    "NotStructured",
    "NotZTensor",
    "ProblemInstance",
    "SingularMatrix",
    "SolveConfig",
    "SolveOutcome",
    "SparseTensor",
    "Status",
    "Verdict",
    "contract_full",
    "elementwise_root",
    "existence_sufficient",
    "fixture",
    "gen_problem1",
    "gen_problem2",
    "gen_problem3",
    "gen_problem4",
    "generate",
    "is_feasible_S",
    "is_z_tensor",
    "majorization",
    "mtensor_certificate",
    "residual",
    "solve",
    "solve_structured",
    "spectral_radius_estimate",
]

SOLVE_CONFIG_FIELDS = ["alpha", "eta", "max_iter", "method", "omega", "scale"]


def test_public_names():
    # submodules become attributes of the package once imported, so they
    # are left out: which of them are loaded depends on the test order
    names = [n for n, v in vars(mteq).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES


def test_solve_config_fields():
    assert sorted(f.name for f in dataclasses.fields(mteq.SolveConfig)) == SOLVE_CONFIG_FIELDS
