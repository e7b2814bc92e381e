"""Seeded generators for the benchmark problems and exact fixture systems.

Randomness uses the counter-based Philox generator keyed by
(problem code, n, seed); entries are drawn in a fixed documented order
(tensor values first, then the right side), so repeated calls agree
bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import DenseTensor, SparseTensor, Tensor, identity_tensor

GRAVITATIONAL_CONSTANT = 6.67e-11
EARTH_MASS = 5.98e24
BOUNDARY_VALUE = 6.37e6  # both endpoint conditions of the gravitation problem

_PROBLEM_CODES = {"P1": 1, "P2": 2, "P3": 3, "P4": 4}


@dataclass(frozen=True)
class ProblemInstance:
    tensor: Tensor
    rhs: np.ndarray
    problem: str
    n: int
    seed: int | None = None
    known_solutions: tuple = field(default_factory=tuple)


def _rng(problem: str, n: int, seed: int) -> np.random.Generator:
    code = _PROBLEM_CODES[problem]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([code, n, seed])))


def _symmetric_uniform_tensor(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric tensor: i.i.d. uniform(0,1) draws averaged over all index
    permutations.

    Averaging concentrates the row sums, which is what makes these
    instances hard at alpha = 1 and makes over-relaxation pay off.
    """
    A = rng.random((n,) * m)
    B = np.zeros_like(A)
    perms = list(itertools.permutations(range(m)))
    for p in perms:
        B += np.transpose(A, p)
    return B / len(perms)


def _shifted_identity_minus(B: np.ndarray, margin: float = 0.01) -> tuple[DenseTensor, float]:
    """s*I - B with s = (1 + margin) * max row sum of B; a strong M-tensor."""
    n = B.shape[0]
    m = B.ndim
    row_sums = B.reshape(n, -1).sum(axis=1)
    s = (1.0 + margin) * row_sums.max()
    arr = -B.copy()
    i = np.arange(n)
    arr[(i,) * m] += s
    return DenseTensor(arr), float(s)


def gen_problem1(n: int, seed: int) -> ProblemInstance:
    """Fourth-order symmetric strong M-tensor with uniform(0,1) entries."""
    if n < 2:
        raise ValueError("problem 1 requires n >= 2")
    rng = _rng("P1", n, seed)
    B = _symmetric_uniform_tensor(n, 4, rng)
    tensor, _ = _shifted_identity_minus(B)
    rhs = rng.random(n)
    return ProblemInstance(tensor, rhs, "P1", n, seed)


def gen_problem2(n: int) -> ProblemInstance:
    """Deterministic tensor b_{i1..i4} = |sin(i1+i2+i3+i4)| with s = n^3.

    The right side is uniform(0,1) from the fixed documented seed 0.
    """
    if n < 2:
        raise ValueError("problem 2 requires n >= 2")
    i = np.arange(1, n + 1)
    sums = (
        i[:, None, None, None]
        + i[None, :, None, None]
        + i[None, None, :, None]
        + i[None, None, None, :]
    )
    B = np.abs(np.sin(sums))
    s = float(n) ** 3
    arr = s * identity_tensor(4, n).array - B
    rhs = _rng("P2", n, 0).random(n)
    return ProblemInstance(DenseTensor(arr), rhs, "P2", n, seed=0)


def gen_problem3(n: int) -> ProblemInstance:
    """Discretized boundary-value problem for motion under gravity.

    Row i couples x_i to its grid neighbors through -1/3 entries at mixed
    index positions; the boundary rows pin x_1 and x_n to 6.37e6.  With at
    most 7 nonzeros per row the tensor is built in COO storage.
    """
    if n < 3:
        raise ValueError("problem 3 requires n >= 3")
    interior = np.arange(1, n - 1)
    idx = [np.repeat(np.arange(n)[:, None], 4, axis=1)]
    vals = [np.r_[1.0, np.full(n - 2, 2.0), 1.0]]
    for j in (interior - 1, interior + 1):
        for pos in (1, 2, 3):
            block = np.repeat(interior[:, None], 4, axis=1)
            block[:, pos] = j
            idx.append(block)
            vals.append(np.full(n - 2, -1.0 / 3.0))
    tensor = SparseTensor(4, n, np.concatenate(idx), np.concatenate(vals))
    rhs = np.full(n, GRAVITATIONAL_CONSTANT * EARTH_MASS / (n - 1) ** 2)
    rhs[0] = BOUNDARY_VALUE**3
    rhs[n - 1] = BOUNDARY_VALUE**3
    return ProblemInstance(tensor, rhs, "P3", n)


def gen_problem4(n: int, seed: int) -> ProblemInstance:
    """Like problem 1 but with i.i.d. entries and no symmetry."""
    if n < 2:
        raise ValueError("problem 4 requires n >= 2")
    rng = _rng("P4", n, seed)
    B = rng.random((n,) * 4)
    tensor, _ = _shifted_identity_minus(B)
    rhs = rng.random(n)
    return ProblemInstance(tensor, rhs, "P4", n, seed)


def fixture(fixture_id: str) -> ProblemInstance:
    """Exact small systems with known nonnegative solutions.

    ex11: a 3rd-order quadratic system that is not a Z-tensor.
    ex21: 4th-order strong M-tensor with two nonnegative solutions.
    ex22: 3rd-order strong M-tensor with two nonnegative solutions.
    """
    fid = fixture_id.lower()
    if fid == "ex11":
        tensor = DenseTensor.from_entries(
            3,
            3,
            [
                [1, 1, 1, 1.0],
                [2, 2, 2, 1.0],
                [3, 3, 3, 1.0],
                [2, 1, 1, 1.0],
                [3, 2, 2, 1.0],
                [3, 1, 1, -1.0],
            ],
        )
        return ProblemInstance(
            tensor,
            np.array([1.0, 1.0, -1.0]),
            "Ex11",
            3,
            known_solutions=(np.array([1.0, 0.0, 0.0]),),
        )
    if fid == "ex21":
        tensor = DenseTensor.from_entries(
            4,
            2,
            [
                [1, 1, 1, 1, 3.0],
                [2, 2, 2, 2, 3.0],
                [1, 1, 2, 2, -1.5],
                [1, 2, 2, 2, -0.5],
            ],
        )
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        return ProblemInstance(
            tensor,
            np.array([-7.0, 24.0]),
            "Ex21",
            2,
            known_solutions=(np.array([1.0, 2.0]), np.array([golden, 2.0])),
        )
    if fid == "ex22":
        tensor = DenseTensor.from_entries(
            3,
            2,
            [
                [1, 1, 1, 1.0],
                [2, 2, 2, 1.0],
                [1, 1, 2, -1.5],
                [1, 2, 2, -1.0],
            ],
        )
        return ProblemInstance(
            tensor,
            np.array([-6.0, 4.0]),
            "Ex22",
            2,
            known_solutions=(np.array([1.0, 2.0]), np.array([2.0, 2.0])),
        )
    raise ValueError(f"unknown fixture id {fixture_id!r}")


def generate(problem: str, n: int, seed: int = 0) -> ProblemInstance:
    """Dispatch by problem id: '1'-'4' or a fixture name."""
    key = str(problem).lower()
    if key in ("1", "p1"):
        return gen_problem1(n, seed)
    if key in ("2", "p2"):
        return gen_problem2(n)
    if key in ("3", "p3"):
        return gen_problem3(n)
    if key in ("4", "p4"):
        return gen_problem4(n, seed)
    if key in ("ex11", "ex21", "ex22"):
        return fixture(key)
    raise ValueError(f"unknown problem id {problem!r}")
