"""Seeded generators for the benchmark problems and exact fixture systems.

Randomness uses the counter-based Philox generator keyed by
(problem code, n, seed); entries are drawn in a fixed documented order
(tensor values first, then the right side), so repeated calls agree
bit-for-bit.  A dense generator makes its tensor one row slab
B(i, ...) of n^3 entries at a time, drawn or from its formula, and packs
each as it comes (`tensor_core._of_rows`), so no n^4 array is ever built;
P1's symmetrization and s*I - B are computed on packed matrices
(`tensor_core.symmetrize`, `identity_minus`).  A generator makes any range
of rows on request: a formula's from the row index, a draw's from the
Philox stream advanced to the range's first row (`_draws`), since Philox
is counter-based (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC 2011).  So the packing, and P1's symmetrization, run on two
threads for a large tensor where 2 CPUs are usable, with the bits of one
(`tensor_core._by_rows`), and every thread is joined before the generator
returns or raises.  P3 is made as its packed records, none grouped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import SparseTensor, Tensor, _of_rows, cheaper_storage, identity_minus, symmetrize

GRAVITATIONAL_CONSTANT = 6.67e-11
EARTH_MASS = 5.98e24
BOUNDARY_VALUE = 6.37e6  # both endpoint conditions of the gravitation problem

_PROBLEM_CODES = {"P1": 1, "P2": 2, "P3": 3, "P4": 4}


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    tensor: Tensor
    rhs: np.ndarray
    problem: str
    n: int
    seed: int | None = None
    known_solutions: tuple = field(default_factory=tuple)


def _rng(problem: str, n: int, seed: int, start: int = 0) -> np.random.Generator:
    """The Philox stream of (problem, n, seed) after its first `start`
    doubles.  A double takes one 64-bit output, and Philox makes them in
    blocks of 4 from a counter, so the stream is advanced start // 4
    blocks and start % 4 doubles are drawn: the state that drawing `start`
    doubles leaves, bit for bit."""
    code = _PROBLEM_CODES[problem]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([code, n, seed])))
    if start:
        rng.bit_generator.advance(start // 4)
        rng.random(start % 4)
    return rng


def _draws(problem: str, n: int, seed: int, lo: int, hi: int):
    """The rows B(i, ...), lo <= i < hi, of the n^4 uniform(0,1) draw of
    (problem, n, seed), each into one n^3 buffer that the packer bins before
    it asks for the next, from the stream at row lo (`_rng`).  Doubles come
    in sequence, so any row range gives the rows of rng.random((n,) * 4)
    bit for bit, as do the draws after the tensor, `_rng(..., n**4)`."""
    rng, row = _rng(problem, n, seed, lo * n**3), np.empty((n,) * 3)
    for _ in range(lo, hi):
        yield rng.random(out=row)


def gen_problem1(n: int, seed: int) -> ProblemInstance:
    """Fourth-order symmetric strong M-tensor with uniform(0,1) entries."""
    if n < 2:
        raise ValueError("problem 1 requires n >= 2")
    # i.i.d. uniform(0,1) draws averaged over all index permutations.
    # Averaging concentrates the row sums, which is what makes these
    # instances hard at alpha = 1 and makes over-relaxation pay off.
    B = symmetrize(_of_rows(4, n, lambda lo, hi: _draws("P1", n, seed, lo, hi)))
    rhs = _rng("P1", n, seed, n**4).random(n)
    return ProblemInstance(identity_minus(B, 1.01 * B.packed.sum(axis=1).max()), rhs, "P1", n, seed)


def gen_problem2(n: int) -> ProblemInstance:
    """Deterministic tensor b_{i1..i4} = |sin(i1+i2+i3+i4)| with s = n^3.

    The right side is uniform(0,1) from the fixed documented seed 0.
    """
    if n < 2:
        raise ValueError("problem 2 requires n >= 2")
    # The index sums are integers below 2^53, exact in float64, in any
    # order: row i1 is i1 plus the sums of the trailing indices.
    i = np.arange(1, n + 1, dtype=np.float64)
    trailing = i[:, None, None] + i[:, None] + i
    B = _of_rows(4, n, lambda lo, hi: (np.abs(np.sin(i1 + trailing)) for i1 in i[lo:hi]))
    tensor = identity_minus(B, float(n) ** 3)
    rhs = _rng("P2", n, 0).random(n)
    return ProblemInstance(tensor, rhs, "P2", n, seed=0)


def gen_problem3(n: int) -> ProblemInstance:
    """Discretized boundary-value problem for motion under gravity.

    Row i couples x_i to each grid neighbor through -1/3 entries at three
    mixed index positions, made as their packed sum -1, which is what
    grouping gives exactly, ((0 - 1/3) - 1/3) - 1/3; so the constructor
    groups none of the 3n - 4 records.  The boundary rows pin x_1 and x_n
    to 6.37e6.  COO from n = 6, as its file is read (`cheaper_storage`).
    """
    if n < 3:
        raise ValueError("problem 3 requires n >= 3")
    rows = np.r_[0, np.repeat(np.arange(1, n - 1), 3), n - 1]
    idx = np.repeat(rows[:, None], 4, axis=1)  # (i, i, i, i) for each record of row i
    idx[1:-1:3, 1] -= 1  # (i, i-1, i, i)
    idx[3:-1:3, 3] += 1  # (i, i, i, i+1)
    vals = np.r_[1.0, np.tile([-1.0, 2.0, -1.0], n - 2), 1.0]
    tensor = cheaper_storage(SparseTensor(4, n, idx, vals))
    rhs = np.full(n, GRAVITATIONAL_CONSTANT * EARTH_MASS / (n - 1) ** 2)
    rhs[[0, -1]] = BOUNDARY_VALUE**3
    return ProblemInstance(tensor, rhs, "P3", n)


def gen_problem4(n: int, seed: int) -> ProblemInstance:
    """Like problem 1 but with i.i.d. entries and no symmetry."""
    if n < 2:
        raise ValueError("problem 4 requires n >= 2")
    sums = np.empty(n)  # each row's sum as drawn, the bits of B.reshape(n, -1).sum(axis=1)

    def rows(lo, hi):
        for i, row in enumerate(_draws("P4", n, seed, lo, hi), lo):
            sums[i] = row.sum()
            yield row

    B = _of_rows(4, n, rows)
    rhs = _rng("P4", n, seed, n**4).random(n)
    return ProblemInstance(identity_minus(B, 1.01 * sums.max()), rhs, "P4", n, seed)


# The exact fixture systems: id -> (order, dim, entries [i1, ..., im, value]
# (1-based, unlisted positions zero), right side, known nonnegative solutions).
_FIXTURES = {
    # A 3rd-order quadratic system that is not a Z-tensor.
    "ex11": (3, 3,
             [[1, 1, 1, 1.0], [2, 2, 2, 1.0], [3, 3, 3, 1.0],
              [2, 1, 1, 1.0], [3, 2, 2, 1.0], [3, 1, 1, -1.0]],
             [1.0, 1.0, -1.0], ([1.0, 0.0, 0.0],)),
    # A 4th-order strong M-tensor with two nonnegative solutions.
    "ex21": (4, 2,
             [[1, 1, 1, 1, 3.0], [2, 2, 2, 2, 3.0], [1, 1, 2, 2, -1.5], [1, 2, 2, 2, -0.5]],
             [-7.0, 24.0], ([1.0, 2.0], [(math.sqrt(5.0) - 1.0) / 2.0, 2.0])),
    # A 3rd-order strong M-tensor with two nonnegative solutions.
    "ex22": (3, 2,
             [[1, 1, 1, 1.0], [2, 2, 2, 1.0], [1, 1, 2, -1.5], [1, 2, 2, -1.0]],
             [-6.0, 4.0], ([1.0, 2.0], [2.0, 2.0])),
}


def fixture(fixture_id: str) -> ProblemInstance:
    """An exact small system with known nonnegative solutions, from
    `_FIXTURES`: 'ex11', 'ex21' or 'ex22'.  It is read and stored as a
    tensor file is, by SparseTensor.from_entries and `cheaper_storage`."""
    fid = fixture_id.lower()
    if fid not in _FIXTURES:
        raise ValueError(f"unknown fixture id {fixture_id!r}")
    order, dim, entries, rhs, known = _FIXTURES[fid]
    tensor = cheaper_storage(SparseTensor.from_entries(order, dim, entries))
    return ProblemInstance(tensor, np.array(rhs), fid.capitalize(), dim,
                           known_solutions=tuple(map(np.array, known)))


# Problem id -> generator of (n, seed); P2 and P3 take no seed.
_GENERATORS = {"1": gen_problem1, "2": lambda n, seed: gen_problem2(n),
               "3": lambda n, seed: gen_problem3(n), "4": gen_problem4}


def _problem_key(problem: str) -> str:
    """A problem id as one spelling: '1'-'4' for 'P1'-'P4', else a fixture name."""
    key = str(problem).lower()
    key = key[1:] if key[:1] == "p" and key[1:] in _GENERATORS else key
    if key not in _GENERATORS and key not in _FIXTURES:
        raise ValueError(f"unknown problem id {problem!r}")
    return key


def generate(problem: str, n: int, seed: int = 0) -> ProblemInstance:
    """Dispatch by problem id: '1'-'4', 'P1'-'P4' or a fixture name."""
    key = _problem_key(problem)
    return fixture(key) if key in _FIXTURES else _GENERATORS[key](n, seed)
