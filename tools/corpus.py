"""Equivalence corpus: solve a fixed set of systems, write one JSON line per
solve, and compare a run with an earlier one.

    PYTHONPATH=src python tools/corpus.py --out NEW.jsonl [--against BASE.jsonl]
    PYTHONPATH=src python tools/corpus.py --cross

The 1420 cases are
  - the acceptance sweep: P1 n = 10 at the 100 seeds rep_seed(0, "1", 10,
    rep), with smeqm, jacobi, gs, sor and anewton at alpha 0.5 and 1 and
    smeqm at alpha 1.9 and 2 (1200 solves);
  - P2 n = 8, P3 n = 10, 50, 100, P4 n = 3, 6 seed 0 and P4 n = 3 seed 1,
    each with the 5 methods at alpha 0.5, 1, 1.9 and 2 (140 solves);
  - ex21 and ex22 with the 5 methods at the 4 alphas, scaled and
    unscaled (80 solves).
Every solve starts from x0 = 0 with the default SolveConfig otherwise.  A
record holds the case id, the status, the iteration count, the number of
anewton fallbacks, and res2, omega and x as float.hex strings, so two runs
compare bit for bit.  The runner uses only the public API of mteq and, for
--cross, `tensor_core.entries`, so it runs on any tree that has them.

--against prints one line per changed case, each named with its kind and
the rounding-only ones with their relative move of x, and then four counts:
bit-identical cases, rounding-only ones (same status, iterations and
fallbacks; with the largest relative moves of x, over all of them and
over the Converged ones, and of res2), iteration
changes (same status; a changed fallback count counts as one), and status
changes.  The exit status is 1 if any status changed, 2 if the two runs do
not hold the same cases, else 0.

--cross solves every case also in the other storage, in the same process:
a dense tensor as the COO tensor of its packed records (`entries`: one
entry per nonzero packed sum, at its sorted trailing index), a COO tensor
as its dense copy, unless its n^m entries would take more than
DENSE_COPY_MAX_BYTES as an array (P3 n = 100 would take 800 MB), in which
case the case is skipped.  It prints one line per
pair that fails and one summary line, and exits 1 if a pair differs in
status, iterations or fallbacks, or in x by more than CROSS_X_TOL
(relative) in a run that reached Converged or ran at alpha <= 1.  The
alpha > 1 runs that do not converge oscillate, so their last iterates are
reported, not judged.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from mteq import (DenseTensor, SolveConfig, SparseTensor, fixture, gen_problem1, gen_problem2,
                  gen_problem3, gen_problem4, solve)
from mteq.cli import rep_seed
from mteq.tensor_core import entries

METHODS = ("smeqm", "jacobi", "gs", "sor", "anewton")
ALPHAS = (0.5, 1.0, 1.9, 2.0)
SWEEP = [(m, a) for m in METHODS for a in (0.5, 1.0)] + [("smeqm", 1.9), ("smeqm", 2.0)]
DENSE_COPY_MAX_BYTES = 100 * 2**20
CROSS_X_TOL = 1e-12


def cases():
    """(case id, tensor, rhs, SolveConfig) for every solve of the corpus."""
    for rep in range(100):
        seed = rep_seed(0, "1", 10, rep)
        inst = gen_problem1(10, seed)
        for method, alpha in SWEEP:
            yield f"P1/n10/s{seed}/{method}/a{alpha}", inst.tensor, inst.rhs, SolveConfig(method, alpha)
    problems = [("P2/n8", gen_problem2(8))]
    problems += [(f"P3/n{n}", gen_problem3(n)) for n in (10, 50, 100)]
    problems += [(f"P4/n{n}/s{s}", gen_problem4(n, s)) for n, s in ((3, 0), (6, 0), (3, 1))]
    for name, inst in problems:
        for method in METHODS:
            for alpha in ALPHAS:
                yield f"{name}/{method}/a{alpha}", inst.tensor, inst.rhs, SolveConfig(method, alpha)
    for name in ("ex21", "ex22"):
        inst = fixture(name)
        for method in METHODS:
            for alpha in ALPHAS:
                for scale in (True, False):
                    cfg = SolveConfig(method, alpha, scale=scale)
                    label = "scaled" if scale else "unscaled"
                    yield f"{name}/{method}/a{alpha}/{label}", inst.tensor, inst.rhs, cfg


def solve_record(case, T, b, cfg) -> dict:
    out = solve(T, b, None, cfg)
    return {
        "case": case,
        "status": out.status.value,
        "iterations": out.iterations,
        "fallbacks": sum(out.trace.eps_fallback),
        "res2": float.hex(float(out.res2)),
        "omega": float.hex(float(out.omega)),
        "x": [float.hex(float(v)) for v in out.x],
    }


def run_corpus() -> list[dict]:
    return [solve_record(*case) for case in cases()]


@functools.lru_cache(maxsize=1)  # consecutive cases share a tensor
def other_storage(T):
    """T in the other storage, or None if its n^m entries would take more
    than DENSE_COPY_MAX_BYTES as an array."""
    if isinstance(T, DenseTensor):
        return SparseTensor.from_entries(T.order, T.dim, entries(T))
    return DenseTensor.from_sparse(T) if 8 * T.dim**T.order <= DENSE_COPY_MAX_BYTES else None


def run_cross() -> tuple[list[tuple[dict, dict, float]], int]:
    """(record, record of the other storage, alpha) for every case that has
    both, and the number of cases skipped."""
    pairs, skipped = [], 0
    for case, T, b, cfg in cases():
        other = other_storage(T)
        if other is None:
            skipped += 1
        else:
            pairs.append((solve_record(case, T, b, cfg), solve_record(case, other, b, cfg), cfg.alpha))
    return pairs, skipped


def judge_cross(pairs, skipped: int) -> int:
    """Print the failing pairs and the summary line; the exit status (see
    the module docstring)."""
    failed = identical = not_judged = 0
    judged_move = other_move = 0.0
    for a, b, alpha in pairs:
        move = _relative_move(a["x"], b["x"])
        identical += a["x"] == b["x"]
        run = (a["status"], a["iterations"], a["fallbacks"])
        if run != (b["status"], b["iterations"], b["fallbacks"]):
            failed += 1
            print(f"changed {a['case']}: status, iterations, fallbacks {run} -> "
                  f"{(b['status'], b['iterations'], b['fallbacks'])}")
        elif a["status"] == "Converged" or alpha <= 1.0:
            judged_move = max(judged_move, move)
            if move > CROSS_X_TOL:
                failed += 1
                print(f"x {a['case']}: relative move {move:.3g}")
        else:
            not_judged += 1
            other_move = max(other_move, move)
    print(f"cross: {len(pairs)} pairs, {failed} failed, {identical} bit-identical in x, "
          f"largest judged x move {judged_move:.3g}; {not_judged} alpha > 1 runs not converged, "
          f"not judged (largest x move {other_move:.3g}); {skipped} skipped (dense copy too large)")
    return 1 if failed else 0


def _relative_move(base: list[str], new: list[str]) -> float:
    """max |new - base| / max |base| over hex vectors of equal length; inf
    where a NaN appears in only one of them or base is zero."""
    a = [float.fromhex(v) for v in base]
    moved = [(p, float.fromhex(q)) for p, q, h in zip(a, new, base) if q != h]
    if not moved:
        return 0.0
    if any(math.isnan(p) or math.isnan(q) for p, q in moved):
        return math.inf
    size = max(abs(p) for p in a)
    return max(abs(q - p) for p, q in moved) / size if size else math.inf


def compare(base: list[dict], new: list[dict]) -> int:
    """Print the changed cases and the four counts; the exit status (see the
    module docstring)."""
    old = {r["case"]: r for r in base}
    if sorted(old) != sorted(r["case"] for r in new):
        print(f"case sets differ: base has {len(old)} cases, new has {len(new)}")
        return 2
    counts = {"identical": 0, "rounding": 0, "iterations": 0, "status": 0}
    x_move = converged_x_move = res2_move = 0.0
    for r in new:
        b = old[r["case"]]
        if r["status"] != b["status"]:
            kind = "status"
            print(f"status {r['case']}: {b['status']} -> {r['status']}")
        elif (r["iterations"], r["fallbacks"]) != (b["iterations"], b["fallbacks"]):
            kind = "iterations"
            print(f"iterations {r['case']}: {b['iterations']} -> {r['iterations']}, "
                  f"fallbacks {b['fallbacks']} -> {r['fallbacks']}")
        elif r == b:
            kind = "identical"
        else:
            kind = "rounding"
            move = _relative_move(b["x"], r["x"])
            print(f"rounding {r['case']}: x {move:.3g}")
            x_move = max(x_move, move)
            # the last iterate of a run that did not converge may lie anywhere
            if r["status"] == "Converged":
                converged_x_move = max(converged_x_move, move)
            res2_move = max(res2_move, _relative_move([b["res2"]], [r["res2"]]))
        counts[kind] += 1
    total = len(new)
    print(f"{counts['identical']}/{total} bit-identical, "
          f"{counts['rounding']} rounding only (largest relative move: x {x_move:.3g}, "
          f"x of Converged cases {converged_x_move:.3g}, res2 {res2_move:.3g}), "
          f"{counts['iterations']} iteration changes, {counts['status']} status changes")
    return 1 if counts["status"] else 0


def read_records(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the run's records to this JSON-lines file")
    parser.add_argument("--against", help="compare the run with this JSON-lines file")
    parser.add_argument("--cross", action="store_true", help="compare dense with COO storage")
    args = parser.parse_args(argv)
    if args.cross:
        if args.out or args.against:
            parser.error("--cross takes neither --out nor --against")
        return judge_cross(*run_cross())
    if not (args.out or args.against):
        parser.error("give --out, --against or both, or --cross")
    base = read_records(args.against) if args.against else None
    records = run_corpus()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in records))
    return compare(base, records) if base is not None else 0


if __name__ == "__main__":
    sys.exit(main())
