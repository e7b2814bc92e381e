"""Equivalence corpus: solve a fixed set of systems, write one JSON line per
solve, and compare a run with an earlier one.

    PYTHONPATH=src python tools/corpus.py --out NEW.jsonl [--against BASE.jsonl]

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
compare bit for bit.  The runner uses only the public API of mteq, so it
runs on any tree that has it.

--against prints one line per changed case and then four counts:
bit-identical cases, rounding-only ones (same status, iterations and
fallbacks; with the largest relative moves of x, over all of them and
over the Converged ones, and of res2), iteration
changes (same status; a changed fallback count counts as one), and status
changes.  The exit status is 1 if any status changed, 2 if the two runs do
not hold the same cases, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from mteq import SolveConfig, fixture, gen_problem1, gen_problem2, gen_problem3, gen_problem4, solve
from mteq.cli import rep_seed

METHODS = ("smeqm", "jacobi", "gs", "sor", "anewton")
ALPHAS = (0.5, 1.0, 1.9, 2.0)
SWEEP = [(m, a) for m in METHODS for a in (0.5, 1.0)] + [("smeqm", 1.9), ("smeqm", 2.0)]


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


def run_corpus() -> list[dict]:
    records = []
    for case, T, b, cfg in cases():
        out = solve(T, b, None, cfg)
        records.append({
            "case": case,
            "status": out.status.value,
            "iterations": out.iterations,
            "fallbacks": sum(out.trace.eps_fallback),
            "res2": float.hex(float(out.res2)),
            "omega": float.hex(float(out.omega)),
            "x": [float.hex(float(v)) for v in out.x],
        })
    return records


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
    args = parser.parse_args(argv)
    if not (args.out or args.against):
        parser.error("give --out, --against or both")
    base = read_records(args.against) if args.against else None
    records = run_corpus()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in records))
    return compare(base, records) if base is not None else 0


if __name__ == "__main__":
    sys.exit(main())
