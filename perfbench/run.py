"""Run one mteq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload p3-gravity --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy.  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a traced run.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Per-solve records, the environment and (traced) the spans are written to
./.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("p1-sweep", "p3-gravity", "p1-dense")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def l3_bytes() -> int | None:
    import ctypes

    try:
        value = ctypes.CDLL(None).sysconf(194)  # glibc _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_lib = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mteq" / "__init__.py").is_file():
        print(f"error: no mteq package under {src}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads; so numpy and
    # everything importing it are imported only after this point.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import harness
    from spans import Tracer

    if not Path(harness.mteq.__file__).resolve().is_relative_to(src):
        print(f"error: mteq was not imported from {src}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT_DIR / stem
    workdir.mkdir(exist_ok=True)
    env = environment(args.seed)
    (OUT_DIR / f"{stem}-env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env: " + json.dumps(env))

    tracer = Tracer() if args.trace else None
    jobs, setup_s = harness.setup(args.workload, args.seed, workdir, tracer)
    runner = harness.Runner(jobs, tracer)
    runner.solve(0)  # untimed warm-up: first-touch costs of a fresh process
    min_passes = 1 if args.trace else harness.WORKLOADS[args.workload][1]
    runner.run(args.seconds, min_passes)
    harness.write_records(OUT_DIR / f"{stem}-records.csv", args.workload, runner)

    if args.trace:
        metrics = harness.per_layer(runner, tracer)
        tracer.write_csv(OUT_DIR / f"{args.workload}-spans.csv")
        notes = {}
    else:
        metrics, notes = harness.end_to_end(runner, setup_s, min_passes)
    solves = runner.all_solves()
    failures = [s for s in solves if s.failure is not None]
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name}: {value:.6g} {unit}{note}")
    for name in ("fail_ratio", "passes"):
        if name in notes:
            print(f"{name}: {notes[name]}")
    for s in failures[:10]:
        job = jobs[s.job_index]
        print(f"FAILED {job.inst.problem} n={job.inst.n} seed={job.inst.seed} "
              f"{job.method} alpha={job.alpha:g}: {s.failure}")
    print(f"correct: {not failures} ({len(failures)} of {len(solves)} solves failed)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
