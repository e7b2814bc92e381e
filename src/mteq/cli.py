"""Command-line surface: generate instances, analyze structure, solve single
systems, and run seeded benchmark sweeps with CSV output."""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

import numpy as np

from . import problems, structure, tensorio
from .errors import MteqError
from .solvers import SolveConfig, Status, solve
from .tensor_core import majorization

EXIT_CODES = {
    Status.CONVERGED: 0,
    Status.MAX_ITER: 3,
    Status.NEGATIVE_POWER_RHS: 4,
    Status.SINGULAR_MATRIX: 5,
}
EXIT_PARSE_ERROR = 65

BENCH_CSV_HEADER = "problem,n,seed,method,alpha,omega,iters,res2_scaled,ms,status"


def rep_seed(seed: int, problem: str, n: int, rep: int) -> int:
    """Stable per-repetition seed, shared across methods and alpha values
    so sweeps compare the same instances."""
    digest = hashlib.blake2b(
        f"{seed}:{problem}:{n}:{rep}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


def _parse_x0(text: str, n: int):
    """'zero', a comma list, one number for every entry, or a vector file."""
    if text == "zero":
        return np.zeros(n)
    if "," in text:
        return np.array([float(t) for t in text.split(",")])
    try:
        return np.full(n, float(text))
    except ValueError:
        pass
    try:
        return tensorio.read_vector(text)
    except OSError:
        raise SystemExit(f"cannot read x0 file {text!r}")


def _load_system(args):
    if getattr(args, "tensor", None):
        T = tensorio.read_tensor(args.tensor)
        b = tensorio.read_vector(args.rhs)
        return T, b, None
    if getattr(args, "problem", None):
        inst = problems.generate(args.problem, args.n, args.seed)
        return inst.tensor, inst.rhs, inst
    raise SystemExit("either --tensor/--rhs or --problem must be given")


def cmd_gen(args) -> int:
    inst = problems.generate(args.problem, args.n, args.seed)
    out = args.out or f"{inst.problem.lower()}_n{inst.n}_s{inst.seed}"
    paths = tensorio.write_instance(out, inst)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_solve(args) -> int:
    T, b, _ = _load_system(args)
    cfg = SolveConfig(
        method=args.method,
        alpha=args.alpha,
        omega=args.omega,
        eta=args.tol,
        max_iter=args.max_iter,
        scale=not args.no_scale,
    )
    x0 = _parse_x0(args.x0, T.dim)
    out = solve(T, b, x0, cfg)
    res2_scaled = out.trace.res2[-1] if len(out.trace) else float("nan")
    res2_unscaled = out.trace.res2_unscaled[-1] if len(out.trace) else float("nan")
    print(f"status: {out.status.value}")
    print(f"iterations: {out.iterations}")
    print(f"residual (scaled 2-norm): {res2_scaled:.6e}")
    print(f"residual (unscaled 2-norm): {res2_unscaled:.6e}")
    if out.infeasible_start:
        print("note: infeasible start, monotonicity audit disabled")
    if out.alpha_warning:
        print("note: alpha > 1 is outside the convergence theory")
    print("solution: " + " ".join(f"{v:.12g}" for v in out.x))
    if args.solution:
        tensorio.write_vector(args.solution, out.x)
    if args.trace:
        out.trace.write_csv(args.trace)
    return EXIT_CODES[out.status]


def cmd_analyze(args) -> int:
    T, b, _ = _load_system(args)
    is_z = structure.is_z_tensor(T)
    print(f"z_tensor: {is_z}")
    if is_z:
        cert = structure.mtensor_certificate(T, use_power_method=args.power)
        print(f"s: {cert.s:.6g}")
        print(f"row_sum_bound: {cert.row_sum_bound:.6g}")
        if cert.power_estimate is not None:
            print(f"power_estimate: {cert.power_estimate:.6g}")
        print(f"verdict: {cert.verdict.value}")
    try:
        print(f"existence: {structure.existence_sufficient(T, b).value}")
    except MteqError as exc:
        print(f"existence: error ({exc})")
    M = majorization(T).values
    print(f"majorization_cond_estimate: {np.linalg.cond(M):.6g}")
    return 0


def cmd_bench(args) -> int:
    rows = []
    for n in args.n:
        for rep in range(args.reps):
            seed = rep_seed(args.seed, args.problem, n, rep)
            inst = problems.generate(args.problem, n, seed)
            for ai, alpha in enumerate(args.alpha):
                for method in args.method:
                    cfg = SolveConfig(
                        method=method,
                        alpha=alpha,
                        omega=args.omega,
                        eta=args.tol,
                        max_iter=args.max_iter,
                    )
                    t0 = time.perf_counter()
                    out = solve(inst.tensor, inst.rhs, None, cfg)
                    ms = (time.perf_counter() - t0) * 1e3
                    res2 = out.trace.res2[-1] if len(out.trace) else float("nan")
                    rows.append(
                        (args.problem, n, seed, method, alpha, args.omega,
                         out.iterations, res2, ms, out.status.value)
                    )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(BENCH_CSV_HEADER + "\n")
            for r in rows:
                fh.write(
                    f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]:.6g},{r[5]:.6g},"
                    f"{r[6]},{r[7]:.16e},{r[8]:.3f},{r[9]}\n"
                )
    print(f"{'n':>5} {'alpha':>6} {'method':>8} {'mean_iter':>10} {'mean_ms':>10}")
    for n in args.n:
        for alpha in args.alpha:
            for method in args.method:
                group = [r for r in rows if r[1] == n and r[4] == alpha and r[3] == method]
                iters = float(np.mean([r[6] for r in group]))
                ms = float(np.mean([r[8] for r in group]))
                print(f"{n:>5} {alpha:>6.2f} {method:>8} {iters:>10.1f} {ms:>10.2f}")
    return 0


def _add_system_args(p, with_seed=True):
    p.add_argument("--tensor", help="tensor file (JSON)")
    p.add_argument("--rhs", help="right-side vector file")
    p.add_argument("--problem", help="problem id: 1-4 or ex11/ex21/ex22")
    p.add_argument("--n", type=int, default=10)
    if with_seed:
        p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mteq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance and write it to files")
    p.add_argument("--problem", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path prefix")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve a single system")
    _add_system_args(p)
    p.add_argument("--method", default="smeqm", choices=["smeqm", "jacobi", "gs", "sor", "anewton"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--x0", default="zero", help="'zero', a comma list, a number, or a vector file")
    p.add_argument("--no-scale", action="store_true")
    p.add_argument("--trace", help="write per-iteration CSV trace here")
    p.add_argument("--solution", help="write the solution vector here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="structure report for a system")
    _add_system_args(p)
    p.add_argument("--power", action="store_true", help="include the power-method estimate")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="seeded benchmark sweep")
    p.add_argument("--problem", required=True)
    p.add_argument("--n", type=int, nargs="+", default=[10])
    p.add_argument("--alpha", type=float, nargs="+", default=[1.0])
    p.add_argument("--method", nargs="+", default=["smeqm"],
                   choices=["smeqm", "jacobi", "gs", "sor", "anewton"])
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=3000)
    p.add_argument("--csv", help="write per-run rows to this CSV")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
