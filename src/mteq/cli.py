"""Command-line surface: generate instances, analyze structure, solve single
systems, and run seeded benchmark sweeps with CSV output."""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import problems, structure, tensorio
from .errors import MteqError, NotZTensor
from .solvers import METHODS, SolveConfig, Status, solve
from .tensor_core import _majorization_unless_diagonal, diagonal

EXIT_CODES = {
    Status.CONVERGED: 0,
    Status.MAX_ITER: 3,
    Status.NEGATIVE_POWER_RHS: 4,
    Status.SINGULAR_MATRIX: 5,
    Status.NON_FINITE: 7,
}
EXIT_PARSE_ERROR = 65

BENCH_CSV_HEADER = "problem,n,seed,method,alpha,omega,iters,res2_scaled,ms,status"


def rep_seed(seed: int, problem: str, n: int, rep: int) -> int:
    """Stable per-repetition seed, shared across methods and alpha values
    so sweeps compare the same instances; keyed by the problem id as
    `problems.generate` resolves it, so '1', 'p1' and 'P1' agree."""
    import hashlib  # here, not at module level: hashlib loads OpenSSL
    digest = hashlib.blake2b(
        f"{seed}:{problems._problem_key(problem)}:{n}:{rep}".encode(), digest_size=8
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
        return tensorio.read_vector(text)


def _load_system(args):
    """The system from exactly one source: --problem, or --tensor with --rhs
    of the tensor's dimension."""
    if args.problem and (args.tensor or args.rhs):
        raise ValueError("give --problem or --tensor/--rhs, not both")
    if args.problem:
        inst = problems.generate(args.problem, args.n, args.seed)
        return inst.tensor, inst.rhs
    if not args.tensor:
        raise ValueError("--rhs requires --tensor" if args.rhs
                         else "either --tensor/--rhs or --problem must be given")
    if not args.rhs:
        raise ValueError("--tensor requires --rhs")
    T, b = tensorio.read_tensor(args.tensor), tensorio.read_vector(args.rhs)
    if b.shape != (T.dim,):
        raise ValueError(f"rhs has {b.size} entries, but the tensor has dim {T.dim}")
    return T, b


def _solve_config(args, **kw) -> SolveConfig:
    return SolveConfig(omega=args.omega, eta=args.tol, max_iter=args.max_iter, **kw)


def cmd_gen(args) -> int:
    inst = problems.generate(args.problem, args.n, args.seed)
    seed = "" if inst.seed is None else f"_s{inst.seed}"
    out = args.out or f"{inst.problem.lower()}_n{inst.n}{seed}"
    for name, path in tensorio.write_instance(out, inst).items():
        print(f"{name}: {path}")
    return 0


def cmd_solve(args) -> int:
    T, b = _load_system(args)
    cfg = _solve_config(args, method=args.method, alpha=args.alpha, scale=not args.no_scale)
    out = solve(T, b, _parse_x0(args.x0, T.dim), cfg)
    print(f"status: {out.status.value}")
    print(f"iterations: {out.iterations}")
    print(f"residual (scaled 2-norm): {out.res2:.6e}")
    print(f"residual (unscaled 2-norm): {out.res2 * out.scale_factor:.6e}")
    print(f"backward error (componentwise): {out.omega:.6e}")
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
    T, b = _load_system(args)
    try:  # the certificate asks the Z-tensor question itself
        cert = structure.mtensor_certificate(T, use_power_method=args.power)
    except NotZTensor:
        cert = None
    print(f"z_tensor: {cert is not None}")
    if cert is not None:
        print(f"s: {cert.s:.6g}")
        print(f"row_sum_bound: {cert.row_sum_bound:.6g}")
        if cert.power_estimate is not None:
            print(f"power_estimate: {cert.power_estimate:.6g}")
        print(f"verdict: {cert.verdict.value}")
    try:
        print(f"existence: {structure.existence_sufficient(T, b).value}")
    except MteqError as exc:
        print(f"existence: error ({exc})")
    M = _majorization_unless_diagonal(T)
    if M is None:  # max|d| / min|d|, as the SVD of M gives
        d = np.abs(diagonal(T))
        cond = d.max() / d.min() if d.min() else np.inf
    else:
        cond = np.linalg.cond(M)
    print(f"majorization_cond_estimate: {cond:.6g}")
    return 0


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    configs = [_solve_config(args, method=m, alpha=a) for a in args.alpha for m in args.method]
    lines, groups = [BENCH_CSV_HEADER], {}
    for n in args.n:
        for rep in range(args.reps):
            inst = problems.generate(args.problem, n, rep_seed(args.seed, args.problem, n, rep))
            seed = "" if inst.seed is None else inst.seed  # as built: 0 for P2, none for P3 or a fixture
            for cfg in configs:
                t0 = time.perf_counter()
                out = solve(inst.tensor, inst.rhs, None, cfg)
                ms = (time.perf_counter() - t0) * 1e3
                lines.append(
                    f"{args.problem},{inst.n},{seed},{cfg.method},{cfg.alpha:.6g},{cfg.omega:.6g},"
                    f"{out.iterations},{out.res2:.16e},{ms:.3f},{out.status.value}"
                )
                groups.setdefault((inst.n, cfg.alpha, cfg.method), []).append((out.iterations, ms))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
    print(f"{'n':>5} {'alpha':>6} {'method':>8} {'mean_iter':>10} {'mean_ms':>10}")
    for (n, alpha, method), runs in groups.items():
        iters, times = zip(*runs)
        print(f"{n:>5} {alpha:>6.2f} {method:>8} {np.mean(iters):>10.1f} {np.mean(times):>10.2f}")
    return 0


def _add_system_args(p):
    p.add_argument("--tensor", help="tensor file (JSON)")
    p.add_argument("--rhs", help="right-side vector file")
    p.add_argument("--problem", help="problem id: 1-4 or ex11/ex21/ex22")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _add_solver_args(p, sweep: bool):
    """The SolveConfig options, defaulting to SolveConfig's own values.  A
    sweep takes one or more methods and alphas."""
    cfg, many = SolveConfig(), {"nargs": "+"} if sweep else {}
    p.add_argument("--method", default=[cfg.method] if sweep else cfg.method, choices=METHODS, **many)
    p.add_argument("--alpha", type=float, default=[cfg.alpha] if sweep else cfg.alpha, **many)
    p.add_argument("--omega", type=float, default=cfg.omega)
    p.add_argument("--tol", type=float, default=cfg.eta)
    p.add_argument("--max-iter", type=int, default=cfg.max_iter)


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
    _add_solver_args(p, sweep=False)
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
    _add_solver_args(p, sweep=True)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
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
