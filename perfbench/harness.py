"""Workloads, per-solve correctness check and metrics of the mteq benchmark.

One process runs one workload as a single closed-loop client: each
mteq.solve call returns before the next one starts.  A workload is a
fixed list of solves (one pass) built from the seed; the timed phase
repeats whole passes, so every pass does identical work and must give
identical statuses, iteration counts and residuals.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import mteq
import mteq.cli
import mteq.problems
import mteq.tensor_core
import mteq.tensorio
from spans import Tracer

METHODS = ("smeqm", "jacobi", "gs", "sor", "anewton")
# The twelve (method, alpha) configs of the acceptance suite's bench_suite.
SWEEP_CONFIGS = tuple((m, a) for a in (0.5, 1.0) for m in METHODS) + (
    ("smeqm", 1.9),
    ("smeqm", 2.0),
)
SWEEP_N, SWEEP_INSTANCES = 10, 30
DENSE_N, DENSE_INSTANCES = 40, 8
# Two anewton solves per smeqm solve: with two equal groups of solve times
# the median would sit in the gap between them and jump from seed to seed.
DENSE_CONFIGS = (("anewton", 1.0), ("anewton", 0.5), ("smeqm", 1.0))
P3_JOBS = ((50, "anewton"), (10, "smeqm"))  # as in acceptance criterion 7

AUDIT_TOL = 1e-12
# The recomputed residual sums in another order than solve()'s own; it may
# exceed eta by this factor before the solve counts as failed.
RESIDUAL_ROUNDING = 1.01
P3_BOUNDARY, P3_BOUNDARY_RTOL = 6.37e6, 1e-6
# Set-up is repeated at least this many times and for at least this long.
SETUP_MIN_REPEATS, SETUP_MIN_S = 3, 1.0
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
CONTRACT_PROBE_S = 0.2

# Names that solve() calls, wrapped in the traced run: (span, module, attribute).
# solve() looks each of them up in the module at call time.
WRAPPED = (
    ("dense_linalg.lu_solve", "mteq.solvers", "lu_solve"),
    ("dense_linalg.lu_factor", "mteq.dense_linalg", "lu_factor"),
    ("solvers.solve_triangular", "mteq.solvers", "solve_triangular"),
    ("tensor_core.elementwise_root", "mteq.solvers", "elementwise_root"),
    ("tensor_core.majorization", "mteq.solvers", "majorization"),
    ("tensor_core.scale_system", "mteq.solvers", "scale_system"),
)


@dataclass(frozen=True)
class Job:
    inst: mteq.ProblemInstance
    method: str
    alpha: float

    @property
    def diverges(self) -> bool:
        """smeqm at alpha = 2 runs to the iteration cap by design."""
        return self.method == "smeqm" and self.alpha == 2.0


@dataclass(frozen=True)
class Solved:
    job_index: int
    solve_id: int
    seconds: float
    status: str
    iterations: int
    fallbacks: int
    res2: float
    failure: str | None


def _plain_call(name, fn, *args):
    return fn(*args)


def _p1_instances(seed, n, count, call):
    out = []
    for rep in range(count):
        s = mteq.cli.rep_seed(seed, "1", n, rep)
        out.append(call("problems.generate", mteq.problems.generate, "1", n, s))
    return out


def setup_p1_sweep(seed, call, workdir):
    insts = _p1_instances(seed, SWEEP_N, SWEEP_INSTANCES, call)
    return [Job(i, m, a) for i in insts for m, a in SWEEP_CONFIGS]


def setup_p1_dense(seed, call, workdir):
    insts = _p1_instances(seed, DENSE_N, DENSE_INSTANCES, call)
    return [Job(i, m, a) for i in insts for m, a in DENSE_CONFIGS]


def setup_p3_gravity(seed, call, workdir):
    """The `mteq gen` -> `mteq solve --tensor` path: generate, write the
    instance files, and solve what is read back.  P3 takes no seed."""
    jobs = []
    for n, method in P3_JOBS:
        inst = call("problems.generate", mteq.problems.generate, "3", n)
        paths = call("tensorio.write_instance", mteq.tensorio.write_instance, workdir / f"p3_n{n}", inst)
        del inst
        T = call("tensorio.read_tensor", mteq.tensorio.read_tensor, paths["tensor"])
        b = call("tensorio.read_vector", mteq.tensorio.read_vector, paths["rhs"])
        jobs.append(Job(mteq.ProblemInstance(T, b, "P3", n), method, 1.0))
    return jobs


# name -> (set-up, minimum passes of an untraced run).  The tail percentile
# is chosen from the minimum sample count, so it is the same in every run.
WORKLOADS = {
    "p1-sweep": (setup_p1_sweep, 1),
    "p3-gravity": (setup_p3_gravity, 20),
    "p1-dense": (setup_p1_dense, 5),
}


def check(job: Job, cfg, out) -> str | None:
    """Why a finished solve is wrong, judged without trusting its own
    report beyond status and iteration count; None when it is right."""
    status = out.status.value
    if job.diverges:
        if status != "MaxIterReached" or out.iterations != cfg.max_iter:
            return f"expected MaxIterReached at {cfg.max_iter}, got {status} at {out.iterations}"
    elif status != "Converged":
        return f"expected Converged, got {status}"
    x = np.asarray(out.x)
    if status == "Converged":
        if not np.all(np.isfinite(x)) or np.any(x < 0.0):
            return "solution is not finite and nonnegative"
        scaled = mteq.tensor_core.scale_system(job.inst.tensor, job.inst.rhs)
        r = float(np.linalg.norm(mteq.tensor_core.residual(scaled.tensor, scaled.rhs, x)))
        if not r <= cfg.eta * RESIDUAL_ROUNDING:
            return f"recomputed scaled residual {r:.3e} exceeds eta {cfg.eta:.1e}"
    if job.alpha <= 1.0:
        worst = max(out.trace.max_violation(), out.trace.max_feas_violation())
        if worst > AUDIT_TOL:
            return f"monotonicity/feasibility violation {worst:.3e}"
    if job.inst.problem == "P3":
        off = np.abs(x[[0, -1]] - P3_BOUNDARY) / P3_BOUNDARY
        if not np.all(off <= P3_BOUNDARY_RTOL):
            return f"boundary values {x[0]:.9g}, {x[-1]:.9g} are off 6.37e6"
    return None


class Runner:
    """Runs passes over a job list and keeps one Solved per solve.  Every
    solve is checked, and later passes must repeat the first exactly.

    With a tracer, each job is solved twice in a row, untraced and then
    traced, so both copies see the same machine conditions; the traced
    copies go to `traced`, the untraced ones to `passes`."""

    def __init__(self, jobs, tracer: Tracer | None):
        self.jobs = jobs
        self.tracer = tracer
        self.passes: list[list[Solved]] = []
        self.traced: list[Solved] = []
        self._next_id = 0

    def solve(self, index: int, traced: bool = False) -> Solved:
        job = self.jobs[index]
        cfg = mteq.SolveConfig(method=job.method, alpha=job.alpha)
        sid = self._next_id
        self._next_id += 1
        args = (job.inst.tensor, job.inst.rhs, None, cfg)
        if traced:
            self.tracer.install(_resolve(WRAPPED))
            self.tracer.solve_id = sid
        t0 = time.perf_counter()
        try:
            if traced:
                out = self.tracer.call("solvers.solve", mteq.solve, *args)
            else:
                out = mteq.solve(*args)
        except Exception as exc:  # a raising solve is a failed solve; the run goes on
            return Solved(index, sid, time.perf_counter() - t0, "raised", 0, 0,
                          math.nan, f"raised {type(exc).__name__}: {exc}")
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                self.tracer.solve_id = -1
                self.tracer.uninstall()
        res2 = out.trace.res2[-1] if len(out.trace) else math.nan
        return Solved(index, sid, seconds, out.status.value, out.iterations,
                      int(sum(out.trace.eps_fallback)), res2, check(job, cfg, out))

    def run_pass(self) -> None:
        done, traced = [], []
        for i in range(len(self.jobs)):
            done.append(self.solve(i))
            if self.tracer:
                traced.append(self.solve(i, traced=True))
        first = self.passes[0] if self.passes else done
        self.passes.append([_against(s, f) for s, f in zip(done, first)])
        self.traced.extend(_against(s, f) for s, f in zip(traced, first))

    def run(self, seconds: float, min_passes: int) -> None:
        """At least `min_passes` whole passes, and more while the deadline
        is further away than half a pass, so a run lasts about `seconds`."""
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            self.run_pass()
            now = time.perf_counter()
            if len(self.passes) >= min_passes and now - t0 >= seconds - (now - t_pass) / 2:
                return

    def all_solves(self) -> list[Solved]:
        return [s for p in self.passes for s in p] + self.traced


def _against(s: Solved, first: Solved) -> Solved:
    """Fail a solve whose outcome differs from the first pass's."""
    if s.failure is None and (s.status, s.iterations, s.res2) != (
        first.status, first.iterations, first.res2
    ):
        return replace(s, failure="differs from the first pass")
    return s


def _resolve(table):
    """(span, module name, attr) -> (span, module, attr), leaving out
    modules that no longer exist."""
    out = []
    for span, modname, attr in table:
        try:
            out.append((span, importlib.import_module(modname), attr))
        except ModuleNotFoundError:
            pass
    return tuple(out)


def setup(workload: str, seed: int, workdir: Path, tracer: Tracer | None):
    """Build the job list repeatedly; return the last list and the median
    build time in seconds."""
    build = WORKLOADS[workload][0]
    call = tracer.call if tracer else _plain_call
    times, jobs = [], None
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        jobs = None  # free the previous inputs before building new ones
        t0 = time.perf_counter()
        jobs = call("setup", build, seed, call, workdir)
        times.append(time.perf_counter() - t0)
    return jobs, statistics.median(times)


def tail(values_ms: list[float], min_count: int) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that has at least
    TAIL_MIN_BEYOND samples above it among `min_count` samples, the fewest
    a run can take; the median when that is too few."""
    q = next((q for q in TAIL_LADDER if min_count * (1 - q / 100) >= TAIL_MIN_BEYOND), 50)
    return q, float(np.percentile(values_ms, q))


def end_to_end(runner: Runner, setup_s: float, min_passes: int) -> tuple[dict, dict]:
    """Metrics of an untraced run, and notes printed beside them."""
    solves = runner.all_solves()
    ms = [s.seconds * 1e3 for s in solves]
    q, tail_ms = tail(ms, min_passes * len(runner.jobs))
    failed = sum(s.failure is not None for s in solves)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (len(solves) / sum(s.seconds for s in solves), "1/s"),
        "solve_ms_p50": (statistics.median(ms), "ms"),
        "solve_ms_tail": (tail_ms, "ms"),
        "iterations_total": (sum(s.iterations for s in runner.passes[0]), "count"),
        "pass_ratio": ((len(solves) - failed) / len(solves), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "solve_ms_tail": f"p{q:g} of {len(ms)} solves",
        "fail_ratio": f"{failed / len(solves):.6g} ({failed} of {len(solves)} solves failed)",
        "passes": f"{len(runner.passes)} of {len(runner.jobs)} solves each",
    }
    return metrics, notes


def _contract_probe(jobs, tracer: Tracer) -> tuple[float, int, int]:
    """Time contract_full directly on the workload's largest scaled tensor
    (solve() inlines its own contraction).  Returns (median us, n, m)."""
    inst = max((j.inst for j in jobs), key=lambda i: i.n)
    contract = getattr(mteq.tensor_core, "contract_full", None)
    T = mteq.tensor_core.scale_system(inst.tensor, inst.rhs).tensor
    if contract is None:
        return 0.0, inst.n, T.order
    x = np.ones(inst.n)
    durs = []
    t_end = time.perf_counter() + CONTRACT_PROBE_S
    while len(durs) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        tracer.call("tensor_core.contract_full", contract, T, x)
        durs.append(time.perf_counter() - t0)
    return statistics.median(durs) * 1e6, inst.n, T.order


def per_layer(runner: Runner, tracer: Tracer) -> dict:
    """Metrics of a traced run, from its spans and solve records.  Counts
    are per pass of the work list, times are means per call."""
    us, cfull_n, cfull_m = _contract_probe(runner.jobs, tracer)
    tbl = tracer.table()
    traced = runner.traced
    passes = len(runner.passes)

    def spans(name):
        return tbl["name"] == tracer.name_id(name)

    def calls(name):
        return int(np.count_nonzero(spans(name) & (tbl["solve"] >= 0))) / passes

    def mean(name, unit):
        d = tbl["dur"][spans(name)]
        return float(d.mean()) * unit if d.size else 0.0

    def total(name):
        return float(tbl["dur"][spans(name)].sum())

    solve_spans = np.flatnonzero(spans("solvers.solve"))
    span_of = dict(zip(tbl["solve"][solve_spans].tolist(), solve_spans.tolist()))
    first = runner.passes[0]
    anewton_iters = sum(s.iterations for s in first if runner.jobs[s.job_index].method == "anewton")
    fallbacks = sum(s.fallbacks for s in first)
    bytes_computed = cfull_n**cfull_m * 8
    flops = 2 * sum(cfull_n**k for k in range(2, cfull_m + 1))
    untraced_s = sum(s.seconds for p in runner.passes for s in p)

    metrics = {}
    for name in ("dense_linalg.lu_solve", "dense_linalg.lu_factor",
                 "solvers.solve_triangular", "tensor_core.elementwise_root"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.us"] = (mean(name, 1e6), "us")
    metrics["dense_linalg.lu_solve.share"] = (
        total("dense_linalg.lu_solve") / total("solvers.solve"), "ratio")
    iters = sum(s.iterations for s in traced)
    self_s = sum(float(tbl["self"][span_of[s.solve_id]]) for s in traced)
    metrics["solvers.self_us_per_iter"] = (self_s / iters * 1e6, "us")
    for method in METHODS:
        mine = [s for s in traced if runner.jobs[s.job_index].method == method]
        it = sum(s.iterations for s in mine)
        wall = sum(float(tbl["dur"][span_of[s.solve_id]]) for s in mine)
        metrics[f"solvers.us_per_iter.{method}"] = (wall / it * 1e6 if it else 0.0, "us")
    metrics["solvers.iterations"] = (iters / passes, "count")
    metrics["solvers.eps_fallback"] = (fallbacks, "count")
    metrics["solvers.eps_fallback_ratio"] = (fallbacks / anewton_iters if anewton_iters else 0.0, "ratio")
    metrics["tensor_core.scale_system.calls"] = (calls("tensor_core.scale_system"), "count")
    metrics["tensor_core.scale_system.ms"] = (mean("tensor_core.scale_system", 1e3), "ms")
    metrics["tensor_core.majorization.us"] = (mean("tensor_core.majorization", 1e6), "us")
    metrics["tensor_core.contract_full.us"] = (us, "us")
    metrics["tensor_core.contract_full.bytes_computed"] = (bytes_computed, "B")
    metrics["tensor_core.contract_full.flops_per_byte"] = (flops / bytes_computed, "flop/B")
    metrics["problems.generate.ms"] = (mean("problems.generate", 1e3), "ms")
    metrics["tensorio.write_instance.ms"] = (mean("tensorio.write_instance", 1e3), "ms")
    metrics["tensorio.read_tensor.ms"] = (mean("tensorio.read_tensor", 1e3), "ms")
    metrics["trace.overhead_ratio"] = (sum(s.seconds for s in traced) / untraced_s, "ratio")
    return metrics


def write_records(path: Path, workload: str, runner: Runner) -> None:
    """One row per solve of the first pass; later passes repeat it exactly
    (check() fails a solve that does not), so two commits can be diffed."""
    with open(path, "w") as fh:
        fh.write("workload,instance_seed,n,method,alpha,status,iterations,fallbacks,res2\n")
        for s in runner.passes[0]:
            job = runner.jobs[s.job_index]
            seed = "" if job.inst.seed is None else job.inst.seed
            fh.write(f"{workload},{seed},{job.inst.n},{job.method},{job.alpha:g},"
                     f"{s.status},{s.iterations},{s.fallbacks},{s.res2!r}\n")
