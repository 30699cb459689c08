"""Command-line interface: solve, root, gen, bench, arc-audit.

Machine-first output: a single JSON run record on stdout for solve/root,
CSV for bench, and plain PASS/FAIL lines for arc-audit.  The record is
strict JSON: a non-finite number in it is written null.  Exit codes:
0 success/optimal, 2 iteration or subproblem budget exhausted,
3 line-search failure, or an objective that overflows at the start
(status non_finite), 4 residual target sigma unreachable,
64 malformed manifest or config, or a bad number: a negative seed, or an
arc-audit n below 1 or trial count below 0.  arc-audit exits 1 on a FAIL.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import statistics
import sys

import numpy as np

from . import io as lio
from .arc import count_breakpoints_two_sided, extremal_construction
from .model import SolverOptions
from .probgen import (
    MATRIX_KINDS,
    SIGNAL_DISTS,
    GeneratorSpec,
    gen_instance,
    make_rng,
)
from .rootfind import STATUS_BUDGET, STATUS_CONVERGED, STATUS_UNREACHABLE, solve_bpdn
from .solver import (
    STATUS_ITER_LIMIT,
    STATUS_LINESEARCH_FAILURE,
    STATUS_NON_FINITE,
    STATUS_OPTIMAL,
    hybrid_solve,
    spg_solve,
)

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_LINESEARCH = 3
EXIT_UNREACHABLE = 4
EXIT_BAD_INPUT = 64

_STATUS_EXIT = {
    STATUS_OPTIMAL: EXIT_OK,
    STATUS_CONVERGED: EXIT_OK,
    STATUS_ITER_LIMIT: EXIT_BUDGET,
    STATUS_BUDGET: EXIT_BUDGET,
    STATUS_LINESEARCH_FAILURE: EXIT_LINESEARCH,
    STATUS_NON_FINITE: EXIT_LINESEARCH,
    STATUS_UNREACHABLE: EXIT_UNREACHABLE,
}


def _options_from_args(args) -> SolverOptions:
    return SolverOptions(
        opt_tol=args.tol,
        max_iter=args.max_iter,
        line_search_mode=args.line_search,
        trace=bool(getattr(args, "trace", None)),
    )


def _strict(value):
    """The value with every non-finite float, at any depth, made None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def _emit(record: dict) -> None:
    """Print the record as strict JSON: a non-finite float is written null."""
    print(json.dumps(_strict(record), allow_nan=False))


def _bad_input(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_BAD_INPUT


def cmd_solve(args) -> int:
    try:
        problem, data = lio.problem_from_manifest(args.manifest)
        options = _options_from_args(args)
    except (OSError, lio.ManifestError, ValueError) as exc:
        return _bad_input(exc)
    if "tau" not in data:
        return _bad_input("manifest fixes sigma; use the root command")
    solve = hybrid_solve if args.solver == "hybrid" else spg_solve
    report = solve(problem, options=options)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["iteration", "f", "gap", "step_kind", "face_dim"])
            for rec in report.trace:
                wr.writerow([rec.iteration, repr(rec.f), repr(rec.gap),
                             rec.step_kind, rec.face_dim])
    if args.out:
        lio.write_vector(args.out, report.x)
    _emit({
        "schema": 1,
        "command": "solve",
        "solver": args.solver,
        "status": report.status,
        "f": report.f,
        "gap": report.gap,
        "lambda": report.lam,
        "iterations": report.iterations,
        "qn_steps": report.qn_steps,
        "pg_steps": report.pg_steps,
        "face_phases": report.face_phases,
        "phase_ends": report.phase_ends,
        "pairs_rejected": report.pairs_rejected,
        "forward_products": report.forward_products,
        "adjoint_products": report.adjoint_products,
        "column_reads": report.column_reads,
        "column_work": report.column_work,
        "working_set_sizes": report.working_set_sizes,
        "tau": problem.tau,
        "time_sec": report.time_sec,
    })
    return _STATUS_EXIT.get(report.status, EXIT_BUDGET)


def cmd_root(args) -> int:
    try:
        problem, data = lio.problem_from_manifest(args.manifest)
        options = _options_from_args(args)
    except (OSError, lio.ManifestError, ValueError) as exc:
        return _bad_input(exc)
    if "sigma" not in data:
        return _bad_input("manifest fixes tau; use the solve command")
    report = solve_bpdn(problem, data["sigma"], options=options,
                        solver=args.solver)
    if args.out:
        lio.write_vector(args.out, report.x)
    _emit({
        "schema": 1,
        "command": "root",
        "solver": args.solver,
        "status": report.status,
        "tau": report.tau,
        "misfit": report.misfit,
        "sigma": report.sigma,
        "subproblems": report.subproblems,
        "forward_products": report.forward_products,
        "adjoint_products": report.adjoint_products,
        "column_reads": report.column_reads,
        "column_work": report.column_work,
        "time_sec": report.time_sec,
        "path": [dataclasses.asdict(state) for state in report.path],
    })
    return _STATUS_EXIT.get(report.status, EXIT_BUDGET)


def cmd_gen(args) -> int:
    try:
        spec = GeneratorSpec(m=args.m, n=args.n, kind=args.kind,
                             gamma=args.gamma, k=args.k, dist=args.dist,
                             noise=args.noise, tau_mult=args.tau_mult,
                             sigma_mult=args.sigma_mult)
    except ValueError as exc:
        return _bad_input(exc)
    inst = gen_instance(spec, args.seed)
    os.makedirs(args.out, exist_ok=True)
    lio.write_matrix_market_array(os.path.join(args.out, "A.mtx"), inst.a)
    lio.write_vector(os.path.join(args.out, "b.txt"), inst.b)
    lio.write_vector(os.path.join(args.out, "x0.txt"), inst.x0)
    scalar = {"tau": inst.tau} if args.mode == "tau" else {"sigma": inst.sigma}
    lio.write_manifest(os.path.join(args.out, "manifest.txt"),
                       {"A": "A.mtx", "b": "b.txt"}, scalar)
    _emit({
        "schema": 1,
        "command": "gen",
        "out": args.out,
        "seed": args.seed,
        "m": args.m,
        "n": args.n,
        "kind": args.kind,
        "tau": inst.tau,
        "sigma": inst.sigma,
    })
    return EXIT_OK


def _bench_one(spec_kw: dict, seed: int, solver: str, tol: float) -> dict:
    problem = gen_instance(GeneratorSpec(**spec_kw), seed).problem()
    solve = hybrid_solve if solver == "hybrid" else spg_solve
    report = solve(problem, options=SolverOptions(opt_tol=tol))
    return {"time": report.time_sec, "iters": report.iterations,
            "solved": report.status == STATUS_OPTIMAL, "gap": report.gap}


def cmd_bench(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _bad_input(exc)
    try:
        base = {
            "m": int(cfg.get("m", 256)),
            "n": int(cfg.get("n", 512)),
            "kind": cfg.get("kind", "gaussian"),
            "gamma": float(cfg.get("gamma", 0.01)),
            "noise": float(cfg.get("noise", 0.0)),
            "tau_mult": float(cfg.get("tau_mult", 0.995)),
        }
        ks = [int(k) for k in cfg.get("ks", [20])]
        dists = list(cfg.get("dists", ["pm_one"]))
        # Each (solver, tol) makes one row, so a repeated one is dropped.
        solvers = list(dict.fromkeys(cfg.get("solvers", ["spg", "hybrid"])))
        tols = list(dict.fromkeys(float(t) for t in cfg.get("tols", [1e-6])))
        instances = int(cfg.get("instances", 5))
        for k in ks:
            for d in dists:
                GeneratorSpec(**base, k=k, dist=d)  # every spec the run builds
        for s in solvers:
            if s not in ("spg", "hybrid"):
                raise ValueError(f"unknown solver {s!r}")
        for t in tols:
            SolverOptions(opt_tol=t)
        if instances < 1 and ks and dists and solvers and tols:
            raise ValueError(f"instances must be at least 1, got {instances}")
    except (TypeError, ValueError) as exc:
        return _bad_input(f"bad config: {exc}")

    rows = []
    for k in ks:
        for dist in dists:
            spec_kw = dict(base, k=k, dist=dist)
            runs = {(solver, tol): [_bench_one(spec_kw, args.seed + i, solver, tol)
                                    for i in range(instances)]
                    for solver in solvers for tol in tols}
            for (solver, tol), grp in runs.items():
                spg = runs.get(("spg", tol), [])
                ratios = [s["time"] / r["time"]
                          for s, r in zip(spg, grp) if r["time"] > 0]
                rows.append({
                    "k": k,
                    "dist": dist,
                    "solver": solver,
                    "tol": tol,
                    "mean_time": statistics.fmean(r["time"] for r in grp),
                    "mean_iters": statistics.fmean(r["iters"] for r in grp),
                    "pct_solved": 100.0 * statistics.fmean(
                        1.0 if r["solved"] else 0.0 for r in grp),
                    "median_gap": statistics.median(r["gap"] for r in grp),
                    "mean_speedup_vs_spg": (
                        statistics.fmean(ratios) if ratios else ""),
                })
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        wr = csv.DictWriter(out, fieldnames=[
            "k", "dist", "solver", "tol", "mean_time", "mean_iters",
            "pct_solved", "median_gap", "mean_speedup_vs_spg",
        ])
        wr.writeheader()
        wr.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_arc_audit(args) -> int:
    if args.n < 1 or args.trials < 0:
        return _bad_input(f"need n >= 1 and trials >= 0, got n={args.n} "
                          f"and trials={args.trials}")
    rng = make_rng(args.seed)
    bound = 4 * args.n - 2
    worst = 0
    for _ in range(args.trials):
        s = rng.normal(size=args.n)
        d = rng.normal(size=args.n)
        w = rng.uniform(0.3, 3.0, size=args.n)
        tau = float(rng.uniform(0.1, 2.0) * max(np.dot(w, np.abs(s)), 1.0))
        worst = max(worst, count_breakpoints_two_sided(s, d, w, tau))
    s, d, w, tau = extremal_construction(args.n, seed=args.seed)
    extremal = count_breakpoints_two_sided(s, d, w, tau)
    ok = worst <= bound and extremal == bound
    print(f"{'PASS' if worst <= bound else 'FAIL'}: random worst case "
          f"{worst} <= bound {bound} over {args.trials} trials")
    print(f"{'PASS' if extremal == bound else 'FAIL'}: extremal instance "
          f"attains {extremal} of bound {bound}")
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lassokit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_opts(p):
        p.add_argument("--solver", choices=("spg", "hybrid"), default="hybrid")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--line-search", choices=("backtracking", "trajectory"),
                       default="backtracking")
        p.add_argument("--out", default=None, help="write solution vector here")

    p = sub.add_parser("solve", help="solve a radius-constrained problem")
    p.add_argument("--manifest", required=True)
    add_solver_opts(p)
    p.add_argument("--trace", default=None, help="write per-iteration CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("root", help="solve a misfit-constrained problem")
    p.add_argument("--manifest", required=True)
    add_solver_opts(p)
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("gen", help="generate a reproducible instance")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--kind", choices=MATRIX_KINDS, default="gaussian")
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--dist", choices=SIGNAL_DISTS, default="pm_one")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--tau-mult", type=float, default=0.995)
    p.add_argument("--sigma-mult", type=float, default=0.01)
    p.add_argument("--mode", choices=("tau", "sigma"), default="tau")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="sweep solvers over generated instances")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("arc-audit", help="stress the breakpoint bound")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_arc_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        return _bad_input(f"seed must be nonnegative, got {args.seed}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
