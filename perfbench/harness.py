"""Workloads, product counting, output checks and the closed solve loop.

Every workload is a closed loop in one process: the next solve starts only
after the previous one returned, as a library caller would run them.  The
solver sees only generated inputs; instance seeds are derived from the
benchmark seed.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

import lassokit
from lassokit import LassoProblem, LinearOperator, SolverOptions
from lassokit.probgen import GeneratorSpec, gen_instance
from lassokit.rootfind import newton_tau_update
from tracer import Tracer

OPT_TOL = 1e-6
SOLVERS = ("spg", "hybrid")
SOLVED = ("optimal", "converged")
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
WARMUP_ITERS = 10
# The speed probe runs PROBE_ITERS iterations.  Before each timed solve it
# runs once untimed, then timed until PROBE_SECONDS have passed, and at least
# once.  A solve's slowdown is the median probe time of the SPEED_WINDOW
# solves around it over the fastest probe time of the run.
PROBE_ITERS = 30
PROBE_SECONDS = 0.02
SPEED_WINDOW = 5


@dataclass(frozen=True)
class Family:
    """One generator setting; `count` instances of it are drawn per run."""

    label: str
    spec: GeneratorSpec
    mu: float
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "solve" calls spg_solve/hybrid_solve, "bpdn" calls solve_bpdn
    families: tuple[Family, ...]
    line_search_mode: str = "backtracking"

    def options(self) -> SolverOptions:
        return SolverOptions(opt_tol=OPT_TOL,
                             line_search_mode=self.line_search_mode)


def _sphere(m: int, n: int, gamma: float, k: int) -> GeneratorSpec:
    return GeneratorSpec(m=m, n=n, kind="sphere_walk", gamma=gamma, k=k)


def _gauss(m: int, n: int, k: int) -> GeneratorSpec:
    return GeneratorSpec(m=m, n=n, kind="gaussian", k=k)


# One pass over a workload's instances takes about 20 s on a quiet 2-core
# Xeon and up to 30 s on a loaded one, so the first pass ends within a 30 s
# run (gauss_large's pass takes about 6 s); README.md gives each workload's
# reason.
WORKLOADS = {
    w.name: w for w in (
        Workload("gauss_large", "solve", (
            Family("gauss1024x4096", _gauss(1024, 4096, 100), 0.0, 4),
        )),
        Workload("coherent_small", "solve", (
            Family("sw128x256_g0.1_mu0", _sphere(128, 256, 0.1, 10), 0.0, 18),
            Family("sw128x256_g0.1_mu1e-3", _sphere(128, 256, 0.1, 10), 1e-3, 18),
            Family("sw128x256_g0.05_mu0", _sphere(128, 256, 0.05, 10), 0.0, 18),
            Family("sw128x256_g0.05_mu1e-3", _sphere(128, 256, 0.05, 10), 1e-3, 5),
        )),
        Workload("bpdn_root", "bpdn", (
            Family("sw200x500_g0.1_mu0", _sphere(200, 500, 0.1, 20), 0.0, 28),
            Family("sw200x500_g0.1_mu1e-3", _sphere(200, 500, 0.1, 20), 1e-3, 6),
        )),
        Workload("arc_trajectory", "solve", (
            Family("gauss64x128", _gauss(64, 128, 10), 0.0, 34),
        ), line_search_mode="trajectory"),
    )
}


def instance_seed(seed: int, family_index: int, i: int) -> int:
    """Distinct Philox key per (benchmark seed, family, instance)."""
    return (seed * 16 + family_index) * 1000 + i


class ProductCounts:
    """Forward, adjoint and column products since the last reset."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.fwd = self.adj = self.col = 0


def counting_operator(a: NDArray, counts: ProductCounts,
                      wrap=lambda name, fn: fn) -> LinearOperator:
    """The products DenseOperator uses, each with an integer increment.

    `wrap(name, fn)` lets the traced run time the three callables.
    """
    def fwd(x):
        counts.fwd += 1
        return a @ x

    def adj(y):
        counts.adj += 1
        return a.T @ y

    def col(i):
        counts.col += 1
        return a[:, i]

    return LinearOperator(a.shape, wrap("model.product", fwd),
                          wrap("model.product", adj), wrap("model.product", col))


@dataclass
class Instance:
    family: str
    seed: int
    a: NDArray
    b: NDArray
    tau: float
    sigma: float
    mu: float
    problem: LassoProblem | None = None  # over the counting operator

    def with_operator(self, op: LinearOperator) -> LassoProblem:
        return LassoProblem(op=op, b=self.b, tau=self.tau, mu=self.mu)


def build_instances(workload: Workload, seed: int, counts: ProductCounts,
                    gen_times: list[float]) -> list[Instance]:
    out = []
    for fi, fam in enumerate(workload.families):
        for i in range(fam.count):
            s = instance_seed(seed, fi, i)
            t0 = time.perf_counter()
            raw = gen_instance(fam.spec, s)
            gen_times.append(time.perf_counter() - t0)
            inst = Instance(fam.label, s, raw.a, raw.b, raw.tau, raw.sigma, fam.mu)
            inst.problem = inst.with_operator(counting_operator(raw.a, counts))
            out.append(inst)
    return out


@dataclass
class Outcome:
    """What one solve returned, with its cost.

    `failures` holds violated guarantees (the run is then not correct);
    `misses` holds the stricter spg/hybrid agreement check.  Both count
    against solved_frac.
    """

    solver: str
    seconds: float
    status: str
    x: NDArray
    f: float
    gap: float
    tau: float
    fwd: int
    adj: int
    col: int
    iterations: int
    qn_steps: int = 0
    subproblems: int = 0
    safeguarded: int = 0
    failures: list[str] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)

    @property
    def products(self) -> int:
        return self.fwd + self.adj

    @property
    def solved(self) -> bool:
        return self.status in SOLVED and not self.failures and not self.misses


def entry_point(workload: Workload, solver: str):
    """The public function a solve calls, looked up at call time."""
    if workload.entry == "bpdn":
        return lassokit.solve_bpdn
    return lassokit.spg_solve if solver == "spg" else lassokit.hybrid_solve


def solve_once(workload: Workload, inst: Instance, problem: LassoProblem,
               solver: str, counts: ProductCounts, options: SolverOptions,
               call=None) -> Outcome:
    """One closed-loop solve; `call` replaces the entry point when traced."""
    fn = call or entry_point(workload, solver)
    counts.reset()
    t0 = time.perf_counter()
    if workload.entry == "bpdn":
        rep = fn(problem, inst.sigma, options=options, solver=solver)
    else:
        rep = fn(problem, options=options)
    seconds = time.perf_counter() - t0
    base = dict(solver=solver, seconds=seconds, status=rep.status, x=rep.x,
                tau=rep.tau if workload.entry == "bpdn" else problem.tau,
                fwd=counts.fwd, adj=counts.adj, col=counts.col)
    if workload.entry == "bpdn":
        return Outcome(**base, f=rep.misfit, gap=math.nan,
                       iterations=sum(p.iterations for p in rep.path),
                       subproblems=rep.subproblems,
                       safeguarded=safeguarded_updates(rep, inst.sigma))
    return Outcome(**base, f=rep.f, gap=rep.gap, iterations=rep.iterations,
                   qn_steps=rep.qn_steps)


def safeguarded_updates(report, sigma: float) -> int:
    """Radius updates in a root run that were not the plain Newton step."""
    n = 0
    for prev, nxt in zip(report.path, report.path[1:]):
        newton = (newton_tau_update(prev.tau, prev.misfit, sigma, prev.lam)
                  if prev.lam > 0 else math.inf)
        n += nxt.tau != newton
    return n


def check_outcome(workload: Workload, inst: Instance, out: Outcome) -> list[str]:
    """Output checks recomputed from the instance's own arrays."""
    fails = []
    x = out.x
    if not np.all(np.isfinite(x)):
        return ["non-finite x"]
    norm = float(np.sum(np.abs(x)))  # unit weights
    if norm > out.tau * (1.0 + 1e-9):
        fails.append(f"||x||_1 {norm:.17g} > tau {out.tau:.17g}")
    r = inst.a @ x - inst.b
    if workload.entry == "bpdn":
        if out.status == "converged":
            misfit = float(np.linalg.norm(r))
            if abs(misfit - inst.sigma) > 1e-5 * max(inst.sigma, 1e-3):
                fails.append(f"misfit {misfit:.17g} vs sigma {inst.sigma:.17g}")
        return fails
    f = 0.5 * float(r @ r) + 0.5 * inst.mu * float(x @ x)
    if abs(f - out.f) > 1e-10 * max(abs(f), 1e-12):
        fails.append(f"recomputed f {f:.17g} != reported {out.f:.17g}")
    if out.status == "optimal" and not out.gap <= OPT_TOL:
        fails.append(f"optimal with gap {out.gap:.3g} > {OPT_TOL}")
    return fails


def check_pair(spg: Outcome, hyb: Outcome) -> str | None:
    """spg and hybrid agree on f when both claim optimality."""
    if spg.status == hyb.status == "optimal":
        scale = max(abs(spg.f), abs(hyb.f), 1e-12)
        if abs(spg.f - hyb.f) > 1e-8 * scale:
            return f"spg f {spg.f:.17g} vs hybrid f {hyb.f:.17g}"
    return None


@dataclass
class Task:
    inst: Instance
    solver: str


def make_tasks(instances: list[Instance], seed: int) -> list[Task]:
    """spg and hybrid alternate on the same instance.

    The instances come in a seeded shuffle, so that the part of a pass a
    run repeats before time runs out mixes the families.
    """
    order = np.random.default_rng(seed).permutation(len(instances))
    return [Task(instances[i], s) for i in order for s in SOLVERS]


@dataclass
class LoopResult:
    outcomes: list[Outcome]  # every timed solve, in order
    first: list[Outcome]  # one per task: the first pass
    errors: list[str]
    # The probe times taken before each solve.
    probes: list[list[float]] = field(default_factory=list)

    def slowdowns(self) -> list[float]:
        """Each timed solve's slowdown against the run's fastest moment.

        The median probe time of the SPEED_WINDOW solves around the solve
        over the fastest probe time of the run; 1.0 for every solve of an
        unprobed run.
        """
        if not self.probes:
            return [1.0] * len(self.outcomes)
        fastest = min(min(p) for p in self.probes)
        h = SPEED_WINDOW // 2
        return [float(np.median(sum(self.probes[max(k - h, 0):k + h + 1], [])))
                / fastest for k in range(len(self.outcomes))]

    def task_seconds(self, solver: str | None = None) -> list[float]:
        """Each task's solve time at the run's fastest moment.

        The mean over the task's timed solves of wall time over slowdown,
        for the tasks of `solver`, or of both solvers.  Each task counts
        once however often the run repeated it.  Tasks that only raised
        are left out.
        """
        n = len(self.first)
        per_task: list[list[float]] = [[] for _ in range(n)]
        for k, (o, slow) in enumerate(zip(self.outcomes, self.slowdowns())):
            if not math.isnan(o.seconds):
                per_task[k % n].append(o.seconds / slow)
        return [float(np.mean(ts)) for ts, o in zip(per_task, self.first)
                if solver in (None, o.solver) and ts]


def run_loop(workload: Workload, tasks: list[Task], counts: ProductCounts,
             seconds: float, solve=None, probe=None) -> LoopResult:
    """One whole pass over the tasks, then more of them until `seconds` is used.

    The first pass always completes, so every metric covers each task.  After
    it the loop goes round the tasks again in the same order, one instance
    (its spg and hybrid solve) at a time, while that instance's first-pass
    time still fits before `seconds`; so a run measures for about `seconds`
    whatever the machine's speed, and a slow moment of the machine is spread
    over more solves.  `solve(task)` replaces the plain solve, as the traced
    run does; `probe()`, when given, runs before every solve and returns the
    probe times it took.
    """
    options = workload.options()
    solve = solve or (lambda task: solve_once(
        workload, task.inst, task.inst.problem, task.solver, counts, options))
    outcomes: list[Outcome] = []
    errors: list[str] = []
    pair_s: list[float] = []  # first-pass seconds of each instance's solves
    probes: list[list[float]] = []
    t0 = time.perf_counter()
    k = 0
    while True:
        i = k % len(tasks)
        if i == 0 and k:
            pair_s = [sum(o.seconds for o in outcomes[j:j + len(SOLVERS)]
                          if not math.isnan(o.seconds))
                      for j in range(0, len(tasks), len(SOLVERS))]
        if k >= len(tasks) and i % len(SOLVERS) == 0 and (
                time.perf_counter() + pair_s[i // len(SOLVERS)] > t0 + seconds):
            break
        task = tasks[i]
        k += 1
        if probe is not None:
            probes.append(probe())
        try:
            out = solve(task)
        except Exception as exc:  # keep the loop going; report the failure
            errors.append(f"{task.inst.family} seed {task.inst.seed} "
                          f"{task.solver}: {type(exc).__name__}: {exc}")
            out = Outcome(task.solver, seconds=math.nan, status="exception",
                          x=np.zeros(0), f=math.nan, gap=math.nan, tau=0.0,
                          fwd=0, adj=0, col=0, iterations=0,
                          failures=[f"raised {type(exc).__name__}"])
        else:
            out.failures = check_outcome(workload, task.inst, out)
        if task.solver == "hybrid":  # the spg solve of this instance precedes
            msg = check_pair(outcomes[-1], out)
            if msg:
                outcomes[-1].misses.append(msg)
                out.misses.append(msg)
        outcomes.append(out)
    return LoopResult(outcomes, outcomes[:len(tasks)], errors, probes)


def warm_up(workload: Workload, inst: Instance) -> None:
    """A few iterations of each solver on one instance, to load every code path.

    Capped so that set-up time does not depend on how hard the instance is.
    """
    options = replace(workload.options(), max_iter=WARMUP_ITERS)
    for s in SOLVERS:
        if workload.entry == "bpdn":
            lassokit.solve_bpdn(inst.problem, inst.sigma, options=options,
                                solver=s, max_subproblems=2)
        else:
            entry_point(workload, s)(inst.problem, options=options)


def speed_probe(workload: Workload, inst: Instance):
    """A function that times a fixed short solve, to follow the host's speed.

    spg with backtracking, capped at PROBE_ITERS iterations, on one of the
    workload's own instances (one subproblem of a root run in `bpdn_root`):
    the same code and arrays as the solves, so it slows as they do when
    other tenants load the shared host.  Its first run is not timed, since
    the first after a solve of another instance is slower by an amount that
    depends on that solve.  The timed runs that follow, PROBE_SECONDS of
    them, catch the host's short fast spells as well as its slow ones.
    """
    options = replace(workload.options(), max_iter=PROBE_ITERS,
                      line_search_mode="backtracking")

    def once() -> float:
        t0 = time.perf_counter()
        if workload.entry == "bpdn":
            lassokit.solve_bpdn(inst.problem, inst.sigma, options=options,
                                solver="spg", max_subproblems=1)
        else:
            lassokit.spg_solve(inst.problem, options=options)
        return time.perf_counter() - t0

    def probe() -> list[float]:
        once()
        times = [once()]
        while sum(times) < PROBE_SECONDS:
            times.append(once())
        return times

    return probe


def setup(workload: Workload, seed: int, counts: ProductCounts):
    """Generate instances, build operators and warm up.

    Repeated SETUP_REPEATS times from scratch; the last set is kept.
    Returns (instances, set-up seconds per repeat, generation seconds).
    """
    setup_times: list[float] = []
    gen_times: list[float] = []
    instances: list[Instance] = []
    for _ in range(SETUP_REPEATS):
        instances = []  # release the previous set before drawing again
        t0 = time.perf_counter()
        instances = build_instances(workload, seed, counts, gen_times)
        warm_up(workload, instances[0])
        setup_times.append(time.perf_counter() - t0)
    return instances, setup_times, gen_times


# A percentile's value is the mean of the samples within HALF_WIDTH places
# of its rank: on the coherent families a single sample there sits at the
# edge of one family's spread and jumps by a fifth between seeds.
HALF_WIDTH = 5


def around(xs: list[float], rank: float) -> float:
    """Mean of the sorted `xs` within HALF_WIDTH + 1/2 places of `rank`."""
    lo = max(math.ceil(rank - HALF_WIDTH - 0.5), 0)
    return float(np.mean(xs[lo:math.floor(rank + HALF_WIDTH + 0.5) + 1]))


def median(values: list[float]) -> float:
    """The median, as the mean of the samples within HALF_WIDTH places of it."""
    xs = sorted(values)
    return around(xs, (len(xs) - 1) / 2)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value.

    The value is the mean of the samples within HALF_WIDTH places of that
    percentile.  With 11 samples or fewer no sample has 10 beyond it and
    the maximum stands in.
    """
    xs = sorted(values)
    if len(xs) <= 11:
        return 100.0, xs[-1]
    k = len(xs) - 11
    return 100.0 * (k + 1) / len(xs), around(xs, k)


# Per-layer metrics read off the spans, per solve of each solver:
# (metric, span name, statistic, unit, better).  "self" is self time.
SPAN_METRICS = (
    ("model.product_s", "model.product", "self", "s", "lower"),
    ("model.evaluate.self_s", "model.evaluate", "self", "s", "lower"),
    ("ball.project.calls", "ball.project", "calls", "count", "lower"),
    ("ball.project.s", "ball.project", "self", "s", "lower"),
    ("ball.face_of.calls", "ball.face_of", "calls", "count", "lower"),
    ("ball.face_of.s", "ball.face_of", "self", "s", "lower"),
    ("ball.cone_test.calls", "ball.cone_test", "calls", "count", "lower"),
    ("ball.cone_test.s", "ball.cone_test", "self", "s", "lower"),
    ("ball.cone_test.accept_ratio", "ball.cone_test", "ratio", "ratio", "higher"),
    ("ball.max_step.calls", "ball.max_step", "calls", "count", "lower"),
    ("ball.max_step.s", "ball.max_step", "self", "s", "lower"),
    ("facebasis.basis_init.calls", "facebasis.basis_init", "calls", "count", "lower"),
    ("facebasis.basis_init.s", "facebasis.basis_init", "self", "s", "lower"),
    ("facebasis.apply.calls", "facebasis.apply", "calls", "count", "lower"),
    ("facebasis.apply.s", "facebasis.apply", "self", "s", "lower"),
    ("arc.enumerate.calls", "arc.enumerate", "calls", "count", "lower"),
    ("arc.enumerate.s", "arc.enumerate", "self", "s", "lower"),
    ("arc.events_per_call", "arc.enumerate", "ratio", "count", "lower"),
    ("linesearch.backtrack.calls", "linesearch.backtrack", "calls", "count", "lower"),
    ("linesearch.backtrack.self_s", "linesearch.backtrack", "self", "s", "lower"),
    ("linesearch.backtrack.trials_per_call", "linesearch.backtrack", "ratio", "count", "lower"),
    ("linesearch.face_wolfe.calls", "linesearch.face_wolfe", "calls", "count", "lower"),
    ("linesearch.face_wolfe.self_s", "linesearch.face_wolfe", "self", "s", "lower"),
    ("linesearch.face_wolfe.accept_ratio", "linesearch.face_wolfe", "ratio", "ratio", "higher"),
    ("linesearch.trajectory.calls", "linesearch.trajectory", "calls", "count", "lower"),
    ("linesearch.trajectory.self_s", "linesearch.trajectory", "self", "s", "lower"),
    ("linesearch.trajectory.accept_ratio", "linesearch.trajectory", "ratio", "ratio", "higher"),
    ("solver.self_s", "solver.solve", "self", "s", "lower"),
    ("solver.model_builds", "solver.model_build", "calls", "count", "lower"),
    ("solver.lbfgs.direction.calls", "solver.lbfgs.direction", "calls", "count", "lower"),
    ("solver.lbfgs.direction.s", "solver.lbfgs.direction", "self", "s", "lower"),
    ("solver.lbfgs.update.calls", "solver.lbfgs.update", "calls", "count", "lower"),
    ("solver.lbfgs.update.accept_ratio", "solver.lbfgs.update", "ratio", "ratio", "higher"),
    ("duality.oracle.calls", "duality.oracle", "calls", "count", "lower"),
    ("duality.oracle.self_s", "duality.oracle", "self", "s", "lower"),
    ("duality.certificate.s", "duality.certificate", "self", "s", "lower"),
    ("duality.optimal_lambda.calls", "duality.optimal_lambda", "calls", "count", "lower"),
    ("duality.optimal_lambda.s", "duality.optimal_lambda", "self", "s", "lower"),
    ("rootfind.self_s", "rootfind.solve_bpdn", "self", "s", "lower"),
)

# Per-layer metrics computed from the solve outcomes: (metric, unit, better).
OUTCOME_METRICS = (
    ("model.fwd_calls", "count", "lower"),
    ("model.adj_calls", "count", "lower"),
    ("model.col_calls", "count", "lower"),
    ("model.bytes_computed", "B", "lower"),
    ("solver.qn_step_frac", "ratio", "higher"),
    ("rootfind.subproblems_per_run", "count", "lower"),
    ("rootfind.iters_per_subproblem", "count", "lower"),
    ("rootfind.safeguard_frac", "ratio", "lower"),
)

RUN_LAYER_METRICS = (
    ("probgen.gen_instance.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

END_TO_END = tuple(
    (f"{s}.{m}", unit, better)
    for s in SOLVERS
    for m, unit, better in (
        ("solve_s_p50", "s", "lower"),
        ("solve_s_tail", "s", "lower"),
        ("products_per_solve", "count", "lower"),
        ("iters_per_solve", "count", "lower"),
        ("solved_frac", "ratio", "higher"),
    )
) + (
    ("solves_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run prints, with unit and direction."""
    rows = [(f"{s}.{m}", unit, better) for s in SOLVERS
            for m, _, _, unit, better in SPAN_METRICS]
    rows += [(f"{s}.{m}", unit, better) for s in SOLVERS
             for m, unit, better in OUTCOME_METRICS]
    return rows + list(RUN_LAYER_METRICS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def product_bytes(out: Outcome, m: int, n: int) -> int:
    """Bytes the products of one solve read and write, from array sizes."""
    return 8 * ((out.fwd + out.adj) * (m * n + m + n) + out.col * 2 * m)


def gmean(values: list[int]) -> float:
    """Geometric mean, counting zeros as ones."""
    return math.exp(sum(math.log(max(v, 1)) for v in values) / len(values))


def count_metrics(loop: LoopResult) -> dict:
    """Counts over the first pass of distinct solves, so they repeat exactly.

    Per-solve products and iterations are geometric means: one trajectory
    solve or coherent root run can cost five times its neighbours, and a
    plain mean over the few such solves a run affords moves by a third
    between seeds.
    """
    metrics = {}
    for s in SOLVERS:
        first = [o for o in loop.first if o.solver == s]
        metrics.update({
            f"{s}.products_per_solve": gmean([o.products for o in first]),
            f"{s}.iters_per_solve": gmean([o.iterations for o in first]),
            f"{s}.solved_frac": _ratio(sum(o.solved for o in first), len(first)),
        })
    return metrics


def end_to_end_metrics(loop: LoopResult, setup_times: list[float]) -> dict:
    metrics = count_metrics(loop)
    for s in SOLVERS:
        times = loop.task_seconds(s)
        metrics[f"{s}.solve_s_p50"] = median(times)
        metrics[f"{s}.solve_s_tail"] = tail(times)[1]
    tasks = loop.task_seconds()
    metrics["solves_per_s"] = len(tasks) / sum(tasks)
    metrics["setup_s"] = float(np.median(setup_times))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def layer_metrics(tracer, solve_solver: list[str], traced: list[Outcome],
                  tasks: list[Task]) -> dict:
    """Per-solve layer metrics of the traced solves, split by solver."""
    metrics = {}
    for s in SOLVERS:
        ids = [i for i, name in enumerate(solve_solver) if name == s]
        n = len(ids)
        stats = tracer.stats(ids)
        for metric, span, stat, _, _ in SPAN_METRICS:
            calls, self_s, value = stats.get(span, (0, 0.0, 0.0))
            metrics[f"{s}.{metric}"] = {"calls": _ratio(calls, n),
                                        "self": _ratio(self_s, n),
                                        "ratio": _ratio(value, calls)}[stat]
        outs = [o for o in traced if o.solver == s]
        insts = [tasks[i % len(tasks)].inst for i, o in enumerate(traced)
                 if o.solver == s]
        iters = sum(o.iterations for o in outs)
        subs = sum(o.subproblems for o in outs)
        metrics.update({
            f"{s}.model.fwd_calls": _ratio(sum(o.fwd for o in outs), n),
            f"{s}.model.adj_calls": _ratio(sum(o.adj for o in outs), n),
            f"{s}.model.col_calls": _ratio(sum(o.col for o in outs), n),
            f"{s}.model.bytes_computed": _ratio(sum(
                product_bytes(o, *i.a.shape) for o, i in zip(outs, insts)), n),
            f"{s}.solver.qn_step_frac": _ratio(stats.get("solver.solve", (0, 0, 0))[2], iters),
            f"{s}.rootfind.subproblems_per_run": _ratio(subs, n),
            f"{s}.rootfind.iters_per_subproblem": _ratio(iters, subs),
            f"{s}.rootfind.safeguard_frac": _ratio(sum(o.safeguarded for o in outs), subs),
        })
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class TracedRun:
    """Traced twins of the untraced solves, and the spans they left."""

    tracer: object
    outcomes: list[Outcome] = field(default_factory=list)
    solvers: list[str] = field(default_factory=list)  # by solve id

    def loop(self, n_tasks: int) -> LoopResult:
        return LoopResult(self.outcomes, self.outcomes[:n_tasks], [])


def traced_solve(workload: Workload, tasks: list[Task], counts: ProductCounts):
    """A `solve` for run_loop that follows each plain solve with a traced twin.

    The twin solves the same instance right after, with every binding in
    tracer.BINDINGS wrapped and the operator's products timed, so both
    see the same machine state.  Returns (solve, TracedRun).
    """
    run = TracedRun(Tracer())
    tracer = run.tracer
    options = workload.options()
    problems = {id(t.inst): t.inst.with_operator(
        counting_operator(t.inst.a, counts, tracer.wrap)) for t in tasks}
    if workload.entry == "bpdn":
        roots = {s: tracer.wrap("rootfind.solve_bpdn", lassokit.solve_bpdn)
                 for s in SOLVERS}
    else:
        roots = {s: tracer.wrap("solver.solve", entry_point(workload, s),
                                lambda rep: rep.qn_steps) for s in SOLVERS}

    def solve(task: Task) -> Outcome:
        plain = solve_once(workload, task.inst, task.inst.problem, task.solver,
                           counts, options)
        tracer.solve_id = len(run.solvers)
        run.solvers.append(task.solver)
        with tracer.installed():
            twin = solve_once(workload, task.inst, problems[id(task.inst)],
                              task.solver, counts, options, roots[task.solver])
        twin.failures = check_outcome(workload, task.inst, twin)
        if task.solver == "hybrid":
            msg = check_pair(run.outcomes[-1], twin)
            if msg:
                run.outcomes[-1].misses.append(msg)
                twin.misses.append(msg)
        run.outcomes.append(twin)
        return plain

    return solve, run


def same_results(a: Outcome, b: Outcome) -> bool:
    return (a.status == b.status and a.iterations == b.iterations
            and (a.fwd, a.adj, a.col) == (b.fwd, b.adj, b.col)
            and (a.f == b.f or (math.isnan(a.f) and math.isnan(b.f))))


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        out_dir=None, log=print, env=None) -> dict:
    """One benchmark run; returns the result object printed last.

    `env(instances)` returns the environment record to log.
    """
    workload = WORKLOADS[workload_name]
    counts = ProductCounts()
    instances, setup_times, gen_times = setup(workload, seed, counts)
    if env is not None:
        log("# environment " + json.dumps(env(instances)))
    tasks = make_tasks(instances, seed)
    if not trace:
        loop = run_loop(workload, tasks, counts, seconds,
                        probe=speed_probe(workload, instances[0]))
        loops = [loop]
        errors = list(loop.errors)
        metrics = end_to_end_metrics(loop, setup_times)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        solve, traced = traced_solve(workload, tasks, counts)
        loop = run_loop(workload, tasks, counts, seconds / 2, solve=solve)
        loops = [loop, traced.loop(len(tasks))]
        errors = list(loop.errors)
        for k, (a, b) in enumerate(zip(loop.outcomes, traced.outcomes)):
            if not same_results(a, b):
                errors.append(f"traced solve {k} ({b.solver}) differs from untraced")
        for label, lp in zip(("untraced", "traced"), loops):
            log(f"# {label} pass: " + ", ".join(
                f"{k} = {v:.10g}" for k, v in count_metrics(lp).items()))
        metrics = layer_metrics(traced.tracer, traced.solvers, traced.outcomes, tasks)
        metrics["probgen.gen_instance.s"] = float(np.median(gen_times))
        metrics["trace.overhead_frac"] = (
            sum(o.seconds for o in traced.outcomes)
            / sum(o.seconds for o in loop.outcomes) - 1.0)
        units = {name: unit for name, unit, _ in per_layer_names()}
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            traced.tracer.save(out_dir / f"spans_{workload_name}_seed{seed}.npz")
    outcomes = [o for lp in loops for o in lp.outcomes]
    report(workload, tasks, loop, log)
    for e in errors:
        log(f"# error: {e}")
    failed = sum(1 for o in outcomes if o.failures)
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def report(workload: Workload, tasks: list[Task], loop: LoopResult, log) -> None:
    """Human-readable lines: sample counts, tail percentile, every miss."""
    for s in SOLVERS:
        wall = [o.seconds for o in loop.outcomes
                if o.solver == s and not math.isnan(o.seconds)]
        times = loop.task_seconds(s)
        log(f"# {workload.name} {s}: {len(wall)} timed solves of {len(times)} "
            f"tasks, tail = p{tail(times)[0]:.1f} of the tasks; unscaled "
            f"wall time p50 {np.median(wall):.4g} s")
    if loop.probes:
        slow = loop.slowdowns()
        log(f"# {workload.name} host slowdown over the run's fastest probe "
            f"({min(min(p) for p in loop.probes):.4g} s, "
            f"{sum(map(len, loop.probes))} probes): median "
            f"{np.median(slow):.3f}, max {max(slow):.3f}")
    for task, out in zip(tasks, loop.first):
        if not out.solved:
            why = "; ".join(out.failures + out.misses) or "not solved"
            log(f"# miss: {task.inst.family} instance seed {task.inst.seed} "
                f"{out.solver} status={out.status}: {why}")
