"""Projected-gradient and hybrid face/quasi-Newton solvers.

The projected-gradient (PG) method takes Barzilai-Borwein steps,
backtracking along the projected segment with a nonmonotone acceptance test.

The hybrid method alternates PG steps with face phases, as GPCG does for
bound constraints (More & Toraldo, SIAM J. Optim. 1(1), 1991).  A face phase
starts after any PG step that leaves the iterate on the same usable face as
before: the interior, or a boundary face with at least two support entries.
It runs a limited-memory quasi-Newton model in that face's coordinates,
seeded with the PG step's pair and Barzilai-Borwein scaling h0.  Each face
step goes to the exact minimizer of the objective along the model
direction, capped at the face edge: the first sign flip on a boundary face,
the sphere in the interior.  A capped step is accepted, lands exactly on the
subface, and the phase continues there with a fresh model and the same h0,
so face steps never grow the support.  So does an interior step that stops
within the feasibility slack of the sphere.  (Seeding that model with the
phase's earlier pairs saves steps but not time: each capped step would
reduce them all again and run a full-memory two-loop.)  The phase ends, and
the next iteration is a PG step, when

- `edge`: a capped step reaches a face that is not usable, a vertex;
- `no_descent`: the model finds no step (its direction does not descend,
  or an uncapped ray has no minimizer); or the step does not lower f and
  does not shrink the duality gap to STALL_GAP_SHRINK of its value;
- `stall`: the step lowers f by at most STALL_RATIO times the phase's
  largest decrease, and does not shrink the gap to STALL_GAP_SHRINK of its
  value;
- `off_face`: the gap of the phase's restricted problem reaches the
  tolerance, but the full gradient has an entry off its columns that beats
  the face (working-set phases only, below);
- `solve_end`: the solve stops during the phase.

The gap guard keeps a phase going near the optimum, where f changes only by
rounding but each step still cuts the gap.

A phase that opens on a proper face whose support S holds 2 to n/2
entries runs on a working set, as Celer does for the Lasso (Massias,
Gramfort & Salmon, ICML 2018), when the operator has a column callable (one
without would pay a forward product per column); so does a full phase from
the capped step that reaches such a face.  It gathers the columns A_S once
and steps on the problem restricted to them, built as an outer round's is,
from the point (x_S, r, f): A d and the gradient come from that problem's
own operator, and a capped continuation stays on it.  Each step's point is
lifted to all n entries for the oracle's best point, the history, the trace
and the carried pairs.  The phase's own oracle on the restricted problem
reads the stall and stop gap, never above the full gap.  Once that gap
reaches opt_tol the step forms its full gradient, one adjoint product, and
the oracle decides on the full certificate: the solve stops, or the phase
ends `off_face`.  So the solve stops only on a full certificate, and x, f
and gap come from one point.  `column_work` counts |S| per product on A_S.
The interior model, PG steps and spg keep their full products.

Both solvers run an outer working set around all of this, as Celer and
Blitz do for the Lasso (Massias, Gramfort & Salmon, ICML 2018; Johnson &
Guestrin, ICML 2015), on a problem of at least OUTER_MIN_ENTRIES entries
m*n whose operator has a column callable.  W starts as the start's support
and the OUTER_START entries of largest |g|/w, read off the start's
gradient, which the solve forms anyway.  Each round solves the problem
restricted to A_W, an F-ordered copy whose columns are gathered once (a
later round gathers only the new ones), to opt_tol, from the last round's
best point and WarmStart.  One full adjoint then lifts the round's best
dual point y = -r to all n columns, lam = max over i of
|A_i'y - c_i|/w_i: the solve stops when that full gap meets opt_tol, and
otherwise W gains up to |W| of the columns with |g_i|/w_i above the
round's multiplier.  When the next W would hold more than n/2 columns, or
no column violates, or no certificate of the round was finite, the full
solve finishes from the round's point.  Every round and that full solve
add into one tally against one max_iter: counts, |W| per round in
`working_set_sizes` (a last entry n is that full solve), and trace records
whose supports are mapped to full coordinates as they are recorded.
Between rounds the WarmStart is in full coordinates, zero off W.  The
report holds the best point with the full gap and multiplier.  Below the size
rule the rounds' restarts cost more than the products they save: on
sphere-walk 128x256 and 256x512 the outer set took 1.4x and 1.05x the
full path's time.

The phase keeps the pairs (s, y) of its last MEMORY steps, from the PG
step that opened it on: y is the change in the gradient, or on a
working-set step the change in the restricted gradient, zero off S.  f is
quadratic and its Hessian A'A + mu*I does not depend on tau, so
y = (A'A + mu*I)s holds at every radius, on S at least: on every face inside
S, the one a solve that stops in the phase ends on among them.  A solve can
start from a `WarmStart` that an earlier solve of the same f at another
radius returned (`SolverReport.warm`): its last Barzilai-Borwein step
becomes the first step, and when the start's face is usable, whichever it
is, the hybrid's first iteration is a face step from a model on it seeded
with the last phase's pairs reduced onto it, as L-BFGS-B reduces its pairs
onto the free variables (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput.
16(5), 1995).  A pair whose s lies in the face's difference hull and whose
y is exact on the face's support reduces to an exact secant pair of the
reduced Hessian; any other is an approximation, which the curvature check
may turn away and which can cost steps but not correctness: a face step
still goes to the exact ray minimizer and needs g'd < 0.  The solver builds
the face basis from its own problem, so a warm start from another problem
can cost steps but never feasibility.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from .arc import enumerate_arc
# No face phase runs the cone test, but perfbench/tracer.py binds
# in_self_projection_cone at this module all the same.
from .ball import (  # noqa: F401
    FaceId,
    first_sign_flip,
    in_self_projection_cone,
    max_step_on_face,
    project,
)
from .duality import StoppingOracle
from .facebasis import FaceBasis, apply_basis, apply_basis_adjoint, basis_init
from .linesearch import (
    SearchResult,
    bb_step,
    face_wolfe_search,
    nonmonotone_armijo_backtrack,
    trajectory_search,
)
from .model import (
    DenseOperator,
    Iterate,
    LassoProblem,
    LinearOperator,
    SolverOptions,
    evaluate,
)

STATUS_OPTIMAL = "optimal"
STATUS_ITER_LIMIT = "iter_limit"
STATUS_LINESEARCH_FAILURE = "linesearch_failure"
STATUS_NON_FINITE = "non_finite"  # f overflows at the projected start

HISTORY_LEN = 10  # nonmonotone window M
MEMORY = 8  # quasi-Newton pair budget N
ALPHA_MIN = 1e-10  # spectral step clamps
ALPHA_MAX = 1e10
CURVATURE_EPS = 1e-12  # pairs need s'y > CURVATURE_EPS*||s||*||y||
# A face step ends its phase when it lowers f by at most STALL_RATIO times
# the phase's largest decrease and leaves the gap above STALL_GAP_SHRINK of
# its value.
STALL_RATIO = 1e-3
STALL_GAP_SHRINK = 0.9
PHASE_ENDS = ("edge", "stall", "no_descent", "off_face", "solve_end")
# The outer working set runs on problems of at least OUTER_MIN_ENTRIES
# entries m*n.  It starts from the start's support and the OUTER_START
# entries of largest |g|/w.
OUTER_MIN_ENTRIES = 1 << 20
OUTER_START = 128


@dataclass
class TraceRecord:
    """One iteration's point.  `gap` is the one its stall and stop tests
    read: on a working-set face step, the gap of the phase's oracle on its
    restricted problem, unless that reached opt_tol and the full gap was
    formed; in an outer round, the gap of the round's restricted problem.
    `support` is in the problem's coordinates, and each outer round starts
    with an "init" record."""

    iteration: int
    f: float
    gap: float
    step_kind: str  # "pg" | "qn" | "init"
    face_dim: int | None
    support: NDArray | None = None


@dataclass(frozen=True)
class WarmStart:
    """What a solve hands to the next solve of the same f at another radius.

    `alpha_bb` is its last Barzilai-Borwein step and `pairs` the (s, y) of
    its last face phase with s'y > 0, as read-only copies; y is zero off the
    working set of a working-set step.  `h0` is that of the model open when
    it stopped, or `alpha_bb` when none was.
    """

    alpha_bb: float
    h0: float = 1.0
    pairs: tuple[tuple[NDArray, NDArray], ...] = ()


def _read_only(v: NDArray) -> NDArray:
    v = np.array(v, dtype=float)
    v.setflags(write=False)
    return v


@dataclass
class SolverReport:
    """The best point seen (x, r and f come from it) with the best dual bound.

    `gap` pairs the best point's f with the best dual bound, which may come
    from another point (on an outer solve, a round's lifted dual point), so
    a gap recomputed from x alone can read above opt_tol where `gap` meets it.
    """

    x: NDArray
    r: NDArray  # residual A x - b at x
    f: float
    gap: float
    lam: float
    status: str
    iterations: int
    qn_steps: int
    pg_steps: int
    phase_ends: dict[str, int]  # face phases by the reason each ended
    pairs_rejected: int  # quasi-Newton pairs the curvature check turned away
    warm_pairs: int  # carried pairs the first model stored
    warm: WarmStart  # the start it hands to a solve at another radius
    # The sum of |S| or |W| over the products formed on gathered columns:
    # a face phase's A_S, an outer round's A_W.
    column_work: int
    time_sec: float
    forward_products: int  # products A x the solve formed
    adjoint_products: int  # products A'y the solve formed
    column_reads: int  # columns of A the solve read through op.column
    working_set_sizes: list[int]  # |W| per outer round
    trace: list[TraceRecord]

    @property
    def face_phases(self) -> int:
        return sum(self.phase_ends.values())


@dataclass
class _Tally:
    """What every _solve call of one solve did, added up against max_iter:
    the full path's call, or an outer solve's rounds and full finish."""

    max_iter: int
    iterations: int = 0
    qn_steps: int = 0
    pg_steps: int = 0
    phase_ends: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(PHASE_ENDS, 0))
    pairs_rejected: int = 0
    warm_pairs: int | None = None  # set by the first call
    column_work: int = 0
    working_set_sizes: list[int] = field(default_factory=list)
    trace: list[TraceRecord] = field(default_factory=list)


class LbfgsModel:
    """Limited-memory quasi-Newton model in the coordinates of a face basis.

    `update` and `direction` take and return ambient vectors and reduce and
    embed them here.  A basis of None is the identity: the interior region,
    or plain coordinates.
    """

    def __init__(self, memory: int, h0: float, basis: FaceBasis | None = None):
        self.h0 = h0
        self.basis = basis
        self.pairs: deque[tuple[NDArray, NDArray, float]] = deque(maxlen=memory)

    def update(self, s: NDArray, y: NDArray) -> bool:
        """Store the pair when curvature s'y is safely positive."""
        if self.basis is not None:
            s = apply_basis_adjoint(self.basis, s)
            y = apply_basis_adjoint(self.basis, y)
        sy = float(s @ y)
        if sy <= CURVATURE_EPS * math.sqrt(s @ s) * math.sqrt(y @ y):
            return False
        self.pairs.append((s.copy(), y.copy(), 1.0 / sy))
        return True

    def direction(self, g: NDArray) -> NDArray:
        """Two-loop recursion: -H g.

        It takes s.dot(q), equal to s @ q bit for bit, which skips the
        matmul dispatch: up to 2*MEMORY products a call.
        """
        q = g.copy() if self.basis is None else apply_basis_adjoint(self.basis, g)
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s.dot(q))
            alphas.append(a)
            q -= a * y
        q *= self.h0
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y.dot(q))
            q += (a - b) * s
        np.negative(q, out=q)
        return q if self.basis is None else apply_basis(self.basis, q)


def _initial_bb(g: NDArray) -> float:
    gmax = float(np.max(np.abs(g))) if len(g) else 0.0
    if gmax <= 0:
        return 1.0
    return min(max(1.0 / gmax, ALPHA_MIN), ALPHA_MAX)


def _pg_search(problem: LassoProblem, it: Iterate, alpha_bb: float,
               fmax: float, options: SolverOptions) -> SearchResult:
    if options.line_search_mode == "trajectory":
        arc = enumerate_arc(it.x, -alpha_bb * it.g, problem.w, problem.tau)
        res = trajectory_search(problem, it, arc, fmax)
        if res.status != "failed":
            return res
    return nonmonotone_armijo_backtrack(problem, it, alpha_bb, fmax)


def spg_solve(
    problem: LassoProblem,
    x0: NDArray | None = None,
    options: SolverOptions | None = None,
    warm: WarmStart | None = None,
) -> SolverReport:
    return _run(problem, x0, options, False, warm)


def hybrid_solve(
    problem: LassoProblem,
    x0: NDArray | None = None,
    options: SolverOptions | None = None,
    warm: WarmStart | None = None,
) -> SolverReport:
    return _run(problem, x0, options, True, warm)


def _run(problem: LassoProblem, x0: NDArray | None,
         options: SolverOptions | None, hybrid: bool,
         warm: WarmStart | None) -> SolverReport:
    """Project and evaluate the start, solve on an outer working set when
    `_first_working_set` gives one and on the full problem otherwise, and
    report the best point with the tally, the solve's time and its products
    through op."""
    start = time.perf_counter()
    op = problem.op
    fwd0, adj0, col0 = op.forward_products, op.adjoint_products, op.column_reads
    options = options or SolverOptions()
    m, n = problem.shape
    tally = _Tally(options.max_iter if options.max_iter is not None else 10 * m)
    if x0 is None:
        x0 = np.zeros(n)
    x, _ = project(np.asarray(x0, dtype=float), problem.ball_w, problem.tau)
    it = evaluate(problem, x)
    oracle = StoppingOracle(problem, options.opt_tol)
    w = _first_working_set(problem, it)
    if w is None:
        status, warm = _solve(problem, it, oracle, options, hybrid, warm, tally)
    else:
        status, warm = _outer_solve(problem, it, w, oracle, options, hybrid,
                                    warm, tally)
    # The best point, whose f the gap reads, or the start when no f was finite.
    best = _exact(oracle.best if math.isfinite(it.f) else it)
    return SolverReport(
        x=best.x, r=best.r, f=best.f, gap=oracle.gap, lam=oracle.lambda_best,
        status=status, iterations=tally.iterations, qn_steps=tally.qn_steps,
        pg_steps=tally.pg_steps, phase_ends=tally.phase_ends,
        pairs_rejected=tally.pairs_rejected, warm_pairs=tally.warm_pairs,
        warm=warm, column_work=tally.column_work,
        time_sec=time.perf_counter() - start,
        forward_products=op.forward_products - fwd0,
        adjoint_products=op.adjoint_products - adj0,
        column_reads=op.column_reads - col0,
        working_set_sizes=tally.working_set_sizes, trace=tally.trace)


def _exact(it: Iterate) -> Iterate:
    """it, or when its residual was updated and drifts from x by rounding,
    the point at x with its exact r and f: one forward product."""
    return it if it.r_exact else evaluate(it.problem, it.x)


def _solve(problem: LassoProblem, it: Iterate, oracle: StoppingOracle,
           options: SolverOptions, hybrid: bool, warm: WarmStart | None,
           tally: _Tally, w: NDArray | None = None) -> tuple[str, WarmStart]:
    """Solve from the evaluated start it, a point of the ball, adding what
    it does into the tally, until oracle stops it at its own tolerance or
    the tally reaches max_iter; return the status and the WarmStart.  w
    maps the problem's columns to the full problem's for trace supports,
    None on the full problem."""
    n = problem.shape[1]
    history: deque[float] = deque([it.f], maxlen=HISTORY_LEN)
    status = STATUS_ITER_LIMIT

    def record(kind: str, gap: float) -> None:
        if options.trace:
            face = it.face
            on_face = face is not None and face.kind != "interior"
            tally.trace.append(TraceRecord(
                iteration=tally.iterations, f=it.f, gap=gap, step_kind=kind,
                face_dim=face.dim if on_face else None,
                support=None if not on_face else (
                    face.support if w is None else np.sort(w[face.support])),
            ))

    # The face phase's model, None between phases, and the iterate its
    # steps run from: it, or on a working set ws, the point of the problem
    # restricted to A_ws, whose own oracle reads the phase's stall and stop
    # gap.  `memory` holds the (s, y) of the last phase's last steps.
    model = ws = phase_oracle = None
    face_it = it
    memory = deque(maxlen=MEMORY)
    largest = 0.0  # the largest decrease of a step in this face phase

    def open_phase(h0: float, pairs) -> int | None:
        """Open a face phase at it whose model is seeded with pairs, in full
        coordinates; the number of pairs it stored, None when the face is
        not usable."""
        nonlocal model, face_it, ws, phase_oracle
        model, face_it, ws = _open_phase(problem, it, h0)
        if model is None:
            return None
        if ws is not None:
            phase_oracle = StoppingOracle(face_it.problem, options.opt_tol)
            pairs = [(s[ws], y[ws]) for s, y in pairs]
        stored = sum(model.update(s, y) for s, y in pairs)
        tally.pairs_rejected += len(pairs) - stored
        return stored

    def end_phase(reason: str) -> None:
        nonlocal model, ws
        tally.phase_ends[reason] += 1
        if ws is not None:
            tally.column_work += _column_work(face_it.problem)
        model = ws = None

    finite = math.isfinite(it.f)  # else no step can be tested against f
    done = finite and oracle.update(it)
    gap = oracle.gap  # the gap the last stall or stop test read
    record("init", gap)
    # A carried step outside the clamps falls back to the cold one.
    alpha_bb = (warm.alpha_bb if warm is not None
                and ALPHA_MIN <= warm.alpha_bb <= ALPHA_MAX else _initial_bb(it.g))
    warm_pairs = 0  # carried pairs the first model kept
    if hybrid and finite and warm is not None and warm.pairs and all(
            len(s) == len(y) == n for s, y in warm.pairs):
        memory.extend(warm.pairs)
        warm_pairs = open_phase(warm.h0, memory) or 0
    if tally.warm_pairs is None:
        tally.warm_pairs = warm_pairs

    while finite and not done and tally.iterations < tally.max_iter:
        tally.iterations += 1
        prev, face_prev = it, face_it
        kind = "pg"

        if model is not None:
            gap_before = gap
            res, bound = _face_step(face_it.problem, face_it, model)
            if res.status == "accepted":
                face_it = res.iterate
                it = face_it if ws is None else _lift(face_it, ws, problem)
                history.clear()
                history.append(it.f)
                tally.qn_steps += 1
                kind = "qn"
            else:
                end_phase("no_descent")

        if kind == "pg":
            res = _pg_search(problem, it, alpha_bb, max(history), options)
            if res.status != "accepted":
                # Failed, or stationary: no move from an iterate the oracle
                # rejects, so either way the run is stuck.
                status = STATUS_LINESEARCH_FAILURE
                break
            it = res.iterate
            history.append(it.f)
            tally.pg_steps += 1

        s = it.x - prev.x
        if ws is None:
            y = it.g - prev.g
            done = oracle.update(it)
            gap = oracle.gap
        else:
            # The change in the restricted gradient: exact on ws, zero off it.
            dy = face_it.g - face_prev.g
            y = _embed(dy, ws, n)
            oracle.take(it)
            if phase_oracle.update(face_it):  # the restricted gap meets opt_tol
                done = oracle.bound(it)  # one full adjoint product
                gap = oracle.gap
                if not done:
                    end_phase("off_face")
            else:
                gap = phase_oracle.gap
        alpha_bb = bb_step(s, y, ALPHA_MIN, ALPHA_MAX)
        record(kind, gap)
        if not hybrid or done:
            continue
        if kind == "pg":
            if prev.face == it.face and open_phase(alpha_bb, [(s, y)]) is not None:
                memory = deque([(s, y)], maxlen=MEMORY)
                largest = 0.0
            continue
        memory.append((s, y))
        if model is None:  # ended off the face
            continue
        drop = prev.f - it.f
        largest = max(largest, drop)
        if drop <= STALL_RATIO * largest and gap > STALL_GAP_SHRINK * gap_before:
            end_phase("stall" if drop > 0 else "no_descent")
        elif res.alpha == bound or (model.basis is None
                                    and face_it.face.kind != "interior"):
            # Capped, or an interior step that stopped within the
            # feasibility slack of the sphere, where the interior cap is no
            # longer the sphere crossing.  A working-set phase goes on to
            # the face reached on its own problem; a full one may open a
            # working set there.
            if ws is None:
                open_phase(model.h0, [])
            else:
                model = _face_model(face_it.problem, face_it.face, model.h0)
            if model is None:
                end_phase("edge")
        else:
            tally.pairs_rejected += not (model.update(s, y) if ws is None
                                         else model.update(s[ws], dy))

    if finite and not done:
        # A working-set step reads its iterate's full certificate only when
        # the restricted gap reaches opt_tol.  Read the last iterate's once,
        # so that the gap pairs the best f with a current dual bound: at
        # most one adjoint product, none after a PG search, which formed the
        # gradient.  It may yet certify the iterate.
        done = oracle.update(it)
    if status == STATUS_LINESEARCH_FAILURE:
        record("pg", oracle.gap)
    if done:
        status = STATUS_OPTIMAL
    elif not finite:
        status = STATUS_NON_FINITE
    h0 = alpha_bb if model is None else model.h0
    if model is not None:
        end_phase("solve_end")
    return status, WarmStart(alpha_bb, h0, tuple(
        (_read_only(s), _read_only(y)) for s, y in memory if float(s @ y) > 0))


def _first_working_set(problem: LassoProblem, it: Iterate) -> NDArray | None:
    """W0 of the outer working set at the start it, or None for the full path.

    W0 is the start's support and the OUTER_START entries of largest
    |g|/w.  The outer set runs when the operator reads columns, m*n is at
    least OUTER_MIN_ENTRIES, f is finite at the start and W0 holds at most
    n/2 columns.  Smaller problems solved faster on the full path: the
    rounds' restarts cost more than the products they save.
    """
    m, n = problem.shape
    if (not problem.op.reads_columns or m * n < OUTER_MIN_ENTRIES
            or not math.isfinite(it.f)):
        return None
    score = np.abs(it.g) if problem.ball_w is None else np.abs(it.g) / problem.ball_w
    k = min(OUTER_START, n)
    w = np.union1d(np.flatnonzero(it.x), np.argpartition(score, n - k)[n - k:])
    return w if 2 * len(w) <= n else None


def _outer_solve(problem: LassoProblem, it: Iterate, w: NDArray,
                 oracle: StoppingOracle, options: SolverOptions, hybrid: bool,
                 warm: WarmStart | None, tally: _Tally) -> tuple[str, WarmStart]:
    """Solve on working sets W, from w, certified on all n columns.

    Each round solves the problem restricted to the columns A_W, gathered
    once into an F-ordered copy, to opt_tol, from the last round's best
    point and WarmStart, restricted to W.  Its inner best point, made
    exact, is the full problem's candidate, and one full adjoint lifts the
    inner oracle's best dual point y = -r: lam = max over all i of
    |A_i'y - c_i|/w_i.  The solve stops when that full gap meets opt_tol;
    otherwise W gains up to |W| columns with |g_i|/w_i above the inner
    multiplier, the largest ones.  With no such column the full certificate
    is the inner one, to rounding, so the inner tolerance needs no margin.
    When none does all the same, or W would pass n/2 columns, or the round
    has no dual point (every certificate overflowed), the full solve
    finishes from the round's point.
    """
    m, n = problem.shape
    if tally.max_iter == 0 or oracle.update(it):  # no round to run
        return _solve(problem, it, oracle, options, hybrid, warm, tally)
    cols = np.empty((m, 0), order="F")
    while tally.iterations < tally.max_iter:
        cols = _gather(problem.op, cols, w[cols.shape[1]:])
        sub = _restricted(problem, cols, w)
        best = oracle.best  # zero off W, with an exact residual
        sub_oracle = StoppingOracle(sub, options.opt_tol)
        tally.working_set_sizes.append(len(w))
        if warm is not None:  # held in full coordinates: restrict it to W
            warm = replace(warm, pairs=tuple(
                (s[w], y[w]) for s, y in warm.pairs if len(s) == len(y) == n))
        status, warm = _solve(
            sub, Iterate(x=best.x[w], r=best.r, f=best.f, problem=sub),
            sub_oracle, options, hybrid, warm, tally, w)
        warm = replace(warm, pairs=tuple(
            (_read_only(_embed(s, w, n)), _read_only(_embed(y, w, n)))
            for s, y in warm.pairs))
        best = _exact(sub_oracle.best)  # its product is on A_W: count it
        tally.column_work += _column_work(sub)
        oracle.take(_lift(best, w, problem))
        dual = sub_oracle.dual_point  # None when no certificate was finite
        dual = None if dual is None else _lift(dual, w, problem)
        done = dual is not None and oracle.bound(dual)  # one full adjoint
        if done or status == STATUS_ITER_LIMIT:
            break
        grow = [] if dual is None else _violators(problem, dual.g, w,
                                                  sub_oracle.lambda_best)
        if not len(grow) or 2 * (len(w) + len(grow)) > n:
            tally.working_set_sizes.append(n)
            return _solve(problem, oracle.best, oracle, options, hybrid, warm,
                          tally)
        w = np.concatenate([w, grow])
    return STATUS_OPTIMAL if done else STATUS_ITER_LIMIT, warm


def _gather(op: LinearOperator, cols: NDArray, new: NDArray) -> NDArray:
    """An F-ordered copy of cols with the columns `new` of op appended."""
    out = np.empty((cols.shape[0], cols.shape[1] + len(new)), order="F")
    out[:, :cols.shape[1]] = cols
    for j, i in enumerate(new.tolist(), cols.shape[1]):
        out[:, j] = op.column(i)
    return out


def _restricted(problem: LassoProblem, cols: NDArray,
                idx: NDArray) -> LassoProblem:
    """problem restricted to its columns idx, gathered in cols."""
    return LassoProblem(op=DenseOperator(cols), b=problem.b, tau=problem.tau,
                        w=problem.w[idx], mu=problem.mu, c=problem.c[idx])


def _column_work(sub: LassoProblem) -> int:
    """The products formed on a restricted problem, times its columns."""
    return sub.shape[1] * (sub.op.forward_products + sub.op.adjoint_products)


def _embed(v: NDArray, w: NDArray, n: int) -> NDArray:
    """The length-n vector that holds v at the entries w, zero elsewhere."""
    out = np.zeros(n)
    out[w] = v
    return out


def _violators(problem: LassoProblem, g: NDArray, w: NDArray,
               lam: float) -> NDArray:
    """Up to len(w) columns off w with |g_i|/w_i > lam: the largest ones."""
    score = np.abs(g) if problem.ball_w is None else np.abs(g) / problem.ball_w
    score[w] = -np.inf
    grow = np.flatnonzero(score > lam)
    if len(grow) > len(w):
        grow = grow[np.argpartition(-score[grow], len(w) - 1)[:len(w)]]
    return grow


def _lift(it: Iterate, w: NDArray, problem: LassoProblem) -> Iterate:
    """The point of problem holding it.x at the entries w, zero elsewhere."""
    return Iterate(x=_embed(it.x, w, problem.shape[1]), r=it.r, f=it.f,
                   problem=problem, r_exact=it.r_exact)


def _face_model(problem: LassoProblem, face: FaceId | None,
                h0: float) -> LbfgsModel | None:
    """A fresh model on a usable face (the interior, or support size >= 2)."""
    if face is None or (face.kind == "proper" and len(face.support) < 2):
        return None
    basis = (None if face.kind == "interior"
             else basis_init(face, problem.w, problem.shape[1]))
    return LbfgsModel(MEMORY, h0, basis)


def _open_phase(problem: LassoProblem, it: Iterate,
                h0: float) -> tuple[LbfgsModel | None, Iterate, NDArray | None]:
    """A fresh model on the face of it, with the iterate its steps run from
    and its working set: the face's support S, or None on the full path.

    A proper face of 2 to n/2 support entries runs on a working set when
    the operator reads columns: its columns A_S are gathered once, and the
    phase runs on the problem restricted to them, from the point (x_S, r,
    f).  Above n/2 a face step saves less than half its products, and the
    full path was the faster one on the sphere-walk faces measured there.
    """
    m, n = problem.shape
    face = it.face
    ws = None if face is None or face.kind != "proper" else face.support
    if (ws is None or len(ws) < 2 or 2 * len(ws) > n
            or not problem.op.reads_columns):
        return _face_model(problem, face, h0), it, None
    sub = _restricted(problem, _gather(problem.op, np.empty((m, 0)), ws), ws)
    it = Iterate(x=it.x[ws], r=it.r, f=it.f, problem=sub, r_exact=it.r_exact)
    return _face_model(sub, it.face, h0), it, ws


def _face_step(problem: LassoProblem, it: Iterate,
               model: LbfgsModel) -> tuple[SearchResult, float]:
    """The model's step from it, capped at the face edge, and that cap.

    A direction built from the face basis keeps the weighted norm, so its
    edge is the first sign flip; an interior one runs to the sphere.
    """
    d = model.direction(it.g)
    if model.basis is None:
        bound = max_step_on_face(it.x, d, problem.w, problem.tau)
    else:
        bound = first_sign_flip(it.x, d)
    return face_wolfe_search(problem, it, d, bound), bound
