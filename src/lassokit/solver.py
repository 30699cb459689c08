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
- `solve_end`: the solve stops during the phase.

The gap guard keeps a phase going near the optimum, where f changes only by
rounding but each step still cuts the gap.

The phase keeps the ambient pairs (s, y) of its last MEMORY steps, from the
PG step that opened it on.  A solve can start from a `WarmStart` that an
earlier solve of the same f at another radius returned (`SolverReport.warm`):
its last Barzilai-Borwein step becomes the first step, and when the start's
face is usable, whichever it is, the hybrid's first iteration is a face step
from a model on it seeded with the last phase's pairs reduced onto it, as
L-BFGS-B reduces its pairs onto the free variables (Byrd, Lu, Nocedal & Zhu,
SIAM J. Sci. Comput. 16(5), 1995).  f is quadratic and its Hessian
A'A + mu*I does not depend on tau, so y = (A'A + mu*I)s holds at every radius
and on every face.  A pair whose s lies in the face's difference hull reduces
to an exact secant pair of the reduced Hessian; any other is an
approximation, which the curvature check may turn away and which can cost
steps but not correctness: a face step still goes to the exact ray minimizer
and needs g'd < 0.  The solver builds the face basis from its own problem,
so a warm start from another problem can cost steps but never feasibility.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

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
from .model import Iterate, LassoProblem, SolverOptions, evaluate, objective_value

STATUS_OPTIMAL = "optimal"
STATUS_ITER_LIMIT = "iter_limit"
STATUS_LINESEARCH_FAILURE = "linesearch_failure"

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
PHASE_ENDS = ("edge", "stall", "no_descent", "solve_end")


@dataclass
class TraceRecord:
    iteration: int
    f: float
    gap: float
    step_kind: str  # "pg" | "qn" | "init"
    face_dim: int | None
    support: NDArray | None = None


@dataclass(frozen=True)
class WarmStart:
    """What a solve hands to the next solve of the same f at another radius.

    `alpha_bb` is its last Barzilai-Borwein step and `pairs` the ambient
    (s, y, 1/s'y) of its last face phase.  `face` and `h0` are those of the
    model open when it stopped; when none was, `face` is None and `h0` is
    `alpha_bb`.  No solve reads `face`.  The arrays are read-only copies.
    """

    alpha_bb: float
    face: FaceId | None = None
    h0: float = 1.0
    pairs: tuple[tuple[NDArray, NDArray, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(
            (_read_only(s), _read_only(y), float(rho)) for s, y, rho in self.pairs))


def _read_only(v: NDArray) -> NDArray:
    v = np.array(v, dtype=float)
    v.setflags(write=False)
    return v


@dataclass
class SolverReport:
    """The best point seen (x, r and f come from it) with the best dual bound."""

    x: NDArray
    r: NDArray  # residual A x - b at x
    f: float
    gap: float
    lam: float
    status: str
    iterations: int
    qn_steps: int
    pg_steps: int
    time_sec: float
    phase_ends: dict[str, int]  # face phases by the reason each ended
    pairs_rejected: int  # quasi-Newton pairs the curvature check turned away
    warm_pairs: int  # carried pairs the first model stored
    warm: WarmStart  # the start it hands to a solve at another radius
    forward_products: int  # products A x the solve formed
    adjoint_products: int  # products A'y the solve formed
    trace: list[TraceRecord] = field(default_factory=list)

    @property
    def face_phases(self) -> int:
        return sum(self.phase_ends.values())


class LbfgsModel:
    """Limited-memory quasi-Newton model in the coordinates of a face basis.

    `update` and `direction` take and return ambient vectors and reduce and
    embed them here.  A basis of None is the identity: the interior region,
    or plain coordinates.  `face` is the face the basis spans, when known.
    """

    def __init__(self, memory: int, h0: float, basis: FaceBasis | None = None,
                 face: FaceId | None = None):
        self.memory = memory
        self.h0 = h0
        self.basis = basis
        self.face = face
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
    return _solve(problem, x0, options, hybrid=False, warm=warm)


def hybrid_solve(
    problem: LassoProblem,
    x0: NDArray | None = None,
    options: SolverOptions | None = None,
    warm: WarmStart | None = None,
) -> SolverReport:
    return _solve(problem, x0, options, hybrid=True, warm=warm)


def _solve(
    problem: LassoProblem,
    x0: NDArray | None,
    options: SolverOptions | None,
    hybrid: bool,
    warm: WarmStart | None,
) -> SolverReport:
    start = time.perf_counter()
    op = problem.op
    fwd0, adj0 = op.forward_products, op.adjoint_products
    options = options or SolverOptions()
    m, n = problem.shape
    max_iter = options.max_iter if options.max_iter is not None else 10 * m
    if x0 is None:
        x0 = np.zeros(n)
    x, _ = project(np.asarray(x0, dtype=float), problem.ball_w, problem.tau)
    it = evaluate(problem, x)
    oracle = StoppingOracle(problem, options.opt_tol)
    history: deque[float] = deque([it.f], maxlen=HISTORY_LEN)
    trace: list[TraceRecord] = []
    qn_steps = pg_steps = 0
    r_updated = False  # it.r came from a step's update r + a*A d, not from A x - b
    status = STATUS_ITER_LIMIT

    def record(i: int, kind: str) -> None:
        if options.trace:
            face = it.face
            trace.append(TraceRecord(
                iteration=i, f=it.f, gap=oracle.gap, step_kind=kind,
                face_dim=None if face is None or face.kind == "interior"
                else face.dim,
                support=None if face is None or face.kind == "interior"
                else face.support,
            ))

    done = oracle.update(it)
    record(0, "init")
    # A carried step outside the clamps falls back to the cold one.
    alpha_bb = (warm.alpha_bb if warm is not None
                and ALPHA_MIN <= warm.alpha_bb <= ALPHA_MAX else _initial_bb(it.g))
    # The face phase's model, None between phases, and the ambient (s, y)
    # of the last phase's last steps.
    model, memory = None, deque(maxlen=MEMORY)
    rejected = warm_pairs = 0  # pairs the curvature check turned away / kept
    if hybrid and warm is not None and warm.pairs and all(
            len(s) == len(y) == n for s, y, _ in warm.pairs):
        memory.extend((s, y) for s, y, _ in warm.pairs)
        model = _face_model(problem, it.face, warm.h0)
        if model is not None:
            warm_pairs = sum(model.update(s, y) for s, y in memory)
            rejected = len(memory) - warm_pairs
    largest = 0.0  # the largest decrease of a step in this face phase
    phase_ends = dict.fromkeys(PHASE_ENDS, 0)

    iteration = 0
    while not done and iteration < max_iter:
        iteration += 1
        prev = it
        kind = "pg"

        if model is not None:
            gap_before = oracle.gap
            res, bound = _face_step(problem, it, model)
            if res.status == "accepted":
                it = res.iterate
                history.clear()
                history.append(it.f)
                qn_steps += 1
                kind = "qn"
                r_updated = True
            else:
                model = None
                phase_ends["no_descent"] += 1

        if kind == "pg":
            res = _pg_search(problem, it, alpha_bb, max(history), options)
            if res.status != "accepted":
                # Failed, or stationary: no move from an iterate the oracle
                # has already rejected, so either way the run is stuck.
                status = STATUS_LINESEARCH_FAILURE
                record(iteration, "pg")
                break
            it = res.iterate
            history.append(it.f)
            pg_steps += 1
            r_updated = res.trials > 1  # a backtracked trial's r is r + lam*A d

        s = it.x - prev.x
        y = it.g - prev.g
        alpha_bb = bb_step(s, y, ALPHA_MIN, ALPHA_MAX)

        done = oracle.update(it, r_exact=not r_updated)
        record(iteration, kind)
        if not hybrid or done:
            continue
        if kind == "pg":
            if prev.face == it.face:
                model = _face_model(problem, it.face, alpha_bb)
                if model is not None:
                    memory = deque([(s, y)], maxlen=MEMORY)
                    rejected += not model.update(s, y)
                    largest = 0.0
            continue
        memory.append((s, y))
        drop = prev.f - it.f
        largest = max(largest, drop)
        if (drop <= STALL_RATIO * largest
                and oracle.gap > STALL_GAP_SHRINK * gap_before):
            model = None
            phase_ends["stall" if drop > 0 else "no_descent"] += 1
        elif res.alpha == bound or (model.basis is None
                                    and it.face.kind != "interior"):
            # Capped, or an interior step that stopped within the
            # feasibility slack of the sphere, where the interior cap is no
            # longer the sphere crossing.
            model = _face_model(problem, it.face, model.h0)
            if model is None:
                phase_ends["edge"] += 1
        else:
            rejected += not model.update(s, y)

    if done:
        status = STATUS_OPTIMAL
    if model is not None:
        phase_ends["solve_end"] += 1
    # Report the best point, whose f the gap reads.  An updated residual
    # drifts by rounding, so then report the exact f and r at its x.
    best = oracle.best
    f, r = (best.f, best.r) if best.r_exact else objective_value(problem, best.x)
    return SolverReport(
        x=best.x, r=r, f=f, gap=oracle.gap, lam=oracle.lambda_best,
        status=status, iterations=iteration, qn_steps=qn_steps,
        pg_steps=pg_steps, time_sec=time.perf_counter() - start,
        phase_ends=phase_ends, pairs_rejected=rejected, warm_pairs=warm_pairs,
        trace=trace, warm=WarmStart(
            alpha_bb, model.face if model else None, model.h0 if model else alpha_bb,
            tuple((s, y, 1.0 / sy) for s, y in memory if (sy := float(s @ y)) > 0)),
        forward_products=op.forward_products - fwd0,
        adjoint_products=op.adjoint_products - adj0,
    )


def _face_model(problem: LassoProblem, face: FaceId | None,
                h0: float) -> LbfgsModel | None:
    """A fresh model on a usable face (the interior, or support size >= 2)."""
    if face is None or (face.kind == "proper" and len(face.support) < 2):
        return None
    basis = (None if face.kind == "interior"
             else basis_init(face, problem.w, problem.shape[1]))
    return LbfgsModel(MEMORY, h0, basis, face)


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
