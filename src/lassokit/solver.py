"""Projected-gradient and hybrid face/quasi-Newton solvers.

The projected-gradient method takes Barzilai-Borwein steps, backtracking
along the projected segment with a nonmonotone acceptance test.  The
hybrid method additionally maintains a limited-memory quasi-Newton model in
the coordinates of the current face whenever consecutive iterates share a
face and the negative gradient points into that face's self-projection cone;
model steps stay on the face (never growing its support) and use an exact
Wolfe step for the quadratic objective.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .arc import enumerate_arc
from .ball import in_self_projection_cone, max_step_on_face, project
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


@dataclass
class TraceRecord:
    iteration: int
    f: float
    gap: float
    step_kind: str  # "pg" | "qn" | "init"
    face_dim: int | None
    support: NDArray | None = None


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
    trace: list[TraceRecord] = field(default_factory=list)


class LbfgsModel:
    """Limited-memory quasi-Newton model in the coordinates of a face basis.

    `update` and `direction` take and return ambient vectors and reduce and
    embed them here.  A basis of None is the identity: the interior region,
    or plain coordinates.
    """

    def __init__(self, memory: int, h0: float, basis: FaceBasis | None = None):
        self.memory = memory
        self.h0 = h0
        self.basis = basis
        self.pairs: deque[tuple[NDArray, NDArray, float]] = deque(maxlen=memory)

    def update(self, s: NDArray, y: NDArray) -> bool:
        """Store the pair when curvature s'y is safely positive."""
        if self.basis is not None:
            s = apply_basis_adjoint(self.basis, s)
            y = apply_basis_adjoint(self.basis, y)
        sy = float(s @ y)
        if sy <= CURVATURE_EPS * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            return False
        self.pairs.append((s.copy(), y.copy(), 1.0 / sy))
        return True

    def direction(self, g: NDArray) -> NDArray:
        """Two-loop recursion: -H g."""
        q = g.copy() if self.basis is None else apply_basis_adjoint(self.basis, g)
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        q *= self.h0
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        return -q if self.basis is None else apply_basis(self.basis, -q)


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
) -> SolverReport:
    return _solve(problem, x0, options, hybrid=False)


def hybrid_solve(
    problem: LassoProblem,
    x0: NDArray | None = None,
    options: SolverOptions | None = None,
) -> SolverReport:
    return _solve(problem, x0, options, hybrid=True)


def _solve(
    problem: LassoProblem,
    x0: NDArray | None,
    options: SolverOptions | None,
    hybrid: bool,
) -> SolverReport:
    start = time.perf_counter()
    options = options or SolverOptions()
    m, n = problem.shape
    max_iter = options.max_iter if options.max_iter is not None else 10 * m
    if x0 is None:
        x0 = np.zeros(n)
    x, _ = project(np.asarray(x0, dtype=float), problem.w, problem.tau)
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
    alpha_bb = _initial_bb(it.g)
    model: LbfgsModel | None = None

    iteration = 0
    while not done and iteration < max_iter:
        iteration += 1
        prev = it
        kind = "pg"

        stepped = False
        if hybrid and model is not None and len(model.pairs) > 0:
            d = model.direction(it.g)
            if float(it.g @ d) < 0:
                bound = max_step_on_face(it.x, d, problem.w, problem.tau)
                res = face_wolfe_search(problem, it, d, bound)
                if res.status == "accepted":
                    it = res.iterate
                    history.clear()
                    history.append(it.f)
                    qn_steps += 1
                    kind = "qn"
                    stepped = r_updated = True
            if not stepped:
                model = None  # model step rejected; fall back to gradient

        if not stepped:
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
        if hybrid and not done:
            model = _maintain_model(problem, prev, it, model, s, y)

    if done:
        status = STATUS_OPTIMAL
    # Report the best point, whose f the gap reads.  An updated residual
    # drifts by rounding, so then report the exact f and r at its x.
    best = oracle.best
    f, r = (best.f, best.r) if best.r_exact else objective_value(problem, best.x)
    return SolverReport(
        x=best.x, r=r, f=f, gap=oracle.gap, lam=oracle.lambda_best,
        status=status, iterations=iteration, qn_steps=qn_steps,
        pg_steps=pg_steps, time_sec=time.perf_counter() - start, trace=trace,
    )


def _maintain_model(
    problem: LassoProblem,
    prev: Iterate,
    it: Iterate,
    model: LbfgsModel | None,
    s: NDArray,
    y: NDArray,
) -> LbfgsModel | None:
    """Keep, extend, or discard the face model after the step s from prev to it.

    A live model was built on prev's face, so it is kept only while the
    face stays the same.
    """
    face = it.face
    if prev.face != face:
        return None
    usable = face is not None and (
        face.kind == "interior" or len(face.support) >= 2
    )
    if not (usable and in_self_projection_cone(
            it.x, -it.g, problem.w, problem.tau)):
        return None
    if model is None:
        model = LbfgsModel(
            MEMORY, bb_step(s, y, ALPHA_MIN, ALPHA_MAX),
            None if face.kind == "interior"
            else basis_init(face, problem.w, problem.shape[1]))
    model.update(s, y)
    return model
