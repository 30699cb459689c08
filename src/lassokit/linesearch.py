"""Line searches: nonmonotone Armijo backtracking over the projected-gradient
path, exact Wolfe windows for quadratic objectives on a face, and a search
along the full projection trajectory."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .arc import ProjectionArc
from .ball import project
from .model import (
    Iterate,
    LassoProblem,
    RayObjective,
    SolverOptions,
    evaluate,
    objective_value,
)

# Incremental matrix-column products are rebuilt from scratch this often.
RECOMPUTE_EVERY = 50


class UnboundedRayError(RuntimeError):
    """The objective decreases without bound along the given ray."""


class HistoryBuffer:
    """Sliding window of recent objective values for nonmonotone descent."""

    def __init__(self, maxlen: int):
        self._q: deque[float] = deque(maxlen=maxlen)

    def push(self, f: float) -> None:
        self._q.append(f)

    def maximum(self) -> float:
        if not self._q:
            raise ValueError("history is empty")
        return max(self._q)

    def reset(self, f: float) -> None:
        """Empty the window and seed it with the current objective."""
        self._q.clear()
        self._q.append(f)

    def __len__(self) -> int:
        return len(self._q)


def bb_step(s: NDArray, y: NDArray, alpha_min: float, alpha_max: float) -> float:
    """Barzilai-Borwein step s's / s'y, clamped; alpha_max when curvature <= 0."""
    sy = float(s @ y)
    if sy <= 0:
        return alpha_max
    return min(max(float(s @ s) / sy, alpha_min), alpha_max)


def alpha_opt(problem: LassoProblem, iterate: Iterate, d: NDArray) -> float:
    """Exact minimizer of the quadratic objective along x + alpha*d."""
    ray = RayObjective(problem, iterate.x, d, r=iterate.r)
    gd = float(iterate.g @ d)
    denom = 2.0 * ray.c2
    if denom <= 0:
        if gd < 0:
            raise UnboundedRayError("flat curvature with descent direction")
        return np.inf
    return -gd / denom


def wolfe_window(problem: LassoProblem, iterate: Iterate, d: NDArray,
                 g1: float, g2: float) -> tuple[float, float]:
    """Exact interval of steps satisfying both Wolfe conditions.

    For a strictly convex quadratic along the ray, sufficient decrease with
    parameter g1 holds up to 2*(1 - g1)*a_opt and the curvature condition
    with parameter g2 from (1 - g2)*a_opt on.
    """
    gd = float(iterate.g @ d)
    if gd >= 0:
        raise ValueError("Wolfe window requires a descent direction")
    a = alpha_opt(problem, iterate, d)
    return (1.0 - g2) * a, 2.0 * (1.0 - g1) * a


@dataclass
class SearchResult:
    status: str  # accepted | stationary | failed
    iterate: Iterate | None = None
    alpha: float = 0.0
    trials: int = 0


def nonmonotone_armijo_backtrack(
    problem: LassoProblem,
    iterate: Iterate,
    alpha0: float,
    history: HistoryBuffer,
    options: SolverOptions,
) -> SearchResult:
    """Backtrack along the projected path x(a) = P(x - a*g).

    Accepts the first trial with f(x(a)) <= max(history) + gamma * g'(x(a)-x).
    A zero-length accepted move reports `stationary`.
    """
    x, g = iterate.x, iterate.g
    fmax = history.maximum()
    a = alpha0
    for k in range(options.max_backtracks):
        xa, _ = project(x - a * g, problem.w, problem.tau)
        dx = xa - x
        step_norm = float(np.linalg.norm(dx))
        if step_norm <= 1e-15 * (1.0 + float(np.linalg.norm(x))):
            return SearchResult("stationary", iterate, 0.0, k + 1)
        fa, ra = objective_value(problem, xa)
        if fa <= fmax + options.suff_decrease * float(g @ dx):
            return SearchResult("accepted", evaluate(problem, xa, r=ra), a, k + 1)
        a *= options.backtrack_factor
    return SearchResult("failed", None, 0.0, options.max_backtracks)


def face_wolfe_search(
    problem: LassoProblem,
    iterate: Iterate,
    d: NDArray,
    alpha_bound: float,
    options: SolverOptions,
) -> SearchResult:
    """One-shot Wolfe step along a face direction, capped at the face edge.

    The unconstrained minimizer always satisfies both conditions; when it
    exceeds the cap, the cap itself is taken if it still lies inside the
    Wolfe window, otherwise the search reports failure.
    """
    gd = float(iterate.g @ d)
    if gd >= 0:
        return SearchResult("failed")
    try:
        a_star = alpha_opt(problem, iterate, d)
    except UnboundedRayError:
        return SearchResult("failed")
    lo = (1.0 - options.wolfe_curv) * a_star
    a = a_star
    if a > alpha_bound:
        if alpha_bound >= lo:
            a = alpha_bound
        else:
            return SearchResult("failed")
    if a <= 0 or not np.isfinite(a):
        return SearchResult("failed")
    xa = iterate.x + a * d
    return SearchResult("accepted", evaluate(problem, xa), a, 1)


class _ArcProducts:
    """Forward products for the projection trajectory, updated by columns.

    Maintains A*(s on I), A*(d on I) and A*(sign-weight vector on I) for the
    current segment support I, rebuilding from scratch every
    RECOMPUTE_EVERY column updates to bound drift.
    """

    def __init__(self, problem: LassoProblem, arc: ProjectionArc):
        self.problem = problem
        self.arc = arc
        self.updates = 0
        self.I: set[int] = set()
        m = problem.shape[0]
        self.us = np.zeros(m)
        self.ud = np.zeros(m)
        self.uv = np.zeros(m)
        self._signs: dict[int, float] = {}

    def _col(self, i: int) -> NDArray:
        return self.problem.op.column(i)

    def set_support(self, support: NDArray, signs: NDArray) -> None:
        new = dict(zip(support.tolist(), signs.tolist()))
        old = set(self.I)
        target = set(new)
        arc = self.arc
        common = old & target
        # Kept entries whose sign flipped: the items intersection holds the
        # kept entries whose sign did not.
        flips = len(common) - len(self._signs.items() & new.items())
        changed = len(old ^ target) + flips
        self.updates += changed
        if self.updates >= RECOMPUTE_EVERY or changed > len(target):
            self._rebuild(new)
            return
        for i in old - target:
            col = self._col(i)
            self.us -= col * arc.s[i]
            self.ud -= col * arc.d[i]
            self.uv -= col * self._signs[i] * arc.w[i]
        for i in target - old:
            col = self._col(i)
            self.us += col * arc.s[i]
            self.ud += col * arc.d[i]
            self.uv += col * new[i] * arc.w[i]
        if flips:
            for i in common:
                if self._signs[i] != new[i]:
                    col = self._col(i)
                    self.uv += col * (new[i] - self._signs[i]) * arc.w[i]
        self.I = target
        self._signs = new

    def _rebuild(self, new: dict[int, float]) -> None:
        arc, prob = self.arc, self.problem
        idx = np.array(sorted(new), dtype=int)
        sv = np.zeros(len(arc.s))
        dv = np.zeros(len(arc.s))
        vv = np.zeros(len(arc.s))
        sv[idx] = arc.s[idx]
        dv[idx] = arc.d[idx]
        vv[idx] = np.array([new[int(i)] for i in idx]) * arc.w[idx]
        self.us = prob.op.apply(sv)
        self.ud = prob.op.apply(dv)
        self.uv = prob.op.apply(vv)
        self.I = set(new)
        self._signs = dict(new)
        self.updates = 0


def trajectory_search(
    problem: LassoProblem,
    iterate: Iterate,
    arc: ProjectionArc,
    history: HistoryBuffer,
    options: SolverOptions,
) -> SearchResult:
    """Minimize the objective along the projection trajectory P(x - a*g_scaled).

    `arc` starts at `iterate.x`.  Scans segments in order, walking the arc
    only as far as it reads; `first_local` stops at the first interior
    minimum, `global` keeps the best over all segments.  The winner must
    still pass the nonmonotone sufficient-decrease test against `history`;
    otherwise the caller falls back to plain backtracking.
    """
    prods = _ArcProducts(problem, arc)
    b, c, mu = problem.b, problem.c, problem.mu
    best_alpha, best_f = None, np.inf
    chosen = None
    ad = None  # A*d, formed on the first inside segment
    for seg in arc.iter_segments():
        lo, hi = seg.alpha_lo, seg.alpha_hi
        if seg.inside:
            # p(a) = s + a*d with full vectors, and A*s - b = iterate.r.
            if ad is None:
                ad = problem.op.apply(arc.d)
            P, D = iterate.r, ad
            q, h = arc.s, arc.d
        else:
            prods.set_support(seg.support, seg.signs)
            c0 = seg.lam0 - seg.slope * lo
            c1 = seg.slope
            P = (prods.us - c0 * prods.uv) - b
            D = prods.ud - c1 * prods.uv
            q = np.zeros(len(arc.s))
            h = np.zeros(len(arc.s))
            sup = seg.support
            q[sup] = arc.s[sup] - c0 * seg.signs * arc.w[sup]
            h[sup] = arc.d[sup] - c1 * seg.signs * arc.w[sup]
        a2 = float(D @ D) + mu * float(h @ h)
        a1 = float(P @ D) + mu * float(q @ h) + float(c @ h)
        a0 = 0.5 * float(P @ P) + 0.5 * mu * float(q @ q) + float(c @ q)

        def val(a: float) -> float:
            return a0 + a * (a1 + 0.5 * a * a2)

        hi_eff = hi if np.isfinite(hi) else lo + max(1.0, abs(lo))
        if a2 > 0:
            a_min = -a1 / a2
        else:
            a_min = lo if a1 >= 0 else hi_eff
        cand = min(max(a_min, lo), hi if np.isfinite(hi) else a_min)
        cand = max(cand, lo)
        f_cand = val(cand)
        if f_cand < best_f:
            best_f, best_alpha = f_cand, cand
        if options.trajectory_scan == "first_local":
            if a2 > 0 and a_min < lo and lo > 0:
                # Objective turned upward at the previous breakpoint.
                chosen = (lo, val(lo))
                break
            interior_min = a2 > 0 and lo <= a_min and (
                not np.isfinite(hi) or a_min < hi
            )
            if interior_min or not np.isfinite(hi):
                chosen = (cand, f_cand)
                break
    if chosen is None:
        chosen = (best_alpha, best_f)
    alpha, _ = chosen
    if alpha is None or alpha <= 0:
        return SearchResult("failed")
    xa = arc.point_at(alpha)
    dx = xa - iterate.x
    if float(np.linalg.norm(dx)) <= 1e-15 * (1.0 + float(np.linalg.norm(iterate.x))):
        return SearchResult("stationary", iterate, 0.0, 1)
    fa, ra = objective_value(problem, xa)
    if fa <= history.maximum() + options.suff_decrease * float(iterate.g @ dx):
        return SearchResult("accepted", evaluate(problem, xa, r=ra), alpha, 1)
    return SearchResult("failed")
