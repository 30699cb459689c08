"""Line searches: nonmonotone Armijo backtracking along the projected-gradient
segment, exact Wolfe windows for quadratic objectives on a face, and a search
along the full projection trajectory."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .arc import ProjectionArc
from .ball import project
from .model import Iterate, LassoProblem, RayObjective, evaluate

# Incremental matrix-column products are rebuilt from scratch this often.
RECOMPUTE_EVERY = 50
SUFF_DECREASE = 1e-4  # Armijo gamma
BACKTRACK_FACTOR = 0.5
# A backtracking trial takes the segment minimizer when it lies in
# [INTERP_LO*lam, INTERP_HI*lam], and lam*BACKTRACK_FACTOR otherwise.
INTERP_LO = 0.1
INTERP_HI = 0.9
MAX_BACKTRACKS = 50


class UnboundedRayError(RuntimeError):
    """The objective decreases without bound along the given ray."""


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
    if ray.c2 <= 0 and gd < 0:
        raise UnboundedRayError("flat curvature with descent direction")
    return ray.minimizer(gd)


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


def _accept(problem: LassoProblem, iterate: Iterate, xa: NDArray, alpha: float,
            fmax: float, trials: int,
            ra: NDArray | None = None) -> SearchResult | None:
    """Nonmonotone test of the trial point xa: `stationary` for a zero-length
    move, `accepted` when f(xa) <= fmax + gamma * g'(xa - x), else None.

    ra is the residual A xa - b; it is formed here when not given.
    """
    x = iterate.x
    dx = xa - x
    if math.sqrt(dx @ dx) <= 1e-15 * (1.0 + math.sqrt(x @ x)):
        return SearchResult("stationary", iterate, 0.0, trials)
    trial = evaluate(problem, xa, r=ra)
    if trial.f <= fmax + SUFF_DECREASE * float(iterate.g @ dx):
        return SearchResult("accepted", trial, alpha, trials)
    return None


def nonmonotone_armijo_backtrack(
    problem: LassoProblem,
    iterate: Iterate,
    alpha0: float,
    fmax: float,
) -> SearchResult:
    """Backtrack along the segment from x to x1 = P(x - alpha0*g).

    Trials are x + lam*d with d = x1 - x, starting at lam = 1, and the first
    with f <= fmax + gamma * g'(lam*d) is accepted; `alpha` reports its lam.
    f is an exact quadratic along the segment, so after a rejection the next
    lam is the segment minimizer when it lies in the safeguard window, else
    lam*BACKTRACK_FACTOR.  The search projects once and forms one forward
    product, A x1; a trial's residual is r + lam*A d with
    A d = (A x1 - b) - r, so an iterate accepted after the first trial has
    an inexact residual.  A zero-length accepted move reports `stationary`.
    """
    x, r, g = iterate.x, iterate.r, iterate.g
    x1, _ = project(x - alpha0 * g, problem.ball_w, problem.tau)
    r1 = problem.op.apply(x1) - problem.b
    res = _accept(problem, iterate, x1, 1.0, fmax, 1, r1)
    if res is not None:
        return res
    d = x1 - x
    ray = RayObjective(problem, x, d, r=r, ad=r1 - r)
    lam_star = ray.minimizer(float(g @ d))
    lam = 1.0
    for k in range(1, MAX_BACKTRACKS):
        if INTERP_LO * lam <= lam_star <= INTERP_HI * lam:
            lam = lam_star
        else:
            lam *= BACKTRACK_FACTOR
        res = _accept(problem, iterate, x + lam * d, lam, fmax, k + 1,
                      r + lam * ray.ad)
        if res is not None:
            if res.status == "accepted":
                res.iterate.r_exact = False
            return res
    return SearchResult("failed", None, 0.0, MAX_BACKTRACKS)


def face_wolfe_search(
    problem: LassoProblem,
    iterate: Iterate,
    d: NDArray,
    alpha_bound: float,
    ad: NDArray | None = None,
    gd: float | None = None,
) -> SearchResult:
    """Exact step along a face direction, capped at the face edge.

    The step is the ray minimizer, which satisfies both Wolfe conditions, or
    alpha_bound when that is smaller; a capped step is accepted too, and the
    entries whose sign flip falls exactly at the cap are set to zero, so it
    lands on the subface.  The accepted iterate's residual is r + a*A d,
    reusing the step length's product, so a step costs one forward
    product; it drifts by rounding over a run of such steps, so the iterate
    marks it inexact.  A caller that knows A d and the slope g'd gives
    them, and the search forms no product and reads no gradient.
    """
    x = iterate.x
    if gd is None:
        gd = float(iterate.g @ d)
    if not gd < 0:  # also a NaN direction
        return SearchResult("failed")
    ray = RayObjective(problem, x, d, r=iterate.r, ad=ad)
    a = min(ray.minimizer(gd), alpha_bound)  # inf on a flat uncapped ray
    if a <= 0 or not math.isfinite(a):
        return SearchResult("failed")
    xa = x + a * d
    if a == alpha_bound:
        shrink = np.flatnonzero(x * d < 0)
        xa[shrink[x[shrink] / d[shrink] == -a]] = 0.0
    it = evaluate(problem, xa, r=iterate.r + a * ray.ad)
    it.r_exact = False
    return SearchResult("accepted", it, a, 1)


class _ArcProducts:
    """Forward products for the projection trajectory, updated by columns.

    Maintains A*(s on the support), A*(d on the support) and A*(sign*w) for
    the current segment, where `sign` holds the support's signs and is zero
    off it; rebuilt from scratch every RECOMPUTE_EVERY column updates to
    bound drift.
    """

    def __init__(self, problem: LassoProblem, arc: ProjectionArc):
        self.problem = problem
        self.arc = arc
        self.updates = 0
        self.sign = np.zeros(len(arc.s))
        m = problem.shape[0]
        self.us = np.zeros(m)
        self.ud = np.zeros(m)
        self.uv = np.zeros(m)

    def set_support(self, support: NDArray, signs: NDArray) -> None:
        new = np.zeros(len(self.sign))
        new[support] = signs
        changed = np.flatnonzero(new != self.sign)
        self.updates += len(changed)
        if self.updates >= RECOMPUTE_EVERY or len(changed) > len(support):
            self._rebuild(new)
            return
        arc = self.arc
        for i, old, sg in zip(changed.tolist(), self.sign[changed].tolist(),
                              new[changed].tolist()):
            col = self.problem.op.column(i)
            if old == 0:  # joins the support
                self.us += col * arc.s[i]
                self.ud += col * arc.d[i]
            elif sg == 0:  # leaves it
                self.us -= col * arc.s[i]
                self.ud -= col * arc.d[i]
            self.uv += col * (sg - old) * arc.w[i]
        self.sign = new

    def _rebuild(self, new: NDArray) -> None:
        op, arc = self.problem.op, self.arc
        on = new != 0
        self.us = op.apply(np.where(on, arc.s, 0.0))
        self.ud = op.apply(np.where(on, arc.d, 0.0))
        self.uv = op.apply(new * arc.w)
        self.sign = new
        self.updates = 0


def trajectory_search(
    problem: LassoProblem,
    iterate: Iterate,
    arc: ProjectionArc,
    fmax: float,
) -> SearchResult:
    """Minimize the objective along the projection trajectory P(x - a*g_scaled).

    `arc` starts at `iterate.x`.  Scans segments in order and stops at the
    first local minimum, walking the arc only as far as it reads.  The
    minimizer must still pass the nonmonotone sufficient-decrease test
    against `fmax`; otherwise the caller falls back to plain backtracking.
    """
    prods = _ArcProducts(problem, arc)
    inside = None  # every inside segment lies on the ray x + a*d
    for seg in arc.iter_segments():
        lo, hi = seg.alpha_lo, seg.alpha_hi
        if seg.inside:
            # p(a) = s + a*d with full vectors, and A*s - b = iterate.r.
            if inside is None:
                inside = RayObjective(problem, arc.s, arc.d, r=iterate.r)
            ray = inside
        else:
            # p(a) = q + a*h, the support's entries shrunk by lam(a)*sign*w.
            prods.set_support(seg.support, seg.signs)
            c0 = seg.lam0 - seg.slope * lo
            c1 = seg.slope
            q = np.zeros(len(arc.s))
            h = np.zeros(len(arc.s))
            sup = seg.support
            q[sup] = arc.s[sup] - c0 * seg.signs * arc.w[sup]
            h[sup] = arc.d[sup] - c1 * seg.signs * arc.w[sup]
            ray = RayObjective(problem, q, h,
                               r=(prods.us - c0 * prods.uv) - problem.b,
                               ad=prods.ud - c1 * prods.uv)
        a_min = ray.minimizer(ray.c1)  # inf unless the segment is convex
        if a_min < lo and lo > 0:
            alpha = lo  # the objective turned upward at this breakpoint
            break
        if lo <= a_min < hi:
            alpha = a_min
            break
        if not np.isfinite(hi):
            # The last segment: a convex f rising from lo, or a linear one.
            alpha = lo if ray.c2 > 0 or ray.c1 >= 0 else lo + max(1.0, abs(lo))
            break
    if alpha <= 0:
        return SearchResult("failed")
    res = _accept(problem, iterate, arc.point_at(alpha), alpha, fmax, 1)
    return res or SearchResult("failed")
