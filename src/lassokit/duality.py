"""Dual certificates, duality gaps, and the gap-based stopping oracle.

For mu = 0 the dual of the ball-constrained problem maximizes
y'b - tau*lam - 0.5*||y||^2 over ||A'y - c||_{1/w,inf} <= lam, and the
primal iterate supplies the feasible pair y = b - Ax: the augmented
certificate, whose mu term then vanishes.  For mu > 0 the multiplier can
instead be optimized exactly with the ball's threshold kernel, which always
dominates the certificate read off the augmented residual.

Every certificate reads A'y from the iterate's gradient g = A'r + c + mu*x,
so checking the gap costs no operator product.  A certificate read from a
gradient that is exact on a face's support S and zero elsewhere ignores the
entries off S: it bounds no dual, but its gap is never above the full one,
so it tells a face phase when the full gradient is worth forming.

The oracle keeps the iterate of its best bound, whose residual any larger
problem with the same b can read as a dual point: an outer working-set
round lifts it to all n columns with one adjoint product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

# No function here projects, but perfbench/tracer.py binds
# lassokit.duality.project all the same.
from .ball import project, threshold  # noqa: F401
from .model import Iterate, LassoProblem


def dual_weighted_inf_norm(z: NDArray, w: NDArray | None) -> float:
    """max_i |z_i| / w_i, the norm dual to the weighted one-norm; w=None for unit weights."""
    if not len(z):
        return 0.0
    return float((np.abs(z) if w is None else np.abs(z) / w).max())


@dataclass
class DualCertificate:
    lam: float
    objective: float


def certificate_augmented(problem: LassoProblem, iterate: Iterate,
                          g: NDArray | None = None) -> DualCertificate:
    """Multiplier read off the residual of the stacked (A; sqrt(mu) I) system.

    The dual point is y = -r, with A'y - mu*x - c = -g.  Negating a vector
    negates its dot products exactly, so r and g are read as they are.  g
    is the iterate's gradient unless given.
    """
    r = iterate.r
    lam = dual_weighted_inf_norm(iterate.g if g is None else g, problem.ball_w)
    obj = -float(r @ problem.b) - problem.tau * lam - 0.5 * float(r @ r)
    if problem.mu > 0:
        obj -= 0.5 * problem.mu * float(iterate.x @ iterate.x)
    return DualCertificate(lam, obj)


def optimal_dual_lambda(z: NDArray, w: NDArray | None, tau: float, mu: float) -> float:
    """argmin over lam >= 0 of tau*lam + (1/2mu) * ||max(z - lam*w, 0)||^2.

    z must be nonnegative.  The derivative vanishes where
    sum_i w_i max(z_i - lam*w_i, 0) = mu*tau: the projection threshold of z
    onto the weighted one-norm ball of radius mu*tau.  w=None for unit
    weights.
    """
    if mu <= 0:
        raise ValueError("optimized multiplier requires mu > 0")
    return threshold(z, w, mu * tau)


def certificate_optimized(problem: LassoProblem, iterate: Iterate,
                          g: NDArray | None = None) -> DualCertificate:
    """The multiplier optimized for the dual point y = -r (mu > 0); g is the
    iterate's gradient unless given."""
    r, w = iterate.r, problem.ball_w
    z = np.abs((iterate.g if g is None else g) - problem.mu * iterate.x)  # |A'y - c|
    lam = optimal_dual_lambda(z, w, problem.tau, problem.mu)
    slack = np.maximum(z - lam if w is None else z - lam * w, 0.0)
    obj = (
        -float(r @ problem.b)
        - problem.tau * lam
        - 0.5 * float(r @ r)
        - float(slack @ slack) / (2.0 * problem.mu)
    )
    return DualCertificate(lam, obj)


def best_certificate(problem: LassoProblem, iterate: Iterate,
                     g: NDArray | None = None) -> DualCertificate:
    if problem.mu > 0:
        return certificate_optimized(problem, iterate, g)
    return certificate_augmented(problem, iterate, g)


def gap_scale(f: float) -> float:
    """Denominator of the relative gap: the absolute gap is relative * gap_scale(f)."""
    return max(f, 1e-3)


def relative_gap(f: float, dual_obj: float) -> float:
    return max(f - dual_obj, 0.0) / gap_scale(f)


class StoppingOracle:
    """Keeps the best iterate and the best dual bound with its multiplier,
    and decides optimality by their relative gap.

    `dual_point` is the iterate whose residual r gave the best bound, by
    the dual point y = -r: an outer working-set round lifts it to the full
    problem.  Only a strictly lower f replaces the best iterate, so a NaN f
    never does; it starts as a point of f = inf with no x or r.
    """

    def __init__(self, problem: LassoProblem, opt_tol: float):
        self.problem = problem
        self.opt_tol = opt_tol
        self.best = Iterate(x=None, r=None, f=np.inf, problem=problem)
        self.dual_obj = -np.inf
        self.lambda_best = 0.0
        self.dual_point: Iterate | None = None

    def update(self, iterate: Iterate) -> bool:
        """Take the iterate as a candidate best point and its certificate as
        a candidate bound; True when the gap meets the tolerance."""
        self.take(iterate)
        return self.bound(iterate)

    def take(self, iterate: Iterate) -> None:
        """Take the iterate as a candidate best point, forming no certificate."""
        if iterate.f < self.best.f:
            self.best = iterate

    def bound(self, iterate: Iterate) -> bool:
        """Take the certificate of the iterate's dual point as a candidate
        bound, not the iterate as a best point; True when the gap meets the
        tolerance."""
        cert = best_certificate(self.problem, iterate)
        if cert.objective > self.dual_obj:
            self.dual_obj, self.lambda_best = cert.objective, cert.lam
            self.dual_point = iterate
        return self.gap <= self.opt_tol

    def face_gap(self, iterate: Iterate, g_face: NDArray) -> float:
        """Take the iterate as a candidate best point, and return the gap read
        with the certificate of g_face: its gradient on a face's support,
        zero elsewhere.

        That certificate bounds no dual and is not kept, and the gap is
        never above the one `update(iterate)` would leave.
        """
        self.take(iterate)
        cert = best_certificate(self.problem, iterate, g_face)
        return relative_gap(self.best.f, max(self.dual_obj, cert.objective))

    @property
    def gap(self) -> float:
        return relative_gap(self.best.f, self.dual_obj)
