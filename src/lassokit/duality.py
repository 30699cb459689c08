"""Dual certificates, duality gaps, and the gap-based stopping oracle.

For mu = 0 the dual of the ball-constrained problem maximizes
y'b - tau*lam - 0.5*||y||^2 over ||A'y - c||_{1/w,inf} <= lam, and the
primal iterate supplies the feasible pair y = b - Ax: the augmented
certificate, whose mu term then vanishes.  For mu > 0 the multiplier can
instead be optimized exactly with the ball's threshold kernel, which always
dominates the certificate read off the augmented residual.

Every certificate reads A'y from the iterate's gradient g = A'r + c + mu*x,
so checking the gap costs no operator product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .ball import project, threshold
from .model import Iterate, LassoProblem


def dual_weighted_inf_norm(z: NDArray, w: NDArray) -> float:
    """max_i |z_i| / w_i, the norm dual to the weighted one-norm."""
    return float(np.max(np.abs(z) / w)) if len(z) else 0.0


def projected_gradient_residual(problem: LassoProblem, iterate: Iterate) -> float:
    """||P(x - g) - x|| / max(1, ||g||); zero exactly at stationary points."""
    p, _ = project(iterate.x - iterate.g, problem.w, problem.tau)
    return float(np.linalg.norm(p - iterate.x)) / max(
        1.0, float(np.linalg.norm(iterate.g))
    )


@dataclass
class DualCertificate:
    lam: float
    objective: float

    def gap(self, f: float) -> float:
        return max(f - self.objective, 0.0)


def certificate_augmented(problem: LassoProblem, iterate: Iterate) -> DualCertificate:
    """Multiplier read off the residual of the stacked (A; sqrt(mu) I) system."""
    y = -iterate.r
    x = iterate.x
    z = -iterate.g  # A'y - mu*x - c
    lam = dual_weighted_inf_norm(z, problem.w)
    obj = (
        float(y @ problem.b)
        - problem.tau * lam
        - 0.5 * float(y @ y)
        - 0.5 * problem.mu * float(x @ x)
    )
    return DualCertificate(lam, obj)


def optimal_dual_lambda(z: NDArray, w: NDArray, tau: float, mu: float) -> float:
    """argmin over lam >= 0 of tau*lam + (1/2mu) * ||max(z - lam*w, 0)||^2.

    z must be nonnegative.  The derivative vanishes where
    sum_i w_i max(z_i - lam*w_i, 0) = mu*tau: the projection threshold of z
    onto the weighted one-norm ball of radius mu*tau.
    """
    if mu <= 0:
        raise ValueError("optimized multiplier requires mu > 0")
    return threshold(z, w, mu * tau)


def certificate_optimized(problem: LassoProblem, iterate: Iterate) -> DualCertificate:
    y = -iterate.r
    z = np.abs(iterate.g - problem.mu * iterate.x)  # |A'y - c|
    lam = optimal_dual_lambda(z, problem.w, problem.tau, problem.mu)
    slack = np.maximum(z - lam * problem.w, 0.0)
    obj = (
        float(y @ problem.b)
        - problem.tau * lam
        - 0.5 * float(y @ y)
        - float(slack @ slack) / (2.0 * problem.mu)
    )
    return DualCertificate(lam, obj)


def best_certificate(problem: LassoProblem, iterate: Iterate) -> DualCertificate:
    if problem.mu > 0:
        return certificate_optimized(problem, iterate)
    return certificate_augmented(problem, iterate)


def gap_scale(f: float) -> float:
    """Denominator of the relative gap: the absolute gap is relative * gap_scale(f)."""
    return max(f, 1e-3)


def relative_gap(f: float, dual_obj: float) -> float:
    return max(f - dual_obj, 0.0) / gap_scale(f)


@dataclass
class BestPair:
    """Best primal point (x, its residual r, its value f) and best dual bound so far.

    `r_exact` is False when r came from a step's update r + a*A d rather than
    from A x - b, so that it (and f) drift from x by rounding.
    """

    f: float = np.inf
    x: NDArray | None = None
    r: NDArray | None = None
    r_exact: bool = True
    dual_obj: float = -np.inf
    lam: float = 0.0

    def update_primal(self, f: float, x: NDArray, r: NDArray,
                      r_exact: bool = True) -> None:
        if f < self.f:
            self.f, self.x, self.r, self.r_exact = f, x, r, r_exact

    def update_dual(self, cert: DualCertificate) -> None:
        if cert.objective > self.dual_obj:
            self.dual_obj = cert.objective
            self.lam = cert.lam

    @property
    def gap_relative(self) -> float:
        return relative_gap(self.f, self.dual_obj)


class StoppingOracle:
    """Tracks best primal/dual pair and decides optimality by relative gap."""

    def __init__(self, problem: LassoProblem, opt_tol: float):
        self.problem = problem
        self.opt_tol = opt_tol
        self.best = BestPair()

    def update(self, iterate: Iterate, r_exact: bool = True) -> bool:
        cert = best_certificate(self.problem, iterate)
        self.best.update_primal(iterate.f, iterate.x, iterate.r, r_exact)
        self.best.update_dual(cert)
        return self.best.gap_relative <= self.opt_tol

    @property
    def gap(self) -> float:
        return self.best.gap_relative

    @property
    def lambda_best(self) -> float:
        return self.best.lam
