"""Newton root-finding on the misfit-versus-radius trade-off curve.

The residual norm of the radius-tau solution is a convex, decreasing
function of tau whose slope is -lam/||r|| with lam the optimal dual
multiplier.  Solving the misfit-constrained problem reduces to a handful
of radius-constrained subproblems driven by safeguarded Newton updates.

As in SPGL1 (van den Berg & Friedlander, SIAM J. Sci. Comput. 31(2), 2008),
each subproblem is solved only to a relative gap proportional to the last
misfit's distance from sigma.  The gap a subproblem returns bounds its
optimal misfit, and only a misfit certified to lie on one side of sigma
moves the bracket around the root.

Each subproblem after the first starts where the last one left off, at no
product's cost: from the scale predictor P_tau(x*tau/tau_prev), which keeps
the previous solution's signs and lands on the new sphere when that
solution lies on its own, with the last subproblem's Barzilai-Borwein step,
and, for the hybrid, with the quasi-Newton pairs (s, y) of its last face
phase, reduced onto the predictor's face (`solver.WarmStart`).  f's Hessian
does not depend on tau, so each y stays exact at the new radius on the
support of the step that formed it.  The pairs are built with the report,
and reading them costs no product.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .ball import project
from .duality import dual_weighted_inf_norm, gap_scale
from .model import LassoProblem, SolverOptions
from .solver import (
    STATUS_NON_FINITE,
    STATUS_OPTIMAL,
    SolverReport,
    WarmStart,
    hybrid_solve,
    spg_solve,
)

ROOT_TOL = 1e-5
KAPPA = 0.1  # subproblem gap tolerance per unit of relative misfit error
MAX_SUBPROBLEMS = 100

STATUS_CONVERGED = "converged"
STATUS_BUDGET = "subproblem_budget"
STATUS_UNREACHABLE = "sigma_unreachable"


@dataclass
class ParetoState:
    tau: float
    misfit: float
    lam: float
    subproblem_status: str
    iterations: int
    opt_tol: float  # relative gap the subproblem was asked for
    gap: float  # relative gap it returned
    warm_pairs: int = 0  # carried pairs its first model stored
    working_set_sizes: list[int] = field(default_factory=list)  # its |W| per round


@dataclass
class RootReport:
    x: NDArray
    tau: float
    misfit: float
    sigma: float
    status: str
    subproblems: int
    time_sec: float
    forward_products: int  # products A x the run formed
    adjoint_products: int  # products A'y the run formed
    column_reads: int  # columns of A the run read through op.column
    column_work: int  # SolverReport.column_work summed over the subproblems
    path: list[ParetoState] = field(default_factory=list)


@dataclass
class Bracket:
    """Radii on either side of the root: misfit*(lo) > sigma > misfit*(hi)."""

    lo: float = 0.0
    hi: float = np.inf

    def update(self, tau: float, low: float, high: float, sigma: float) -> None:
        """Move an end only when [low, high], which holds misfit*(tau), lies
        wholly on one side of sigma."""
        if low > sigma:
            self.lo = max(self.lo, tau)
        elif high < sigma:
            self.hi = min(self.hi, tau)

    def safeguard(self, tau: float) -> float:
        """tau when strictly inside, else the midpoint, or a doubling while
        no radius is known to lie past the root."""
        if self.lo < tau < self.hi:
            return tau
        return (0.5 * (self.lo + self.hi) if np.isfinite(self.hi)
                else 2.0 * max(self.lo, 1.0))


def misfit_interval(misfit: float, gap_abs: float,
                    f_is_misfit: bool) -> tuple[float, float]:
    """Interval holding the optimal misfit ||r*|| of a subproblem whose point
    has misfit ||r|| and absolute gap gap_abs >= f - f*.

    When f = 0.5||r||^2 (mu = 0, c = 0), ||r*||^2 >= ||r||^2 - 2 gap_abs and
    ||r*|| <= ||r||.  Otherwise f - f* >= 0.5||A(x - x*)||^2 = 0.5||r - r*||^2
    at the constrained minimizer x* of the quadratic, so ||r*|| lies within
    sqrt(2 gap_abs) of ||r||.
    """
    if f_is_misfit:
        return math.sqrt(max(misfit * misfit - 2.0 * gap_abs, 0.0)), misfit
    radius = math.sqrt(2.0 * gap_abs)
    return misfit - radius, misfit + radius


def _norm(v: NDArray) -> float:
    """||v||, scaled by max |v_i| only where the plain norm overflows, so
    that every finite plain norm is kept bit for bit."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm) and np.all(np.isfinite(v)):
        scale = float(np.max(np.abs(v)))
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def newton_tau_update(tau: float, misfit: float, sigma: float, lam: float) -> float:
    """One Newton step on misfit(tau) = sigma using slope -lam/misfit."""
    if lam <= 0:
        raise ValueError("Newton update needs a positive multiplier")
    return tau + (misfit - sigma) * misfit / lam


def scaled_start(x: NDArray, tau_prev: float, tau: float,
                 w: NDArray | None) -> NDArray:
    """The scale predictor P_tau(x*tau/tau_prev) (x itself after radius 0).

    It keeps the signs of x, and lands on the new sphere when x lies on the
    sphere of radius tau_prev.  w=None for unit weights.
    """
    if tau_prev > 0:
        x = x * (tau / tau_prev)
    return project(x, w, tau)[0]


def solve_bpdn(
    problem: LassoProblem,
    sigma: float,
    options: SolverOptions | None = None,
    root_tol: float = ROOT_TOL,
    max_subproblems: int = MAX_SUBPROBLEMS,
    solver: str = "hybrid",
) -> RootReport:
    """Minimize the weighted one-norm subject to ||Ax - b|| <= sigma.

    `problem.tau` is ignored; each subproblem re-solves at the current
    radius, warm-started from the previous one (the scale predictor, the
    last Barzilai-Borwein step and, for the hybrid, the last face phase's
    pairs; see the module docstring), to the relative gap
    max(opt_tol, min(0.1, 2*KAPPA*|misfit - sigma|/misfit)) of the last
    misfit.  The run converges on a misfit within the root
    tolerance of sigma from a subproblem solved to opt_tol (asked for it,
    or met it), or from a looser one whose gap certifies an optimal misfit
    of at least sigma - tol.  Any other misfit in that window, or
    multiplier 0 with a misfit above sigma from a loose solve, is re-solved
    at the same radius to opt_tol.  Multiplier 0 with a gap of at most
    opt_tol proves sigma unreachable and ends the run with
    STATUS_UNREACHABLE.  A subproblem whose f overflows at its start ends
    the run with its status, STATUS_NON_FINITE.
    """
    start = time.perf_counter()
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    if not root_tol > 0:  # also rejects NaN, which no misfit satisfies
        raise ValueError(f"root_tol must be positive, got {root_tol!r}")
    if max_subproblems < 0:
        raise ValueError(
            f"max_subproblems must be nonnegative, got {max_subproblems!r}")
    if solver not in ("spg", "hybrid"):
        raise ValueError(f"unknown solver {solver!r}")
    options = options or SolverOptions()
    solve = hybrid_solve if solver == "hybrid" else spg_solve
    op = problem.op
    fwd0, adj0, col0 = op.forward_products, op.adjoint_products, op.column_reads
    b = problem.b
    norm_b = _norm(b)
    tol = root_tol * max(sigma, 1e-3)
    f_is_misfit = problem.mu == 0 and problem.zero_c
    path: list[ParetoState] = []

    if norm_b <= sigma + tol:
        x = np.zeros(problem.shape[1])
        return RootReport(x=x, tau=0.0, misfit=norm_b, sigma=sigma,
                          status=STATUS_CONVERGED, subproblems=0,
                          time_sec=time.perf_counter() - start,
                          forward_products=0, adjoint_products=0,
                          column_reads=0, column_work=0, path=path)

    # The radius-zero subproblem is trivial: x = 0, multiplier from b.
    lam = dual_weighted_inf_norm(problem.op.apply_adjoint(b) - problem.c,
                                 problem.w)
    misfit = norm_b
    tau = 0.0
    bracket = Bracket()
    x = np.zeros(problem.shape[1])
    path.append(ParetoState(tau, misfit, lam, STATUS_OPTIMAL, 0,
                            options.opt_tol, 0.0))
    status = STATUS_BUDGET
    resolve = False  # solve the same radius again, to opt_tol
    warm: WarmStart | None = None
    column_work = 0

    for _ in range(max_subproblems):
        if resolve:
            sub_tol = options.opt_tol
        else:
            # An uncertified misfit still steers Newton, as in SPGL1.
            tau = bracket.safeguard(newton_tau_update(tau, misfit, sigma, lam)
                                    if lam > 0 else np.inf)
            sub_tol = max(options.opt_tol, min(
                0.1, 2.0 * KAPPA * abs(misfit - sigma) / max(misfit, tol)))
        sub = dataclasses.replace(problem, tau=tau)
        x0 = scaled_start(x, path[-1].tau, tau, sub.ball_w)
        report: SolverReport = solve(
            sub, x0, dataclasses.replace(options, opt_tol=sub_tol), warm=warm)
        x = report.x
        misfit = _norm(report.r)
        lam = report.lam
        warm = report.warm
        column_work += report.column_work
        path.append(ParetoState(tau, misfit, lam, report.status,
                                report.iterations, sub_tol, report.gap,
                                report.warm_pairs, report.working_set_sizes))
        if report.status == STATUS_NON_FINITE:
            status = STATUS_NON_FINITE
            break
        low, high = misfit_interval(
            misfit, report.gap * gap_scale(report.f), f_is_misfit)
        # A solve asked for opt_tol, or one that met it anyway, is as exact
        # as the options allow; a looser one is re-solved before it ends the
        # run, unless its interval already puts the optimal misfit above
        # sigma - tol.
        exact = sub_tol <= options.opt_tol or report.gap <= options.opt_tol
        in_window = abs(misfit - sigma) <= tol
        if in_window and (exact or low >= sigma - tol):
            status = STATUS_CONVERGED
            break
        # With lam = 0 the ball constraint is inactive: every larger radius
        # has this same solution, and every smaller one a larger misfit.
        inactive = misfit > sigma and lam == 0
        if inactive and report.gap <= options.opt_tol:
            status = STATUS_UNREACHABLE
            break
        resolve = not exact and (in_window or inactive)
        bracket.update(tau, low, high, sigma)

    return RootReport(x=x, tau=tau, misfit=misfit, sigma=sigma, status=status,
                      subproblems=len(path) - 1,
                      time_sec=time.perf_counter() - start,
                      forward_products=op.forward_products - fwd0,
                      adjoint_products=op.adjoint_products - adj0,
                      column_reads=op.column_reads - col0,
                      column_work=column_work, path=path)
