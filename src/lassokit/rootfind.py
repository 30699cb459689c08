"""Newton root-finding on the misfit-versus-radius trade-off curve.

The residual norm of the radius-tau solution is a convex, decreasing
function of tau whose slope is -lam/||r|| with lam the optimal dual
multiplier.  Solving the misfit-constrained problem reduces to a handful
of radius-constrained subproblems driven by safeguarded Newton updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .ball import project
from .duality import dual_weighted_inf_norm
from .model import LassoProblem, SolverOptions
from .solver import STATUS_OPTIMAL, SolverReport, hybrid_solve, spg_solve

ROOT_TOL = 1e-5
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


@dataclass
class RootReport:
    x: NDArray
    tau: float
    misfit: float
    sigma: float
    status: str
    subproblems: int
    time_sec: float
    path: list[ParetoState] = field(default_factory=list)


def newton_tau_update(tau: float, misfit: float, sigma: float, lam: float) -> float:
    """One Newton step on misfit(tau) = sigma using slope -lam/misfit."""
    if lam <= 0:
        raise ValueError("Newton update needs a positive multiplier")
    return tau + (misfit - sigma) * misfit / lam


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
    radius with a warm start projected from the previous solution.  An
    optimal subproblem with multiplier 0 and a misfit above sigma proves
    sigma unreachable and ends the run with STATUS_UNREACHABLE.
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
    b = problem.b
    norm_b = float(np.linalg.norm(b))
    tol = root_tol * max(sigma, 1e-3)
    path: list[ParetoState] = []

    if norm_b <= sigma + tol:
        x = np.zeros(problem.shape[1])
        return RootReport(x=x, tau=0.0, misfit=norm_b, sigma=sigma,
                          status=STATUS_CONVERGED, subproblems=0,
                          time_sec=time.perf_counter() - start, path=path)

    # The radius-zero subproblem is trivial: x = 0, multiplier from b.
    lam = dual_weighted_inf_norm(problem.op.apply_adjoint(b) - problem.c,
                                 problem.w)
    misfit = norm_b
    tau = 0.0
    tau_lo, tau_hi = 0.0, np.inf  # misfit(tau_lo) > sigma > misfit(tau_hi)
    x = np.zeros(problem.shape[1])
    path.append(ParetoState(tau, misfit, lam, STATUS_OPTIMAL, 0))
    status = STATUS_BUDGET

    for k in range(max_subproblems):
        if lam > 0:
            tau_next = newton_tau_update(tau, misfit, sigma, lam)
        else:
            tau_next = np.inf
        if not (tau_lo < tau_next < tau_hi):
            tau_next = (0.5 * (tau_lo + tau_hi) if np.isfinite(tau_hi)
                        else 2.0 * max(tau_lo, 1.0))
        tau = tau_next
        sub = LassoProblem(op=problem.op, b=b, tau=tau, w=problem.w,
                           mu=problem.mu, c=problem.c)
        x0, _ = project(x, sub.w, tau)
        report: SolverReport = solve(sub, x0, options)
        x = report.x
        misfit = float(np.linalg.norm(report.r))
        lam = report.lam
        path.append(ParetoState(tau, misfit, lam, report.status,
                                report.iterations))
        if abs(misfit - sigma) <= tol:
            status = STATUS_CONVERGED
            break
        # Only fully solved subproblems update the bracket: an inexact misfit
        # can otherwise exclude the root from the bracket for good.
        if report.status == STATUS_OPTIMAL:
            if misfit > sigma:
                if lam == 0:
                    # The ball constraint is inactive: every larger radius has
                    # this same solution, and every smaller one a larger misfit.
                    status = STATUS_UNREACHABLE
                    break
                tau_lo = max(tau_lo, tau)
            else:
                tau_hi = min(tau_hi, tau)

    return RootReport(x=x, tau=tau, misfit=misfit, sigma=sigma, status=status,
                      subproblems=len(path) - 1,
                      time_sec=time.perf_counter() - start, path=path)
