import numpy as np
import pytest

from lassokit import rootfind
from lassokit.ball import weighted_l1_norm
from lassokit.duality import gap_scale
from lassokit.model import DenseOperator, LassoProblem, LinearOperator, SolverOptions
from lassokit.probgen import GeneratorSpec, gen_instance
from lassokit.rootfind import (
    STATUS_CONVERGED,
    STATUS_UNREACHABLE,
    Bracket,
    misfit_interval,
    newton_tau_update,
    scaled_start,
    solve_bpdn,
)
from lassokit.solver import STATUS_OPTIMAL, hybrid_solve, spg_solve


def test_newton_update_fixed_point():
    assert newton_tau_update(2.0, 1.5, 1.5, 0.7) == pytest.approx(2.0)


def test_newton_update_formula():
    tau, misfit, sigma, lam = 1.0, 3.0, 1.0, 2.0
    assert newton_tau_update(tau, misfit, sigma, lam) == pytest.approx(
        tau + (misfit - sigma) * misfit / lam
    )


def test_newton_update_requires_positive_multiplier():
    with pytest.raises(ValueError):
        newton_tau_update(1.0, 2.0, 1.0, 0.0)


def test_trivial_root_at_origin():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 8))
    b = rng.normal(size=5)
    p = LassoProblem(op=DenseOperator(a), b=b, tau=0.0)
    report = solve_bpdn(p, sigma=float(np.linalg.norm(b)) * 1.5)
    assert report.status == STATUS_CONVERGED
    assert report.subproblems == 0
    assert np.array_equal(report.x, np.zeros(8))
    assert report.tau == 0.0


def test_negative_sigma_raises():
    p = LassoProblem(op=DenseOperator(np.eye(2)), b=np.ones(2), tau=0.0)
    with pytest.raises(ValueError):
        solve_bpdn(p, sigma=-1.0)
    with pytest.raises(ValueError):
        solve_bpdn(p, sigma=float("nan"))


def test_bad_root_tolerance_or_budget_raises():
    # Each used to spend the whole budget, or report it spent after none.
    p = LassoProblem(op=DenseOperator(np.eye(2)), b=np.ones(2), tau=0.0)
    for tol in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="root_tol"):
            solve_bpdn(p, sigma=0.5, root_tol=tol)
    with pytest.raises(ValueError, match="max_subproblems"):
        solve_bpdn(p, sigma=0.5, max_subproblems=-2)
    assert solve_bpdn(p, sigma=0.5, max_subproblems=0).subproblems == 0


def test_unknown_solver_raises():
    p = LassoProblem(op=DenseOperator(np.eye(2)), b=np.ones(2), tau=0.0)
    with pytest.raises(ValueError, match="unknown solver"):
        solve_bpdn(p, sigma=0.5, solver="hybird")


def test_linear_curve_one_newton_step():
    # b parallel to the single column: the misfit is affine in tau, so the
    # first Newton step lands exactly on the root.
    a = np.array([[0.6], [0.8]])
    b = 3.0 * a[:, 0]
    p = LassoProblem(op=DenseOperator(a), b=b, tau=0.0)
    report = solve_bpdn(p, sigma=1.0)
    assert report.status == STATUS_CONVERGED
    assert report.subproblems == 1
    assert report.tau == pytest.approx(2.0, abs=1e-4)
    assert report.misfit == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("solver", ["spg", "hybrid"])
def test_random_instance_converges(solver):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(64, 128))
    a /= np.linalg.norm(a, axis=0)
    x0 = np.zeros(128)
    x0[rng.choice(128, 10, replace=False)] = rng.choice([-1.0, 1.0], 10)
    b = a @ x0
    sigma = 0.01 * float(np.linalg.norm(b))
    p = LassoProblem(op=DenseOperator(a), b=b, tau=0.0)
    report = solve_bpdn(p, sigma=sigma, solver=solver)
    assert report.status == STATUS_CONVERGED
    assert report.subproblems <= 20
    rel = abs(report.misfit - sigma) / max(sigma, 1e-3)
    assert rel <= 1e-5
    # The path starts at the zero solution and tracks decreasing misfits.
    assert report.path[0].tau == 0.0
    assert report.path[0].misfit == pytest.approx(float(np.linalg.norm(b)))


def test_misfit_certificate_scaling():
    # sigma below the reachable misfit still terminates via the bracket.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, 0.0])
    p = LassoProblem(op=DenseOperator(a), b=b, tau=0.0)
    report = solve_bpdn(p, sigma=float(np.linalg.norm(b)) * 0.9)
    assert report.status == STATUS_CONVERGED
    assert abs(report.misfit - report.sigma) <= 1e-5 * max(report.sigma, 1e-3)


@pytest.mark.parametrize("solver", ["spg", "hybrid"])
def test_unreachable_sigma_has_its_own_status(solver):
    # sigma = 0.01||b|| lies below the ridge misfit for mu = 0.1: once a
    # subproblem's ball constraint goes inactive (lam = 0), no radius helps.
    inst = gen_instance(GeneratorSpec(m=64, n=128), 1)
    report = solve_bpdn(inst.problem(mu=0.1), inst.sigma, solver=solver)
    assert report.status == STATUS_UNREACHABLE
    last = report.path[-1]
    assert last.subproblem_status == STATUS_OPTIMAL
    assert last.lam == 0.0
    assert report.misfit == last.misfit > inst.sigma
    assert report.subproblems <= 5


@pytest.mark.parametrize("solver", ["spg", "hybrid"])
@pytest.mark.parametrize("mu, options", [
    (0.0, SolverOptions(opt_tol=1e-3)),
    (1e-3, SolverOptions(opt_tol=0.0, max_iter=300)),
])
def test_a_misfit_solved_to_opt_tol_ends_the_run(mu, options, solver):
    # A misfit in the root window from a subproblem solved to the caller's
    # opt_tol converges however loose that is; with opt_tol = 0 such a solve
    # runs until its gap is 0 or max_iter is spent.
    inst = gen_instance(GeneratorSpec(m=64, n=128), 1)
    report = solve_bpdn(inst.problem(mu=mu), inst.sigma, options=options,
                        solver=solver)
    assert report.status == STATUS_CONVERGED
    assert report.subproblems <= 20
    assert report.path[-1].opt_tol == options.opt_tol
    misfit = float(np.linalg.norm(inst.a @ report.x - inst.b))
    assert abs(misfit - inst.sigma) <= 1e-5 * inst.sigma


@pytest.mark.parametrize("solver", ["spg", "hybrid"])
def test_root_run_forward_products_are_the_subproblems(monkeypatch, solver):
    # The misfit comes from each subproblem's residual: outside the
    # subproblem solves, a root run makes no forward product.
    rng = np.random.default_rng(2)
    a = rng.normal(size=(32, 64))
    a /= np.linalg.norm(a, axis=0)
    x0 = np.zeros(64)
    x0[rng.choice(64, 5, replace=False)] = rng.choice([-1.0, 1.0], 5)
    forwards = [0]
    in_solves = [0]

    def forward(x):
        forwards[0] += 1
        return a @ x

    def counted(solve):
        def run(*args, **kwargs):
            before = forwards[0]
            report = solve(*args, **kwargs)
            in_solves[0] += forwards[0] - before
            assert np.array_equal(report.r, a @ report.x - b)
            return report
        return run

    name = f"{solver}_solve"
    monkeypatch.setattr(rootfind, name, counted(getattr(rootfind, name)))
    b = a @ x0 + 0.01 * rng.normal(size=32)
    op = LinearOperator(a.shape, forward, lambda y: a.T @ y)
    p = LassoProblem(op=op, b=b, tau=0.0, mu=1e-3)
    report = solve_bpdn(p, sigma=0.05 * float(np.linalg.norm(b)), solver=solver)
    assert report.subproblems >= 2
    assert in_solves[0] > 0
    assert forwards[0] == in_solves[0]
    assert report.misfit == float(np.linalg.norm(b - a @ report.x))


def test_uncertified_misfit_leaves_the_bracket_alone():
    bracket = Bracket(lo=1.0, hi=3.0)
    bracket.update(2.0, 0.9, 1.1, sigma=1.0)  # the interval straddles sigma
    assert (bracket.lo, bracket.hi) == (1.0, 3.0)
    bracket.update(2.0, 1.0, 1.1, sigma=1.0)  # touching sigma is not above it
    assert (bracket.lo, bracket.hi) == (1.0, 3.0)
    bracket.update(2.5, 0.8, 0.95, sigma=1.0)  # certified below sigma
    assert (bracket.lo, bracket.hi) == (1.0, 2.5)
    bracket.update(1.5, 1.05, 1.2, sigma=1.0)  # certified above sigma
    assert (bracket.lo, bracket.hi) == (1.5, 2.5)
    assert bracket.safeguard(2.0) == 2.0
    assert bracket.safeguard(2.5) == 2.0  # on an end: bisect
    assert Bracket(lo=3.0).safeguard(np.inf) == 6.0


@pytest.mark.parametrize("mu", [0.0, 1e-3])
@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
def test_loose_subproblem_interval_holds_the_optimal_misfit(mu, solve):
    inst = gen_instance(GeneratorSpec(m=64, n=128, kind="sphere_walk",
                                      gamma=0.1, k=10), 3)
    p = inst.problem(mu=mu)
    exact = solve(p, options=SolverOptions(opt_tol=1e-10))
    r_star = float(np.linalg.norm(exact.r))
    for opt_tol in (1e-1, 1e-2, 1e-3):
        rep = solve(p, options=SolverOptions(opt_tol=opt_tol))
        misfit = float(np.linalg.norm(rep.r))
        low, high = misfit_interval(misfit, rep.gap * gap_scale(rep.f),
                                    f_is_misfit=mu == 0)
        assert low - 1e-9 <= r_star <= high + 1e-9


@pytest.mark.parametrize("solver", ["spg", "hybrid"])
@pytest.mark.parametrize("seed", [17000, 17001, 17003])
def test_ridge_root_runs_converge(seed, solver):
    # Sphere-walk mu = 1e-3 runs that used to end at the subproblem budget:
    # a subproblem solved to opt_tol misread its misfit by more than the
    # root tolerance and moved the bracket past the root.
    inst = gen_instance(GeneratorSpec(m=200, n=500, kind="sphere_walk",
                                      gamma=0.1, k=20), seed)
    report = solve_bpdn(inst.problem(mu=1e-3), inst.sigma, solver=solver)
    assert report.status == STATUS_CONVERGED
    assert report.subproblems <= 40
    misfit = float(np.linalg.norm(inst.a @ report.x - inst.b))
    assert abs(misfit - inst.sigma) <= 1e-5 * inst.sigma
    assert report.path[0].tau == 0.0
    assert all(s.gap <= s.opt_tol for s in report.path
               if s.subproblem_status == STATUS_OPTIMAL)


@pytest.mark.parametrize("solver", ["spg", "hybrid"])
def test_hybrid_subproblems_start_from_carried_pairs(solver):
    inst = gen_instance(GeneratorSpec(m=64, n=128, k=10), 1)
    report = solve_bpdn(inst.problem(), inst.sigma, solver=solver)
    assert report.status == STATUS_CONVERGED
    carried = [s.warm_pairs for s in report.path]
    assert carried[:2] == [0, 0]  # the radius-zero point and a cold start
    assert (max(carried) > 0) == (solver == "hybrid")


def test_scale_predictor_lands_on_the_new_sphere():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 2.0, size=50)
    x = rng.normal(size=50) * (rng.random(50) < 0.3)
    tau_prev = weighted_l1_norm(x, w)
    for tau in (0.7 * tau_prev, tau_prev, 1.3 * tau_prev):
        x0 = scaled_start(x, tau_prev, tau, w)
        assert weighted_l1_norm(x0, w) == pytest.approx(tau, rel=1e-12)
        assert np.array_equal(np.sign(x0), np.sign(x))
    assert np.array_equal(scaled_start(np.zeros(50), 0.0, 2.0, w), np.zeros(50))


@pytest.mark.parametrize("solver", ["spg", "hybrid"])
def test_root_report_counts_every_product(solver):
    inst = gen_instance(GeneratorSpec(m=32, n=64, k=5), 3)
    counts = {"fwd": 0, "adj": 0}

    def forward(x):
        counts["fwd"] += 1
        return inst.a @ x

    def adjoint(y):
        counts["adj"] += 1
        return inst.a.T @ y

    op = LinearOperator(inst.a.shape, forward, adjoint)
    report = solve_bpdn(LassoProblem(op=op, b=inst.b, tau=0.0), inst.sigma,
                        solver=solver)
    assert report.subproblems >= 2
    assert report.forward_products == counts["fwd"] > 0
    assert report.adjoint_products == counts["adj"] > 0
