import dataclasses

import numpy as np
import pytest

from conftest import dense_bfgs_matrix, qp_oracle
from lassokit import linesearch as linesearch_module
from lassokit import model as model_module
from lassokit import solver as solver_module
from lassokit.ball import (
    FEAS_TOL,
    FaceId,
    face_of,
    in_self_projection_cone,
    weighted_l1_norm,
)
from lassokit.duality import StoppingOracle, dual_weighted_inf_norm
from lassokit.facebasis import basis_init, basis_to_dense
from lassokit.model import (
    DenseOperator,
    LassoProblem,
    LinearOperator,
    SolverOptions,
    evaluate,
    objective_value,
)
from lassokit.probgen import GeneratorSpec, gen_instance
from lassokit.linesearch import SearchResult
from lassokit.solver import (
    MEMORY,
    STATUS_ITER_LIMIT,
    STATUS_LINESEARCH_FAILURE,
    STATUS_OPTIMAL,
    LbfgsModel,
    WarmStart,
    hybrid_solve,
    spg_solve,
)


def _clamp_problem(tau=1.0):
    return LassoProblem(op=DenseOperator(np.array([[1.0]])), b=np.array([2.0]),
                        tau=tau)


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
def test_scalar_clamp(solve):
    report = solve(_clamp_problem())
    assert report.status == STATUS_OPTIMAL
    assert report.x[0] == pytest.approx(1.0, abs=1e-9)
    assert report.f == pytest.approx(0.5, abs=1e-9)


def test_zero_iterations_at_optimum():
    report = hybrid_solve(_clamp_problem(), x0=np.array([1.0]))
    assert report.status == STATUS_OPTIMAL
    assert report.iterations == 0


def test_zero_radius_trivial():
    report = hybrid_solve(_clamp_problem(tau=0.0))
    assert report.status == STATUS_OPTIMAL
    assert report.iterations == 0
    assert np.array_equal(report.x, np.zeros(1))


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
@pytest.mark.parametrize("mu", [0.0, 0.1])
def test_zero_radius_reports_the_multiplier(solve, mu):
    # The ordinary path certifies x = 0 at once and reports the multiplier
    # ||A'b - c||_{w,inf} of the radius-zero problem.
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 9))
    p = LassoProblem(op=DenseOperator(a), b=rng.normal(size=6), tau=0.0,
                     w=rng.uniform(0.5, 2.0, size=9), mu=mu,
                     c=rng.normal(size=9))
    report = solve(p, x0=rng.normal(size=9), options=SolverOptions(opt_tol=0.0))
    assert report.status == STATUS_OPTIMAL
    assert report.iterations == 0
    assert report.gap == 0.0
    assert not np.any(report.x)
    assert report.lam == dual_weighted_inf_norm(a.T @ p.b - p.c, p.w)


def test_infeasible_start_is_projected():
    report = hybrid_solve(_clamp_problem(), x0=np.array([50.0]))
    assert report.status == STATUS_OPTIMAL
    assert report.x[0] == pytest.approx(1.0, abs=1e-9)


def test_iteration_limit_status():
    rng = np.random.default_rng(0)
    p = LassoProblem(op=DenseOperator(rng.normal(size=(20, 30))),
                     b=rng.normal(size=20), tau=2.0)
    report = hybrid_solve(p, options=SolverOptions(max_iter=1))
    assert report.status == STATUS_ITER_LIMIT
    assert report.iterations == 1


def test_interior_optimum_uses_quasi_newton():
    # Unconstrained minimizer strictly inside the ball.
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 4))
    x_star = rng.normal(size=4) * 0.05
    p = LassoProblem(op=DenseOperator(a), b=a @ x_star, tau=1.0)
    report = hybrid_solve(p, options=SolverOptions(trace=True))
    assert report.status == STATUS_OPTIMAL
    assert np.allclose(report.x, x_star, atol=1e-5)
    assert report.qn_steps > 0
    for rec in report.trace:
        if rec.step_kind == "qn":
            assert rec.face_dim is None  # every model step was interior


def test_face_optimum_finishes_with_quasi_newton():
    # Ill-conditioned strictly convex 2-d quadratic whose constrained optimum
    # sits at (0.75, 0.25), strictly inside a 1-face of the unit ball.  On
    # that face the segment minimizer of a backtracked PG step is the optimum.
    p = LassoProblem(op=DenseOperator(np.diag([1.0, 6.0])),
                     b=np.array([1.25, 9.5 / 6.0]), tau=1.0)
    report = hybrid_solve(p, options=SolverOptions(trace=True))
    assert report.status == STATUS_OPTIMAL
    assert np.allclose(report.x, [0.75, 0.25], atol=1e-6)
    assert report.qn_steps > 0
    # The 3-d analogue: the gradient at x* = (0.5, 0.3, 0.2) is -0.5 in every
    # entry, so x* is the optimum, strictly inside a 2-face.
    dg = np.array([1.0, 6.0, 20.0])
    x_star = np.array([0.5, 0.3, 0.2])
    p = LassoProblem(op=DenseOperator(np.diag(dg)),
                     b=(dg**2 * x_star + 0.5) / dg, tau=1.0)
    report = hybrid_solve(p, options=SolverOptions(trace=True))
    assert report.status == STATUS_OPTIMAL
    assert np.allclose(report.x, x_star, atol=1e-6)
    assert report.trace[-1].step_kind == "qn"  # converges with a model step
    assert report.trace[-1].face_dim == 2


def test_solution_feasible_and_solvers_agree():
    rng = np.random.default_rng(2)
    for mu in (0.0, 0.1):
        a = rng.normal(size=(64, 128))
        a /= np.linalg.norm(a, axis=0)
        x0 = np.zeros(128)
        x0[rng.choice(128, 10, replace=False)] = rng.choice([-1.0, 1.0], 10)
        p = LassoProblem(op=DenseOperator(a), b=a @ x0, mu=mu,
                         tau=0.99 * float(np.sum(np.abs(x0))))
        rh = hybrid_solve(p)
        rs = spg_solve(p)
        assert rh.status == STATUS_OPTIMAL
        assert rs.status == STATUS_OPTIMAL
        assert weighted_l1_norm(rh.x, p.w) <= p.tau * (1 + 1e-9)
        assert rh.f == pytest.approx(rs.f, rel=2e-6)
        assert rh.qn_steps > 0


def _counted_gaussian(seed):
    """Gaussian 32x64 problem whose operator counts its products."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(32, 64))
    a /= np.linalg.norm(a, axis=0)
    x0 = np.zeros(64)
    x0[rng.choice(64, 6, replace=False)] = rng.choice([-1.0, 1.0], 6)
    counts = {"fwd": 0, "adj": 0}

    def forward(x):
        counts["fwd"] += 1
        return a @ x

    def adjoint(y):
        counts["adj"] += 1
        return a.T @ y

    op = LinearOperator(a.shape, forward, adjoint)
    p = LassoProblem(op=op, b=a @ x0, tau=0.99 * float(np.sum(np.abs(x0))))
    return a, p, counts


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
def test_one_adjoint_product_per_iteration(solve):
    # The gap check reads A'(b - Ax) off the iterate's gradient, so the
    # only adjoint products are the gradients of the accepted iterates.
    _, p, counts = _counted_gaussian(8)
    report = solve(p)
    assert report.status == STATUS_OPTIMAL
    assert report.iterations > 0
    assert counts["adj"] == report.iterations + 1

    it = evaluate(p, report.x)
    it.g
    before = counts["adj"]
    StoppingOracle(p, 1e-6).update(it)
    assert counts["adj"] == before


def test_hybrid_products_and_exact_report_after_qn_steps(monkeypatch):
    # A QN step reuses A d for its residual, r + a*A d, so it costs one
    # forward product, and a PG search costs one whatever its trials.  That
    # residual drifts by rounding over a run of QN steps; a solve that ends
    # on one recomputes f and r from x.
    a, p, counts = _counted_gaussian(8)
    searches = []  # (kind, status, trials) of every line search

    def spy(kind, search):
        def run(*args):
            res = search(*args)
            searches.append((kind, res.status, res.trials))
            return res
        return run

    monkeypatch.setattr(solver_module, "face_wolfe_search",
                        spy("qn", solver_module.face_wolfe_search))
    monkeypatch.setattr(solver_module, "nonmonotone_armijo_backtrack",
                        spy("pg", solver_module.nonmonotone_armijo_backtrack))
    report = hybrid_solve(p)
    fwd, adj = counts["fwd"], counts["adj"]
    accepted = [kind for kind, status, _ in searches if status == "accepted"]
    assert report.status == STATUS_OPTIMAL
    assert accepted[-2:] == ["qn", "qn"]
    assert np.array_equal(report.r, a @ report.x - p.b)
    assert report.f == objective_value(p, report.x)[0]
    # The start point, one per PG search (whatever its trials), one per QN
    # search and the recompute at the end; one adjoint per accepted point.
    pg_searches = sum(kind == "pg" for kind, _, _ in searches)
    qn_searches = sum(kind == "qn" for kind, _, _ in searches)
    assert any(t > 1 for kind, _, t in searches if kind == "pg")
    assert fwd == 1 + pg_searches + qn_searches + 1
    assert adj == 1 + len(accepted)


def test_exact_report_after_backtracked_pg_step(monkeypatch):
    # A PG step accepted after its first trial carries the residual
    # r + lam*A d; a solve that ends on one recomputes f and r from x.
    accepted = []  # trials of every accepted PG search

    def spy(*args):
        res = search(*args)
        if res.status == "accepted":
            accepted.append(res.trials)
        return res

    search = solver_module.nonmonotone_armijo_backtrack
    monkeypatch.setattr(solver_module, "nonmonotone_armijo_backtrack", spy)
    inst = gen_instance(GeneratorSpec(m=32, n=64, kind="sphere_walk",
                                      gamma=0.1, k=6), 9)
    p = inst.problem()
    report = spg_solve(p)
    assert report.pg_steps == len(accepted)
    assert accepted[-1] > 1
    assert np.array_equal(report.r, inst.a @ report.x - p.b)
    assert report.f == objective_value(p, report.x)[0]


def test_report_is_the_best_point():
    # The nonmonotone search lets f rise.  This solve stops at its iteration
    # limit after a rise, and reports the best point, whose f the gap reads.
    inst = gen_instance(GeneratorSpec(m=128, n=256, kind="sphere_walk",
                                      gamma=0.05, k=10), 18009)
    p = inst.problem()
    report = spg_solve(p, options=SolverOptions(trace=True))
    traced = [t.f for t in report.trace]
    assert report.status == STATUS_ITER_LIMIT
    assert traced[-1] > min(traced) * (1 + 1e-6)
    assert report.f == pytest.approx(min(traced), rel=1e-12)
    f, r = objective_value(p, report.x)
    assert f == report.f
    assert np.array_equal(r, report.r)


def test_clamped_step_stays_in_the_ball():
    # A BB step clamped at its maximum projects x - 1e10*g; the solve must
    # stay within the feasibility slack with a zero tolerance.
    p = gen_instance(GeneratorSpec(m=8, n=10, k=2), 0).problem()
    report = hybrid_solve(p, options=SolverOptions(opt_tol=0))
    assert weighted_l1_norm(report.x, p.w) <= p.tau * (1.0 + FEAS_TOL)


def test_spg_never_classifies_faces(monkeypatch):
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return face_of(*args, **kwargs)

    monkeypatch.setattr(model_module, "face_of", counted)
    _, p, _ = _counted_gaussian(8)
    report = spg_solve(p)
    assert report.iterations > 0
    assert calls[0] == 0
    report = hybrid_solve(p)  # classifies each accepted point at most once
    assert 0 < calls[0] <= report.iterations + 1


def _sphere_walk_64x128():
    return gen_instance(GeneratorSpec(m=64, n=128, kind="sphere_walk",
                                      gamma=0.1, k=10), 1).problem()


def test_face_phase_starts_after_a_pg_step_on_a_kept_face(monkeypatch):
    # A PG step whose end points share a face starts a face phase, with a
    # model when the face is usable (interior, or support >= 2), and no
    # cone test gates it; a PG step that changes the face starts none.
    events = []  # ("pg", from, to) per accepted PG step, ("model", face, model)

    def pg_spy(problem, it, *rest):
        res = pg(problem, it, *rest)
        events.append(("pg", it, res.iterate))
        return res

    def model_spy(problem, face, h0):
        model = face_model(problem, face, h0)
        events.append(("model", face, model))
        return model

    def no_cone(*args, **kwargs):
        raise AssertionError("the cone test gates no face phase")

    pg, face_model = solver_module._pg_search, solver_module._face_model
    monkeypatch.setattr(solver_module, "_pg_search", pg_spy)
    monkeypatch.setattr(solver_module, "_face_model", model_spy)
    monkeypatch.setattr(solver_module, "in_self_projection_cone", no_cone)
    p = _sphere_walk_64x128()
    report = hybrid_solve(p, options=SolverOptions(max_iter=300))
    phases = changed = off_cone = 0
    for k, (kind, prev, it) in enumerate(events):
        if kind != "pg":
            continue
        kept = k + 1 < len(events) and events[k + 1][0] == "model"
        assert kept == (prev.face == it.face)
        if kept:
            usable = it.face.kind == "interior" or len(it.face.support) >= 2
            assert (events[k + 1][2] is not None) == usable
            phases += usable
            off_cone += not in_self_projection_cone(it.x, -it.g, p.w, p.tau)
        else:
            changed += 1
    assert phases and changed
    assert off_cone  # phases a cone gate would have refused
    assert report.face_phases == phases


def test_capped_step_continues_on_the_subface(monkeypatch):
    # A face step capped at the first sign flip zeroes that entry exactly,
    # and the next face step runs from that point on the subface: its
    # direction lies in the subface's difference hull.
    calls = []  # (iterate, direction, cap, result) per face search

    def spy(problem, it, d, bound):
        res = search(problem, it, d, bound)
        calls.append((it, d, bound, res))
        return res

    search = solver_module.face_wolfe_search
    monkeypatch.setattr(solver_module, "face_wolfe_search", spy)
    p = _sphere_walk_64x128()
    hybrid_solve(p, options=SolverOptions(max_iter=300))
    continued = 0
    for (it, d, bound, res), nxt in zip(calls, calls[1:]):
        if res.status != "accepted" or res.alpha != bound \
                or it.face.kind == "interior":  # capped at the sphere
            continue
        old, new = np.flatnonzero(it.x), np.flatnonzero(res.iterate.x)
        assert set(new) < set(old)  # the support shrank, and never grows
        if nxt[0] is not res.iterate:
            continue
        continued += 1
        d_next = nxt[1]
        assert not np.any(d_next[res.iterate.x == 0])
        sign_w = np.sign(res.iterate.x[new]) * p.w[new]
        assert abs(float(sign_w @ d_next[new])) <= 1e-12 * np.linalg.norm(d_next)
    assert continued > 0


def test_zero_decrease_step_ends_the_phase():
    # Draw 51 of criterion 7 (m = 12, n = 8) reaches the optimum of a face,
    # where the model's step is rounding-level and f does not fall.  That
    # step ends the phase and a PG step follows; continuing the phase there
    # would repeat the step until max_iter.
    rng = np.random.default_rng(107)
    for _ in range(52):
        m, n = int(rng.integers(2, 13)), int(rng.integers(2, 9))
        mu = 0.0 if m >= n else float(rng.uniform(0.05, 0.3))
        a, b = rng.normal(size=(m, n)), rng.normal(size=m)
        tau = float(rng.uniform(0.2, 1.5))
    assert (m, n) == (12, 8)
    report = hybrid_solve(LassoProblem(op=DenseOperator(a), b=b, tau=tau, mu=mu),
                          options=SolverOptions(trace=True))
    trace = report.trace
    flat = [k for k in range(1, len(trace))
            if trace[k].step_kind == "qn" and trace[k].f >= trace[k - 1].f]
    assert flat and all(trace[k + 1].step_kind == "pg" for k in flat)
    assert report.phase_ends["no_descent"] == len(flat)
    assert report.status == STATUS_OPTIMAL
    assert report.iterations < 10 * m
    _, f_star = qp_oracle(a, b, tau, mu=mu)
    assert report.f == pytest.approx(f_star, abs=1e-6 * max(1.0, abs(f_star)))


def test_f_stall_near_the_optimum_keeps_the_phase_while_the_gap_falls():
    # Near the optimum of criterion 6's instance 60071 the face steps lower f
    # by rounding-level amounts, at most STALL_RATIO times the phase's
    # largest decrease, yet each still cuts the gap.  The phase goes on and
    # certifies the optimum; ending it there left a PG step that could not
    # pass the nonmonotone test and ended the run `linesearch_failure`.
    spec = GeneratorSpec(m=256, n=512, k=20, dist="uniform", tau_mult=0.99)
    p = gen_instance(spec, 60071).problem()
    report = hybrid_solve(p, options=SolverOptions(trace=True))
    assert report.status == STATUS_OPTIMAL and report.gap <= 1e-6
    tail = []  # (decrease, gap) of the final face phase's steps
    for prev, rec in zip(report.trace, report.trace[1:]):
        tail = tail + [(prev.f - rec.f, rec.gap)] if rec.step_kind == "qn" else []
    largest = tail[0][0]
    kept = [gap <= solver_module.STALL_GAP_SHRINK * prev_gap
            for (_, prev_gap), (drop, gap) in zip(tail, tail[1:])
            if drop <= solver_module.STALL_RATIO * largest]
    assert kept and all(kept)
    assert report.phase_ends == {"edge": 0, "stall": 0, "no_descent": 0,
                                 "solve_end": 1}


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
def test_trajectory_mode_solves(solve):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(32, 64))
    a /= np.linalg.norm(a, axis=0)
    x0 = np.zeros(64)
    x0[rng.choice(64, 6, replace=False)] = 1.0
    p = LassoProblem(op=DenseOperator(a), b=a @ x0,
                     tau=0.99 * float(np.sum(np.abs(x0))))
    report = solve(p, options=SolverOptions(line_search_mode="trajectory"))
    assert report.status == STATUS_OPTIMAL
    assert report.gap <= 1e-6


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
def test_stationary_search_ends_linesearch_failure(solve, monkeypatch):
    # A search makes no move only from an iterate the oracle has rejected,
    # so the run cannot certify it either and stops as a failure.
    def stuck(problem, it, alpha0, fmax):
        return SearchResult("stationary", it, 0.0, 1)

    monkeypatch.setattr(solver_module, "nonmonotone_armijo_backtrack", stuck)
    _, p, _ = _counted_gaussian(8)
    report = solve(p)
    assert report.status == STATUS_LINESEARCH_FAILURE
    assert report.iterations == 1
    assert np.array_equal(report.x, np.zeros(64))


def test_matches_small_oracle():
    rng = np.random.default_rng(4)
    for _ in range(15):
        m, n = int(rng.integers(4, 13)), int(rng.integers(2, 7))
        mu = 0.0 if m >= n else float(rng.uniform(0.05, 0.3))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        tau = float(rng.uniform(0.2, 1.5))
        p = LassoProblem(op=DenseOperator(a), b=b, tau=tau, mu=mu)
        _, f_star = qp_oracle(a, b, tau, mu=mu)
        report = hybrid_solve(p)
        assert report.f == pytest.approx(f_star, abs=1e-6 * max(1.0, abs(f_star)))


def _solved_and_widened():
    """A hybrid solve of sphere-walk 64x128 (mu 1e-3), and its problem at 1.01 tau."""
    p = gen_instance(GeneratorSpec(m=64, n=128, kind="sphere_walk",
                                   gamma=0.1, k=10), 1).problem(mu=1e-3)
    first = hybrid_solve(p)
    wider = LassoProblem(op=p.op, b=p.b, tau=1.01 * p.tau, mu=p.mu)
    return first, wider


def _evaluated_norms(monkeypatch):
    """||x||_w / tau of every point the solvers evaluate from now on."""
    norms = []
    evaluate_ = model_module.evaluate

    def spy(problem, x, r=None):
        norms.append(weighted_l1_norm(x, problem.w) / problem.tau)
        return evaluate_(problem, x, r)

    monkeypatch.setattr(solver_module, "evaluate", spy)
    monkeypatch.setattr(linesearch_module, "evaluate", spy)
    return norms


def test_warm_resolve_starts_with_a_face_step(monkeypatch):
    # The scaled point keeps the signs, so it lies on the face of the model
    # the first solve ended in: the re-solve opens a face phase at once,
    # from a model that holds that model's pairs.
    first, wider = _solved_and_widened()
    warm = first.warm
    assert warm.face is not None and warm.pairs
    before = [(s.copy(), y.copy(), rho) for s, y, rho in warm.pairs]
    held = []

    def direction_spy(model, g):
        held.append(len(model.pairs))
        return direction(model, g)

    direction = LbfgsModel.direction
    monkeypatch.setattr(LbfgsModel, "direction", direction_spy)
    tight = SolverOptions(opt_tol=1e-10, trace=True)
    report = hybrid_solve(wider, 1.01 * first.x, tight, warm=warm)
    assert report.trace[1].step_kind == "qn"
    assert held[0] == len(warm.pairs)
    cold = hybrid_solve(wider, options=tight)
    assert report.status == cold.status == STATUS_OPTIMAL
    assert report.f == pytest.approx(cold.f, rel=1e-8)
    # The solve read the pairs and left them as they were.
    assert len(warm.pairs) == len(before)
    for (s, y, rho), (s0, y0, rho0) in zip(warm.pairs, before):
        assert np.array_equal(s, s0) and np.array_equal(y, y0) and rho == rho0


def test_warm_start_from_other_weights_stays_feasible(monkeypatch):
    # Pairs reduced in another problem's face basis make a poor model but
    # still a face direction of this problem's own basis.
    first, wider = _solved_and_widened()
    w = np.random.default_rng(1).uniform(0.5, 2.0, size=wider.shape[1])
    p = LassoProblem(op=wider.op, b=wider.b, w=w, mu=wider.mu,
                     tau=1.01 * weighted_l1_norm(first.x, w))
    norms = _evaluated_norms(monkeypatch)
    report = hybrid_solve(p, 1.01 * first.x, SolverOptions(trace=True),
                          warm=first.warm)
    assert report.trace[1].step_kind == "qn"  # the carried model was used
    assert report.status == STATUS_OPTIMAL
    assert max(norms) <= 1.0 + 1e-12


def test_spg_reads_only_the_warm_step(monkeypatch):
    first, wider = _solved_and_widened()
    alphas = []

    def search_spy(problem, it, alpha0, fmax):
        alphas.append(alpha0)
        return search(problem, it, alpha0, fmax)

    search = solver_module.nonmonotone_armijo_backtrack
    monkeypatch.setattr(solver_module, "nonmonotone_armijo_backtrack",
                        search_spy)
    x0 = 1.01 * first.x
    full = spg_solve(wider, x0, warm=first.warm)
    assert alphas[0] == first.warm.alpha_bb
    step = spg_solve(wider, x0, warm=WarmStart(first.warm.alpha_bb))
    assert full.iterations == step.iterations
    assert np.array_equal(full.x, step.x)
    assert full.warm.face is None and full.warm.pairs == ()


def test_warm_pairs_of_another_size_are_not_carried():
    # Interior faces compare equal across problem sizes; pairs that do not
    # fit the problem are dropped and the solve starts with a PG step.
    p = LassoProblem(op=DenseOperator(np.eye(2)), b=np.array([0.1, 0.2]),
                     tau=1.0)
    warm = WarmStart(0.5, FaceId("interior"), 1.0,
                     ((np.ones(3), np.ones(3), 1.0 / 3.0),))
    report = hybrid_solve(p, options=SolverOptions(trace=True), warm=warm)
    assert report.status == STATUS_OPTIMAL
    assert report.trace[1].step_kind == "pg"


def test_interior_phase_moves_to_the_face_it_reaches(monkeypatch):
    # In this run an uncapped interior face step stops within the
    # feasibility slack of the sphere.  Capped at the first sign flip, as
    # from a boundary point, the interior model's next step would leave the
    # ball; the phase continues on the face reached instead.
    p = gen_instance(GeneratorSpec(m=64, n=128, k=10), 2).problem()
    first = hybrid_solve(p)
    wider = LassoProblem(op=p.op, b=p.b, tau=1.1 * p.tau)
    norms = _evaluated_norms(monkeypatch)
    report = hybrid_solve(wider, 1.1 * first.x,
                          warm=WarmStart(first.warm.alpha_bb))
    assert report.status == STATUS_OPTIMAL
    assert max(norms) <= 1.0 + 1e-12


def test_warm_start_on_another_face_seeds_the_first_model(monkeypatch):
    # The start drops the smallest entry of the first solve's point, so it
    # lies on a subface of the face the carried pairs came from.  They are
    # reduced onto the start's own face: the first iteration is a face step
    # from a model holding every carried pair that passes the curvature
    # check, and the report counts them.
    first, wider = _solved_and_widened()
    warm = first.warm
    x0 = 1.01 * first.x
    x0[np.argmin(np.where(x0 != 0, np.abs(x0), np.inf))] = 0.0
    x0 *= wider.tau / weighted_l1_norm(x0, wider.w)
    assert face_of(x0, wider.w, wider.tau) != face_of(
        1.01 * first.x, wider.w, wider.tau)
    assert all(len(s) == wider.shape[1] for s, _, _ in warm.pairs)
    held = []

    def direction_spy(model, g):
        held.append(len(model.pairs))
        return direction(model, g)

    direction = LbfgsModel.direction
    monkeypatch.setattr(LbfgsModel, "direction", direction_spy)
    report = hybrid_solve(wider, x0, SolverOptions(trace=True), warm=warm)
    assert report.trace[1].step_kind == "qn"
    assert held[0] == report.warm_pairs > 0
    assert report.status == STATUS_OPTIMAL


def test_warm_pairs_are_exact_ambient_pairs_across_subfaces():
    # A loose solve stops in a phase that has passed through subfaces.  The
    # carried pairs are that phase's ambient steps: each moves entries that
    # are zero on the face of the model open at the end, so no single face
    # basis could hold them, and f is quadratic, so y = (A'A + mu*I)s.
    p = gen_instance(GeneratorSpec(m=64, n=128, kind="sphere_walk",
                                   gamma=0.1, k=10), 1).problem(mu=1e-3)
    warm = hybrid_solve(p, options=SolverOptions(opt_tol=1e-3)).warm
    assert warm.face is not None and len(warm.pairs) == MEMORY
    a = p.op.a
    for s, y, rho in warm.pairs:
        assert len(s) == len(y) == p.shape[1]
        assert np.any(s[warm.face.signs == 0] != 0)
        hs = a.T @ (a @ s) + p.mu * s
        assert np.linalg.norm(y - hs) <= 1e-9 * np.linalg.norm(hs)
        assert rho == pytest.approx(1.0 / float(s @ y), rel=1e-12)


def test_ambient_pair_in_the_subface_hull_is_an_exact_reduced_pair():
    # y = Q s with Q = A'A + mu*I.  When s lies in the difference hull of a
    # subface F' of F (one support entry dropped), the pair reduced onto F''s
    # basis B' is a secant pair of the reduced Hessian: B''y = (B''QB')(B''s).
    rng = np.random.default_rng(17)
    m, n, mu = 30, 16, 1e-3
    a = rng.normal(size=(m, n))
    q = a.T @ a + mu * np.eye(n)
    w = rng.uniform(0.5, 2.0, size=n)
    signs = np.zeros(n)
    support = rng.choice(n, 7, replace=False)
    signs[support] = rng.choice([-1.0, 1.0], size=7)
    sub = signs.copy()
    sub[support[0]] = 0.0
    basis = basis_init(FaceId("proper", sub), w, n)
    b = basis_to_dense(basis)
    assert b.shape[1] == basis_init(FaceId("proper", signs), w, n).k - 1
    s = b @ rng.normal(size=basis.k)
    y = q @ s
    model = LbfgsModel(MEMORY, 1.0, basis)
    assert model.update(s, y)
    s_red, y_red, _ = model.pairs[0]
    assert np.allclose(s_red, b.T @ s, rtol=0, atol=1e-12 * np.linalg.norm(s))
    expected = (b.T @ q @ b) @ s_red
    assert np.linalg.norm(y_red - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pair_counters_change_no_iterate(monkeypatch):
    # The solver reads the curvature check's verdict only to count it:
    # verdicts that claim every pair was stored zero the rejection counter
    # and leave every iterate as it was, in a cold solve and a warm one.
    first, wider = _solved_and_widened()
    s = np.ones(wider.shape[1])  # a carried pair of negative curvature
    warm = dataclasses.replace(first.warm,
                               pairs=((s, -s, -1.0),) + first.warm.pairs[1:])
    runs = [(_sphere_walk_64x128(), None, None), (wider, 1.01 * first.x, warm)]
    options = SolverOptions(max_iter=300, trace=True)
    counted = [hybrid_solve(p, x0, options, warm=warm) for p, x0, warm in runs]
    assert all(type(r.pairs_rejected) is type(r.warm_pairs) is int
               for r in counted)
    assert counted[1].pairs_rejected > 0 and counted[1].warm_pairs > 0
    update = LbfgsModel.update
    monkeypatch.setattr(LbfgsModel, "update",
                        lambda model, s, y: update(model, s, y) or True)
    for (p, x0, warm), report in zip(runs, counted):
        claimed = hybrid_solve(p, x0, options, warm=warm)
        assert claimed.pairs_rejected == 0
        assert claimed.warm_pairs == (len(warm.pairs) if warm else 0)
        assert np.array_equal(claimed.x, report.x)
        assert [(t.step_kind, t.f) for t in claimed.trace] == \
            [(t.step_kind, t.f) for t in report.trace]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
def test_very_large_radius_ends_optimal():
    # At an interior optimum lambda is rounding noise, and the dual's
    # -tau*lambda term scales it by tau = 1e8 times the generated radius.
    p = gen_instance(GeneratorSpec(m=64, n=128, k=5), 0).problem()
    report = hybrid_solve(LassoProblem(op=p.op, b=p.b, tau=1e8 * p.tau))
    assert report.status == STATUS_OPTIMAL


def test_lbfgs_empty_buffer_direction():
    model = LbfgsModel(memory=4, h0=0.5)
    g = np.array([2.0, -4.0])
    assert np.allclose(model.direction(g), -0.5 * g)


def test_lbfgs_secant_single_pair():
    rng = np.random.default_rng(5)
    model = LbfgsModel(memory=4, h0=0.7)
    s = rng.normal(size=5)
    y = s + 0.2 * rng.normal(size=5)
    if float(s @ y) <= 0:
        y = s
    assert model.update(s, y)
    # H y = s holds exactly after a single update.
    assert np.allclose(-model.direction(y), s, atol=1e-12)


def test_lbfgs_rejects_nonpositive_curvature():
    model = LbfgsModel(memory=4, h0=1.0)
    s = np.array([1.0, 0.0])
    assert not model.update(s, -s)
    assert len(model.pairs) == 0


def test_lbfgs_matches_dense_bfgs_oracle():
    rng = np.random.default_rng(6)
    for k in (1, 3, 8):
        dim = 6
        model = LbfgsModel(memory=8, h0=0.9)
        pairs = []
        for _ in range(k):
            s = rng.normal(size=dim)
            y = s + 0.3 * rng.normal(size=dim)
            if float(s @ y) <= 0:
                y = s
            model.update(s, y)
            pairs.append((s, y))
        H = dense_bfgs_matrix(pairs, 0.9, dim)
        g = rng.normal(size=dim)
        assert np.allclose(model.direction(g), -H @ g, atol=1e-10)


def test_lbfgs_newton_after_exact_line_searches():
    # On a strictly convex quadratic, exact line searches plus full-memory
    # updates drive the iterates to the minimizer in at most dim steps.
    rng = np.random.default_rng(7)
    dim = 5
    m = rng.normal(size=(dim, dim))
    H = m @ m.T + np.eye(dim)
    b = rng.normal(size=dim)
    x_star = np.linalg.solve(H, b)
    x = np.zeros(dim)
    g = H @ x - b
    model = LbfgsModel(memory=dim + 2, h0=1.0)
    for _ in range(dim + 1):
        d = model.direction(g)
        if float(d @ H @ d) <= 0:
            break
        alpha = -float(g @ d) / float(d @ H @ d)
        x_new = x + alpha * d
        g_new = H @ x_new - b
        model.update(x_new - x, g_new - g)
        x, g = x_new, g_new
        if np.linalg.norm(g) < 1e-12:
            break
    assert np.allclose(x, x_star, atol=1e-8)


class _UncountedOperator(DenseOperator):
    """The dense products without the operator's own counters."""

    def apply(self, x):
        return self._apply(x)

    def apply_adjoint(self, y):
        return self._adjoint(y)


def test_product_counters_equal_a_wrapping_counter_and_change_no_iterate():
    p = _sphere_walk_64x128()
    a = p.op.a
    counts = {"fwd": 0, "adj": 0}

    def forward(x):
        counts["fwd"] += 1
        return a @ x

    def adjoint(y):
        counts["adj"] += 1
        return a.T @ y

    wrapped = LassoProblem(op=LinearOperator(a.shape, forward, adjoint),
                           b=p.b, tau=p.tau)
    plain = LassoProblem(op=_UncountedOperator(a), b=p.b, tau=p.tau)
    for solve in (spg_solve, hybrid_solve):
        counts.update(fwd=0, adj=0)
        report = solve(wrapped)
        assert type(report.forward_products) is type(report.adjoint_products) is int
        assert report.forward_products == counts["fwd"] > 0
        assert report.adjoint_products == counts["adj"] > 0
        reference = solve(plain)
        assert reference.forward_products == reference.adjoint_products == 0
        assert (reference.status, reference.iterations) == (report.status,
                                                            report.iterations)
        assert reference.x.tobytes() == report.x.tobytes()
        assert reference.f == report.f
