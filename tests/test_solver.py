import dataclasses
import gc
import weakref

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
from lassokit.duality import (
    StoppingOracle,
    best_certificate,
    dual_weighted_inf_norm,
    gap_scale,
    relative_gap,
)
from lassokit.facebasis import basis_init, basis_to_dense
from lassokit.model import (
    DenseOperator,
    Iterate,
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
    STATUS_NON_FINITE,
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
                                 "off_face": 0, "solve_end": 1}


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
    assert warm.pairs
    before = [(s.copy(), y.copy()) for s, y in warm.pairs]
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
    for (s, y), (s0, y0) in zip(warm.pairs, before):
        assert np.array_equal(s, s0) and np.array_equal(y, y0)


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
    assert full.warm.h0 == full.warm.alpha_bb and full.warm.pairs == ()


def test_warm_pairs_of_another_size_are_not_carried():
    # Pairs that do not fit the problem are dropped and the solve starts
    # with a PG step.
    p = LassoProblem(op=DenseOperator(np.eye(2)), b=np.array([0.1, 0.2]),
                     tau=1.0)
    warm = WarmStart(0.5, 1.0, ((np.ones(3), np.ones(3)),))
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
    assert all(len(s) == wider.shape[1] for s, _ in warm.pairs)
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


def test_warm_pairs_are_exact_on_the_final_face_support(monkeypatch):
    # A loose solve stops in a working-set phase that has passed through
    # subfaces.  Each carried y is the change in the gradient of the problem
    # restricted to the phase's working set S, and f is quadratic, so
    # y = (A'A + mu*I)s on S, which holds the support of the face the solve
    # ends on.  The steps move entries off that support, so no single face
    # basis could hold them.
    sets = []  # the working set of every phase

    def spy(problem, it, h0):
        model, face_it, ws = open_phase(problem, it, h0)
        sets.append(ws)
        return model, face_it, ws

    open_phase = solver_module._open_phase
    monkeypatch.setattr(solver_module, "_open_phase", spy)
    p = gen_instance(GeneratorSpec(m=64, n=128, kind="sphere_walk",
                                   gamma=0.1, k=10), 1).problem(mu=1e-3)
    report = hybrid_solve(p, options=SolverOptions(opt_tol=1e-3))
    assert report.column_reads > 0  # working-set steps
    warm, face = report.warm, face_of(report.x, p.w, p.tau)
    assert face.kind == "proper" and len(warm.pairs) == MEMORY
    on = face.signs != 0
    a = p.op.a
    for s, y in warm.pairs:
        assert len(s) == len(y) == p.shape[1]
        assert not (s.flags.writeable or y.flags.writeable)
        assert np.any(s[~on] != 0)
        hs = a.T @ (a @ s) + p.mu * s
        assert np.linalg.norm(y[on] - hs[on]) <= 1e-9 * np.linalg.norm(hs[on])
        assert float(s @ y) > 0
    # A working-set step's y is zero off the phase's S, which also holds
    # the subfaces the phase continued onto.
    off = np.ones(p.shape[1], dtype=bool)
    off[sets[-1]] = False
    assert not np.any(on & off)
    assert all(not np.any(y[off]) for _, y in warm.pairs)


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
                               pairs=((s, -s),) + first.warm.pairs[1:])
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


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
def test_objective_far_below_zero_ends_optimal(solve):
    # c'x drives f to about -5e6.  The relative gap divides by |f|: read
    # over a floor of 1e-3, it asked for an absolute gap of 1e-9 far below
    # f's rounding, and both solvers ended `linesearch_failure` after three
    # iterations at a gap of 2.3e-2.
    p = gen_instance(GeneratorSpec(m=64, n=128, k=5), 1).problem()
    c = -1e6 * np.random.default_rng(0).uniform(size=p.shape[1])
    report = solve(dataclasses.replace(p, c=c))
    assert report.f < -1e6
    assert report.status == STATUS_OPTIMAL and report.gap <= 1e-6
    assert report.iterations <= 3


def test_coherent_run_that_stalled_on_a_working_set_ends_optimal():
    # Sphere-walk 128x256 instance 16004: a working-set phase stalled on a
    # gap read per iterate, and the PG step after it could not move.  The
    # phase's own oracle on the restricted problem keeps its best bound.
    p = gen_instance(GeneratorSpec(m=128, n=256, kind="sphere_walk",
                                   gamma=0.1, k=10), 16004).problem()
    report = hybrid_solve(p)
    assert report.status == STATUS_OPTIMAL and report.gap <= 1e-6
    assert report.column_reads > 0


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


class _UncountedOperator(LinearOperator):
    """Dense products, and columns when asked, without the operator's own
    counters."""

    def __init__(self, a, columns):
        super().__init__(a.shape, lambda x: a @ x, lambda y: a.T @ y,
                         (lambda i: a[:, i]) if columns else None)

    def apply(self, x):
        return self._apply(x)

    def apply_adjoint(self, y):
        return self._adjoint(y)

    def column(self, i):
        return self._column(i)


def test_product_counters_equal_a_wrapping_counter_and_change_no_iterate():
    # Both sides have the same column access: with it the hybrid's face
    # phases run on working sets, without it on full products.
    p = _sphere_walk_64x128()
    a = p.op.a
    counts = {"fwd": 0, "adj": 0, "col": 0}

    def forward(x):
        counts["fwd"] += 1
        return a @ x

    def adjoint(y):
        counts["adj"] += 1
        return a.T @ y

    def column(i):
        counts["col"] += 1
        return a[:, i]

    for columns in (True, False):
        wrapped = LassoProblem(op=LinearOperator(a.shape, forward, adjoint,
                                                 column if columns else None),
                               b=p.b, tau=p.tau)
        plain = LassoProblem(op=_UncountedOperator(a, columns), b=p.b,
                             tau=p.tau)
        for solve in (spg_solve, hybrid_solve):
            counts.update(fwd=0, adj=0, col=0)
            report = solve(wrapped)
            assert (type(report.forward_products) is type(report.adjoint_products)
                    is type(report.column_reads) is int)
            assert report.forward_products == counts["fwd"] > 0
            assert report.adjoint_products == counts["adj"] > 0
            assert report.column_reads == counts["col"]
            assert (report.column_reads > 0) == (columns and solve is hybrid_solve)
            reference = solve(plain)
            assert reference.forward_products == reference.adjoint_products == 0
            assert reference.column_reads == 0
            assert (reference.status, reference.iterations) == (report.status,
                                                                report.iterations)
            assert reference.x.tobytes() == report.x.tobytes()
            assert reference.f == report.f


def test_working_set_products_equal_the_full_products():
    # The problem restricted to the gathered columns A_S forms A_S d_S and
    # the gradient A_S'r + c_S + mu*x_S, equal to the full products' entries
    # to rounding, at a point on the face and on a subface, and reads no
    # column after the gather.  The point lifts back with zeros off S, and
    # column_work counts |S| per product on A_S.
    rng = np.random.default_rng(11)
    m, n = 30, 20
    a = rng.normal(size=(m, n))
    p = LassoProblem(op=DenseOperator(a), b=rng.normal(size=m), tau=1.0,
                     mu=0.1, c=rng.normal(size=n))
    support = np.sort(rng.choice(n, 8, replace=False))
    cols = solver_module._gather(p.op, np.empty((m, 0)), support)
    sub = solver_module._restricted(p, cols, support)
    assert p.op.column_reads == 8 and p.op.forward_products == 0
    for on in (support, support[[0, 2, 3, 5, 7]]):
        x = np.zeros(n)
        x[on] = rng.normal(size=len(on))
        d = np.zeros(n)
        d[on] = rng.normal(size=len(on))
        it = evaluate(p, x)
        face_it = Iterate(x=x[support], r=it.r, f=it.f, problem=sub)
        assert np.allclose(sub.op.apply(d[support]), a @ d, rtol=0, atol=1e-13)
        assert np.allclose(face_it.g, (a.T @ it.r + p.c + p.mu * x)[support],
                           rtol=0, atol=1e-13)
        assert np.array_equal(solver_module._lift(face_it, support, p).x, x)
    assert p.op.column_reads == 8  # the subface read no column
    assert (p.op.forward_products, p.op.adjoint_products) == (2, 0)
    assert solver_module._column_work(sub) == 8 * (2 + 2)


def test_face_certified_on_its_support_ends_off_face():
    # The start lies on the face of support {0, 1, 2}, and a carried pair
    # opens a working-set phase there at once.  The face's own optimum
    # certifies on S, but entry 5 of the full gradient beats the face: the
    # phase ends `off_face`, PG steps leave the face, and the solve stops
    # only on a full certificate, at the global optimum.
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 8))
    a /= np.linalg.norm(a, axis=0)
    x_true = np.zeros(8)
    x_true[[0, 1, 2, 5]] = [1.0, 0.8, 0.6, 1.2]
    b = a @ x_true
    tau = 0.5 * float(np.abs(x_true).sum())
    p = LassoProblem(op=DenseOperator(a), b=b, tau=tau)
    x0 = np.zeros(8)
    x0[[0, 1, 2]] = tau / 3
    s = np.zeros(8)
    s[[0, 1]] = [1.0, -1.0]
    warm = WarmStart(1.0, 1.0, ((s, a.T @ (a @ s)),))
    report = hybrid_solve(p, x0, SolverOptions(trace=True), warm=warm)
    assert report.phase_ends["off_face"] == 1
    kinds = [t.step_kind for t in report.trace]
    first_pg = kinds.index("pg")
    assert first_pg > 1 and set(kinds[1:first_pg]) == {"qn"}
    assert all(t.face_dim == 2 for t in report.trace[:first_pg])
    assert report.trace[first_pg - 1].gap > 1e-6  # the full gap, read once
    assert report.status == STATUS_OPTIMAL and report.gap <= 1e-6
    x_star, f_star = qp_oracle(a, b, tau)
    assert x_star[5] != 0
    assert report.f == pytest.approx(f_star, abs=1e-6 * max(1.0, abs(f_star)))


def test_final_phase_reads_its_columns_and_one_adjoint_per_certification(
        monkeypatch):
    # Gaussian 256x1024: the solve ends in a working-set phase that read the
    # |S| columns of its face when it opened, and then paid one adjoint
    # product, for the certificate that stopped the solve, and one forward
    # product, for the exact report.
    p = gen_instance(GeneratorSpec(m=256, n=1024, k=20), 5).problem()
    op = p.op
    opened = []  # (support size, columns read, then forward, adjoint, columns)

    def spy(source, cols, new):
        before = op.column_reads
        out = gather(source, cols, new)
        opened.append((len(new), op.column_reads - before,
                       op.forward_products, op.adjoint_products,
                       op.column_reads))
        return out

    gather = solver_module._gather
    monkeypatch.setattr(solver_module, "_gather", spy)
    report = hybrid_solve(p, options=SolverOptions(trace=True))
    assert report.status == STATUS_OPTIMAL
    assert report.phase_ends["solve_end"] == 1
    assert all(size == read for size, read, *_ in opened)
    assert report.column_reads == sum(size for size, *_ in opened)
    size, _, fwd, adj, col = opened[-1]
    assert size == len(report.trace[-1].support) <= 1024 // 2
    steps = len(report.trace) - 1 - max(
        k for k, t in enumerate(report.trace) if t.step_kind != "qn")
    assert steps > 1
    assert (op.forward_products - fwd, op.adjoint_products - adj,
            op.column_reads - col) == (1, 1, 0)


def test_iteration_limit_in_a_working_set_phase_reads_the_full_gap():
    # The solve stops at max_iter three steps into its final working-set
    # phase, whose steps read only its restricted gap.  It reads the last
    # iterate's full certificate once, one adjoint product, so the reported
    # gap is that point's and not the bound from before the phase.
    p = gen_instance(GeneratorSpec(m=256, n=1024, k=20), 5).problem()
    kinds = [t.step_kind
             for t in hybrid_solve(p, options=SolverOptions(trace=True)).trace]
    opened = max(k for k, kind in enumerate(kinds) if kind != "qn")
    assert len(kinds) - opened > 4
    cut = hybrid_solve(p, options=SolverOptions(max_iter=opened + 3))
    assert cut.status == STATUS_ITER_LIMIT
    cert = best_certificate(p, evaluate(p, cut.x))
    assert cut.gap == pytest.approx(relative_gap(cut.f, cert.objective),
                                    rel=1e-6)
    assert cut.gap < 0.1
    # One adjoint for the start, one per PG step, and the final read.
    assert set(kinds[1:opened + 1]) == {"pg"}
    assert cut.adjoint_products == 1 + opened + 1


def test_face_above_half_the_columns_keeps_the_full_products(monkeypatch):
    # A phase that opens on a face whose support holds more than n/2 entries
    # keeps the full products, as does every step on such a face; one that
    # opens on a face of at most n/2 runs on a working set.
    opened = []  # (support size, working set or None) per proper phase
    steps = []  # (support size, columns of the step's problem) per step

    def open_spy(problem, it, h0):
        model, face_it, ws = open_phase(problem, it, h0)
        if model is not None and model.basis is not None:
            opened.append((len(model.basis.support), ws))
        return model, face_it, ws

    def step_spy(problem, it, model):
        if model.basis is not None:
            steps.append((len(model.basis.support), problem.shape[1]))
        return face_step(problem, it, model)

    open_phase, face_step = solver_module._open_phase, solver_module._face_step
    monkeypatch.setattr(solver_module, "_open_phase", open_spy)
    monkeypatch.setattr(solver_module, "_face_step", step_spy)
    hybrid_solve(_sphere_walk_64x128())
    big = [ws for size, ws in opened if 2 * size > 128]
    small = [ws for size, ws in opened if 2 * size <= 128]
    assert big and all(ws is None for ws in big)
    assert small and all(ws is not None for ws in small)
    assert all(cols == 128 for size, cols in steps if 2 * size > 128)
    assert any(cols < 128 for _, cols in steps)


def test_operator_without_columns_pays_an_adjoint_per_face_step():
    _, p, counts = _counted_gaussian(8)
    report = hybrid_solve(p)
    assert report.status == STATUS_OPTIMAL and report.qn_steps > 0
    assert report.column_reads == p.op.column_reads == 0
    assert counts["adj"] == report.iterations + 1


def test_carried_pairs_cost_no_product_to_read_or_seed():
    # A working-set step hands on the change in the gradient on S that it
    # formed.  Reading the pairs forms no product, and a warm solve that
    # seeds its first model from them and takes no step forms only the
    # start's own: one forward product for f and one adjoint for its
    # gradient, as a cold solve does.
    first, wider = _solved_and_widened()
    assert first.column_reads > 0
    op = wider.op
    counts = lambda: (op.forward_products, op.adjoint_products)
    before = counts()
    assert first.warm.pairs and counts() == before
    x0 = 1.01 * first.x
    seeded = hybrid_solve(wider, x0, SolverOptions(max_iter=0),
                          warm=first.warm)
    assert seeded.warm_pairs > 0
    assert counts() == (before[0] + 1, before[1] + 1)
    cold = hybrid_solve(wider, x0, SolverOptions(max_iter=0))
    assert (seeded.forward_products, seeded.adjoint_products) == \
        (cold.forward_products, cold.adjoint_products) == (1, 1)
    # A full warm solve counts every product it forms.
    before = counts()
    report = hybrid_solve(wider, x0, warm=first.warm)
    assert report.status == STATUS_OPTIMAL
    assert counts() == (before[0] + report.forward_products,
                        before[1] + report.adjoint_products)


def test_report_holds_no_reference_to_its_problem():
    # The carried pairs are plain arrays, so a kept report does not keep
    # the problem's operator, and with it the matrix, alive.
    p = gen_instance(GeneratorSpec(m=64, n=128, kind="sphere_walk",
                                   gamma=0.1, k=10), 1).problem(mu=1e-3)
    op = weakref.ref(p.op)
    report = hybrid_solve(p, options=SolverOptions(opt_tol=1e-3, trace=True))
    assert report.column_reads > 0
    del p
    gc.collect()
    assert op() is None
    assert report.warm.pairs


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
def test_objective_that_overflows_reports_the_start(solve):
    p = LassoProblem(op=DenseOperator(np.eye(2)), b=np.array([1e200, 1.0]),
                     tau=1.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        report = solve(p, x0=np.array([3.0, 0.0]))
    assert report.status == STATUS_NON_FINITE
    assert report.iterations == 0
    assert np.array_equal(report.x, [1.0, 0.0])  # the projected start
    assert np.array_equal(report.r, [1.0 - 1e200, -1.0])
    assert report.f == np.inf


def test_column_work_is_a_hand_count_and_changes_no_iterate(monkeypatch):
    # Sphere-walk 64x128 stays on the full path, and its face phases run on
    # working sets: each forms its products on the problem restricted to
    # A_S.  A count of |S| per product, taken by the callables of a spied
    # restricted operator that forms what DenseOperator forms, equals the
    # report's, and every iterate is that of the unspied solve.
    p = _sphere_walk_64x128()
    plain = hybrid_solve(p, options=SolverOptions(trace=True))
    hand = [0]

    def restricted_spy(problem, cols, idx):
        def forward(x):
            hand[0] += len(idx)
            return cols @ x

        def adjoint(y):
            hand[0] += len(idx)
            return cols.T @ y

        op = LinearOperator(cols.shape, forward, adjoint, lambda i: cols[:, i])
        return dataclasses.replace(restricted(problem, cols, idx), op=op)

    restricted = solver_module._restricted
    monkeypatch.setattr(solver_module, "_restricted", restricted_spy)
    spied = hybrid_solve(p, options=SolverOptions(trace=True))
    assert type(spied.column_work) is int and spied.working_set_sizes == []
    assert spied.column_work == hand[0] > 0
    assert spied.column_work == plain.column_work
    assert spied.x.tobytes() == plain.x.tobytes()
    assert [(t.step_kind, t.f, t.gap) for t in spied.trace] == \
        [(t.step_kind, t.f, t.gap) for t in plain.trace]
    assert spg_solve(p).column_work == 0


def _outer_on(monkeypatch, start):
    """Make every problem with a column callable take the outer working set,
    from W0 of the start's support and `start` columns."""
    monkeypatch.setattr(solver_module, "OUTER_MIN_ENTRIES", 0)
    monkeypatch.setattr(solver_module, "OUTER_START", start)


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
@pytest.mark.parametrize("mu", [0.0, 0.1])
def test_outer_solve_matches_the_oracle(monkeypatch, solve, mu):
    # Random 12x8 problems with non-unit weights and c != 0, from W0 of 2
    # columns: f is the exhaustive oracle's, the gap recomputed from the
    # reported x meets opt_tol, and lam is the multiplier of all n columns.
    _outer_on(monkeypatch, 2)
    rng = np.random.default_rng(21)
    rounds = []
    for _ in range(4):
        a = rng.normal(size=(12, 8))
        x_true = np.zeros(8)
        x_true[rng.choice(8, 3, replace=False)] = rng.normal(size=3)
        w = rng.uniform(0.5, 2.0, size=8)
        c = 0.05 * rng.normal(size=8)
        b = a @ x_true + 0.01 * rng.normal(size=12)
        tau = 0.5 * float(w @ np.abs(x_true))
        p = LassoProblem(op=DenseOperator(a), b=b, tau=tau, w=w, mu=mu, c=c)
        report = solve(p)
        assert report.status == STATUS_OPTIMAL and report.gap <= 1e-6
        rounds.append(report.working_set_sizes)
        _, f_star = qp_oracle(a, b, tau, mu=mu, c=c, w=w)
        assert report.f == pytest.approx(f_star, rel=1e-6, abs=1e-9)
        it = evaluate(p, report.x)
        cert = best_certificate(p, it)
        assert relative_gap(it.f, cert.objective) <= 1e-6
        assert report.lam == pytest.approx(cert.lam, rel=1e-3, abs=1e-9)
    assert all(sizes and sizes[0] == 2 for sizes in rounds)
    assert any(len(sizes) > 1 for sizes in rounds)


def test_outer_solve_finishes_on_the_full_problem_above_half(monkeypatch):
    # Sphere-walk 64x128 from W0 of 40 columns: the next set would pass
    # n/2 = 64 columns, so the full solve finishes from the round's point,
    # on all 128 columns, and its full products.
    p = _sphere_walk_64x128()
    full = hybrid_solve(p)
    _outer_on(monkeypatch, 40)
    report = hybrid_solve(p)
    assert full.working_set_sizes == [] and report.working_set_sizes == [40, 128]
    assert report.status == STATUS_OPTIMAL and report.gap <= 1e-6
    assert report.f == pytest.approx(full.f, rel=1e-6)
    # The start's adjoint, the lift's, and one per iteration of the full
    # solve at least.
    assert report.adjoint_products > 2 + report.pg_steps // 2
    assert report.column_reads >= 40


def test_outer_iteration_limit_is_spent_across_rounds(monkeypatch):
    # The budget lets the first round finish and the second take two
    # steps: the solve ends `iter_limit` after both, with the gap of a
    # full certificate.  Each round's iterations are read off the trace:
    # an "init" record opens every round.
    _outer_on(monkeypatch, 16)
    p = gen_instance(GeneratorSpec(m=64, n=256, k=8), 3).problem()

    def round_iterations(report):
        starts = [t.iteration for t in report.trace if t.step_kind == "init"]
        return np.diff(starts + [report.iterations]).tolist()

    full = hybrid_solve(p, options=SolverOptions(trace=True))
    assert len(full.working_set_sizes) > 1
    rounds = round_iterations(full)
    budget = rounds[0] + 2
    cut = hybrid_solve(p, options=SolverOptions(max_iter=budget, trace=True))
    rounds = round_iterations(cut)
    assert cut.status == STATUS_ITER_LIMIT
    assert cut.iterations == budget == sum(rounds)
    assert len(cut.working_set_sizes) == 2 and rounds[1] == 2
    # The gap is a full certificate's: it bounds f - f* for the optimum
    # of all 256 columns, also after the first round alone, whose own
    # problem it solved to opt_tol.
    f_star = spg_solve(p, options=SolverOptions(opt_tol=1e-10)).f
    assert 0 < cut.f - f_star <= cut.gap * gap_scale(cut.f) < np.inf
    first = hybrid_solve(p, options=SolverOptions(max_iter=rounds[0]))
    assert first.status == STATUS_ITER_LIMIT
    assert len(first.working_set_sizes) == 1 and first.gap > 1e-6
    assert 0 < first.f - f_star <= first.gap * gap_scale(first.f)


def test_outer_start_keeps_the_support_of_x0(monkeypatch):
    # x0's support lies off the largest |g|/w entries; W0 keeps it, and
    # the solve is certified on all n columns from there.
    _outer_on(monkeypatch, 16)
    p = gen_instance(GeneratorSpec(m=64, n=256, k=8), 3).problem()
    g = np.abs(evaluate(p, np.zeros(256)).g)
    low = np.argsort(g)[:3]
    x0 = np.zeros(256)
    x0[low] = 0.1 * p.tau
    w = solver_module._first_working_set(p, evaluate(p, x0))
    assert set(low) <= set(w.tolist()) and len(w) <= 16 + 3
    f_star = spg_solve(p, options=SolverOptions(opt_tol=1e-12)).f
    for solve in (spg_solve, hybrid_solve):
        report = solve(p, x0)
        assert report.working_set_sizes[0] == len(w)
        assert report.status == STATUS_OPTIMAL and report.gap <= 1e-6
        # The gap bounds f - f* on all n columns.
        assert report.f - f_star <= report.gap * gap_scale(report.f)


def test_outer_trace_and_warm_pairs_are_in_full_coordinates(monkeypatch):
    # Gaussian 64x256 from W0 of 16 columns, in two rounds or more: every
    # trace support indexes the full problem, the last is the reported
    # point's support, and each carried pair has length n, with s and y
    # zero off the final working set and y = A'A s on the final support.
    _outer_on(monkeypatch, 16)
    p = gen_instance(GeneratorSpec(m=64, n=256, k=8), 3).problem()
    report = hybrid_solve(p, options=SolverOptions(trace=True))
    sizes = report.working_set_sizes
    assert report.status == STATUS_OPTIMAL and len(sizes) > 1
    assert sizes[-1] <= 128
    assert [t.step_kind for t in report.trace].count("init") == len(sizes)
    iterations = [t.iteration for t in report.trace]
    assert iterations == sorted(iterations) and iterations[-1] == \
        report.iterations
    supports = [t.support for t in report.trace if t.support is not None]
    assert supports and all(np.all(np.diff(s) > 0) and s[-1] < 256
                            for s in supports)
    assert np.array_equal(supports[-1], np.flatnonzero(report.x))
    assert report.warm.pairs
    on = np.flatnonzero(report.x)
    a = p.op.a
    used = np.zeros(256, dtype=bool)
    for s, y in report.warm.pairs:
        assert len(s) == len(y) == 256
        assert not (s.flags.writeable or y.flags.writeable)
        used |= (s != 0) | (y != 0)
        hs = a.T @ (a @ s)
        assert np.linalg.norm(y[on] - hs[on]) <= 1e-9 * np.linalg.norm(hs[on])
    assert used.sum() <= sizes[-1]


def test_outer_set_runs_only_on_large_problems_with_columns(monkeypatch):
    # Unpatched: Gaussian 256x1024 (2^18 entries) keeps the full path, and
    # 1024x1024 (2^20) runs the outer set, from W0 of 128 columns, and is
    # certified on all columns.  An operator without a column callable
    # keeps the full path at any size.
    calls = []

    def spy(problem, *rest):
        calls.append(problem.shape)
        return outer(problem, *rest)

    outer = solver_module._outer_solve
    monkeypatch.setattr(solver_module, "_outer_solve", spy)
    small = gen_instance(GeneratorSpec(m=256, n=1024, k=20), 5).problem()
    assert hybrid_solve(small).working_set_sizes == [] and calls == []
    large = gen_instance(GeneratorSpec(m=1024, n=1024, k=20), 5).problem()
    for solve in (spg_solve, hybrid_solve):
        report = solve(large)
        assert report.working_set_sizes[0] == 128
        assert report.status == STATUS_OPTIMAL and report.gap <= 1e-6
    assert calls == [(1024, 1024)] * 2
    a = large.op.a
    plain = LassoProblem(op=LinearOperator(a.shape, lambda x: a @ x,
                                           lambda y: a.T @ y),
                         b=large.b, tau=large.tau)
    assert spg_solve(plain).working_set_sizes == [] and len(calls) == 2


@pytest.mark.parametrize("solve", [spg_solve, hybrid_solve])
def test_outer_solve_without_a_finite_certificate_ends_as_the_full_path(
        monkeypatch, solve):
    # A = |N(0,1)|*1e307 makes A'r overflow, so every certificate's
    # objective is -inf and no round holds a dual bound.  The outer solve
    # then finishes on the full problem and returns what the full path
    # returns: its status, point and infinite gap.  (inf - inf also warns.)
    a = np.abs(np.random.default_rng(0).normal(size=(64, 128))) * 1e307
    p = LassoProblem(op=DenseOperator(a), b=np.ones(64), tau=1.0)
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.warns(RuntimeWarning, match="invalid value"):
        full = solve(p)
        _outer_on(monkeypatch, 16)
        report = solve(p)
    assert full.status == report.status == STATUS_LINESEARCH_FAILURE
    assert full.gap == report.gap == np.inf
    assert report.working_set_sizes == [16, 128]
    assert report.x.tobytes() == full.x.tobytes() and report.f == full.f
