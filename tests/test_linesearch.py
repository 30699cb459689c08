import numpy as np
import pytest

from lassokit import solver as solver_module
from lassokit.arc import enumerate_arc
from lassokit.linesearch import (
    HistoryBuffer,
    UnboundedRayError,
    alpha_opt,
    bb_step,
    face_wolfe_search,
    nonmonotone_armijo_backtrack,
    trajectory_search,
    wolfe_window,
)
from lassokit.model import (
    DenseOperator,
    LassoProblem,
    LinearOperator,
    RayObjective,
    SolverOptions,
    evaluate,
)
from lassokit.probgen import GeneratorSpec, gen_instance
from lassokit.solver import spg_solve


def _clamp_problem(tau=1.0):
    # min 0.5*(x - 2)^2 over |x| <= tau
    return LassoProblem(op=DenseOperator(np.array([[1.0]])), b=np.array([2.0]),
                        tau=tau)


def test_history_buffer():
    h = HistoryBuffer(3)
    with pytest.raises(ValueError):
        h.maximum()
    for f in (1.0, 5.0, 2.0):
        h.push(f)
    assert h.maximum() == 5.0
    h.push(0.5)  # evicts 1.0
    assert h.maximum() == 5.0
    h.push(0.1)  # evicts 5.0
    assert h.maximum() == 2.0
    h.reset(7.0)
    assert len(h) == 1
    assert h.maximum() == 7.0


def test_bb_step_cases():
    s = np.array([1.0, 2.0])
    assert bb_step(s, s, 1e-10, 1e10) == pytest.approx(1.0)
    assert bb_step(s, -s, 1e-10, 1e10) == 1e10  # nonpositive curvature
    assert bb_step(s, 100.0 * s, 0.1, 1e10) == 0.1  # clamped below


def test_bb_step_spectrum_bounds():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5))
    H = m @ m.T + 0.5 * np.eye(5)
    evals = np.linalg.eigvalsh(H)
    for _ in range(50):
        s = rng.normal(size=5)
        a = bb_step(s, H @ s, 1e-10, 1e10)
        assert 1.0 / evals[-1] - 1e-12 <= a <= 1.0 / evals[0] + 1e-12


def test_alpha_opt_quadratic():
    p = _clamp_problem(tau=10.0)
    it = evaluate(p, np.zeros(1))
    d = np.array([1.0])
    assert alpha_opt(p, it, d) == pytest.approx(2.0)


def test_alpha_opt_flat_cases():
    a = np.array([[1.0, 0.0]])
    d = np.array([0.0, 1.0])
    p_desc = LassoProblem(op=DenseOperator(a), b=np.array([0.0]), tau=10.0,
                          c=np.array([0.0, -1.0]))
    it = evaluate(p_desc, np.zeros(2))
    with pytest.raises(UnboundedRayError):
        alpha_opt(p_desc, it, d)
    p_flat = LassoProblem(op=DenseOperator(a), b=np.array([0.0]), tau=10.0,
                          c=np.array([0.0, 1.0]))
    assert alpha_opt(p_flat, evaluate(p_flat, np.zeros(2)), d) == np.inf


def test_wolfe_window_quarter_half():
    p = _clamp_problem(tau=10.0)
    it = evaluate(p, np.zeros(1))
    d = np.array([1.0])
    a = alpha_opt(p, it, d)
    lo, hi = wolfe_window(p, it, d, 0.25, 0.5)
    assert lo == pytest.approx(0.5 * a)
    assert hi == pytest.approx(1.5 * a)
    with pytest.raises(ValueError):
        wolfe_window(p, it, -d, 0.25, 0.5)


def test_wolfe_window_membership():
    rng = np.random.default_rng(1)
    p = LassoProblem(op=DenseOperator(rng.normal(size=(6, 4))),
                     b=rng.normal(size=6), tau=50.0, mu=0.1)
    x = rng.normal(size=4) * 0.1
    it = evaluate(p, x)
    d = -it.g
    g1, g2 = 1e-4, 0.9
    lo, hi = wolfe_window(p, it, d, g1, g2)
    ray = RayObjective(p, x, d)
    gd = float(it.g @ d)
    for t in (0.1, 0.5, 0.9):
        a = lo + t * (hi - lo)
        assert ray(a) <= ray(0.0) + g1 * a * gd + 1e-12
        assert ray.derivative(a) >= g2 * gd - 1e-12
    assert ray(1.01 * hi) > ray(0.0) + g1 * 1.01 * hi * gd
    assert ray.derivative(0.99 * lo) < g2 * gd


def test_backtrack_stationary_at_clamp_optimum():
    p = _clamp_problem()
    it = evaluate(p, np.array([1.0]))
    h = HistoryBuffer(10)
    h.push(it.f)
    res = nonmonotone_armijo_backtrack(p, it, 1.0, h, SolverOptions())
    assert res.status == "stationary"


def test_backtrack_accepts_descent():
    p = _clamp_problem()
    it = evaluate(p, np.zeros(1))
    h = HistoryBuffer(10)
    h.push(it.f)
    res = nonmonotone_armijo_backtrack(p, it, 1.0, h, SolverOptions())
    assert res.status == "accepted"
    assert res.iterate.f < it.f
    assert abs(res.iterate.x[0]) <= 1.0 + 1e-12


def test_backtrack_exhausts_budget():
    p = _clamp_problem()
    it = evaluate(p, np.zeros(1))
    h = HistoryBuffer(10)
    h.push(-10.0)  # unattainable target forces every trial to fail
    res = nonmonotone_armijo_backtrack(
        p, it, 1.0, h, SolverOptions(max_backtracks=5)
    )
    assert res.status == "failed"


def test_face_wolfe_search_cases():
    p = _clamp_problem(tau=10.0)
    it = evaluate(p, np.zeros(1))
    d = np.array([1.0])
    opts = SolverOptions()
    res = face_wolfe_search(p, it, d, np.inf, opts)
    assert res.status == "accepted"
    assert res.alpha == pytest.approx(2.0)  # unconstrained minimizer
    res = face_wolfe_search(p, it, d, 1.0, opts)
    assert res.status == "accepted"
    assert res.alpha == pytest.approx(1.0)  # capped inside the window
    res = face_wolfe_search(p, it, d, 0.05, opts)
    assert res.status == "failed"  # cap below the curvature threshold
    assert face_wolfe_search(p, it, -d, np.inf, opts).status == "failed"


def _traj_setup(rng, tau, mode="global"):
    p = LassoProblem(op=DenseOperator(rng.normal(size=(8, 5))),
                     b=rng.normal(size=8), tau=tau)
    from lassokit.ball import project

    x, _ = project(rng.normal(size=5), p.w, tau)
    it = evaluate(p, x)
    arc = enumerate_arc(x, -it.g, p.w, tau)
    h = HistoryBuffer(10)
    h.push(it.f)
    opts = SolverOptions(line_search_mode="trajectory", trajectory_scan=mode)
    return p, it, arc, h, opts


def test_trajectory_global_matches_dense_sampling():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p, it, arc, h, opts = _traj_setup(rng, tau=1.0)
        res = trajectory_search(p, it, arc, h, opts)
        if res.status != "accepted":
            continue
        last = arc.events[-1].alpha if arc.events else 1.0
        alphas = np.linspace(0.0, last + 1.0, 1000)
        from lassokit.model import objective_value

        sampled = min(objective_value(p, arc.point_at(float(a)))[0]
                      for a in alphas)
        assert res.iterate.f <= sampled + 1e-8 * (1 + abs(sampled))


def test_trajectory_interior_segment_is_exact_ray_minimizer():
    rng = np.random.default_rng(3)
    # Huge radius: the whole trajectory is the unprojected ray.
    p, it, arc, h, opts = _traj_setup(rng, tau=1e6, mode="first_local")
    res = trajectory_search(p, it, arc, h, opts)
    assert res.status == "accepted"
    a_star = alpha_opt(p, it, -it.g)
    assert res.alpha == pytest.approx(a_star, rel=1e-10)
    assert np.allclose(res.iterate.x, it.x - a_star * it.g)


def test_trajectory_search_forms_ray_product_once():
    # Inside the ball every segment lies on the ray x + a*d, so A*x - b is
    # the iterate's residual and A*d is formed once for all of them.  Here
    # f = 0.5*||x - b||^2: the ray crosses zero at a = 1/2, 2/3, 3/4, 4/5
    # and reaches its minimum at a = 1, all inside the ball.
    forwards = [0]

    def forward(x):
        forwards[0] += 1
        return x.copy()

    p = LassoProblem(op=LinearOperator((5, 5), forward, lambda y: y.copy()),
                     b=np.array([-1.0, 1.0, -1.0, 1.0, 1.0]), tau=1e6)
    it = evaluate(p, np.array([1.0, -2.0, 3.0, -4.0, 0.5]))
    arc = enumerate_arc(it.x, -it.g, p.w, p.tau)
    h = HistoryBuffer(10)
    h.push(it.f)
    opts = SolverOptions(line_search_mode="trajectory")
    forwards[0] = 0
    res = trajectory_search(p, it, arc, h, opts)
    assert res.status == "accepted"
    assert res.alpha == pytest.approx(1.0)
    assert [seg.inside for seg in arc.segments[:5]] == [True] * 5
    assert forwards[0] == 2  # A*d, then the residual at the accepted point


@pytest.mark.parametrize("scan", ["first_local", "global"])
def test_trajectory_search_walks_only_what_it_reads(monkeypatch, scan):
    # first_local stops at its first local minimum, leaving the rest of the
    # arc unwalked; global reads every segment.
    walked = []

    def spy(problem, it, arc, history, options):
        res = trajectory_search(problem, it, arc, history, options)
        walked.append((len(arc._segments), len(arc.segments)))
        return res

    monkeypatch.setattr(solver_module, "trajectory_search", spy)
    inst = gen_instance(GeneratorSpec(m=64, n=128, kind="gaussian", k=10), 1)
    spg_solve(inst.problem(), options=SolverOptions(
        line_search_mode="trajectory", trajectory_scan=scan, max_iter=20))
    assert len(walked) == 20
    if scan == "global":
        assert all(read == total for read, total in walked)
    else:
        assert all(read < total for read, total in walked)
        assert sum(r for r, _ in walked) < sum(t for _, t in walked) / 3
