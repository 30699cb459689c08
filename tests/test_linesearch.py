import numpy as np
import pytest

from lassokit import linesearch as linesearch_module
from lassokit import model as model_module
from lassokit import solver as solver_module
from lassokit.arc import enumerate_arc
from lassokit.ball import project
from lassokit.linesearch import (
    MAX_BACKTRACKS,
    RECOMPUTE_EVERY,
    SUFF_DECREASE,
    UnboundedRayError,
    alpha_opt,
    bb_step,
    face_wolfe_search,
    nonmonotone_armijo_backtrack,
    trajectory_search,
    wolfe_window,
    _ArcProducts,
)
from lassokit.model import (
    DenseOperator,
    LassoProblem,
    LinearOperator,
    RayObjective,
    SolverOptions,
    evaluate,
    objective_value,
)
from lassokit.probgen import GeneratorSpec, gen_instance
from lassokit.solver import spg_solve


def _clamp_problem(tau=1.0):
    # min 0.5*(x - 2)^2 over |x| <= tau
    return LassoProblem(op=DenseOperator(np.array([[1.0]])), b=np.array([2.0]),
                        tau=tau)


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
    res = nonmonotone_armijo_backtrack(p, it, 1.0, it.f)
    assert res.status == "stationary"


def test_backtrack_accepts_descent():
    p = _clamp_problem()
    it = evaluate(p, np.zeros(1))
    res = nonmonotone_armijo_backtrack(p, it, 1.0, it.f)
    assert res.status == "accepted"
    assert res.iterate.f < it.f
    assert abs(res.iterate.x[0]) <= 1.0 + 1e-12


def test_backtrack_exhausts_budget():
    p = _clamp_problem()
    it = evaluate(p, np.zeros(1))
    # An unattainable target forces every trial to fail.
    res = nonmonotone_armijo_backtrack(p, it, 1.0, -10.0)
    assert res.status == "failed"
    assert res.trials == MAX_BACKTRACKS


def _segment_setup():
    # A search whose first trial x1 = P(x - g) is rejected and whose segment
    # minimizer lam* = 0.38 lies in the safeguard window [0.1, 0.9].
    rng = np.random.default_rng(1)
    a = rng.normal(size=(12, 20))
    counts = {"fwd": 0, "adj": 0}

    def forward(x):
        counts["fwd"] += 1
        return a @ x

    def adjoint(y):
        counts["adj"] += 1
        return a.T @ y

    p = LassoProblem(op=LinearOperator(a.shape, forward, adjoint),
                     b=rng.normal(size=12), tau=1.0, mu=0.1)
    x, _ = project(rng.normal(size=20), p.w, p.tau)
    it = evaluate(p, x)
    it.g  # the gradient the search reads, formed before any count
    return a, p, it, counts


def test_backtrack_projects_once_with_one_forward_product(monkeypatch):
    # The first trial is rejected and the second accepted: A x1 is the only
    # product, and no trial forms a gradient until the caller reads it.
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return project(*args)

    monkeypatch.setattr(linesearch_module, "project", counted)
    _, p, it, counts = _segment_setup()
    counts.update(fwd=0, adj=0)
    res = nonmonotone_armijo_backtrack(p, it, 1.0, it.f)
    assert res.status == "accepted" and res.trials == 2
    assert calls[0] == 1
    assert counts == {"fwd": 1, "adj": 0}
    res.iterate.g
    assert counts == {"fwd": 1, "adj": 1}
    # A search that exhausts its budget still projects once.
    calls[0] = 0
    clamp = _clamp_problem()
    res = nonmonotone_armijo_backtrack(clamp, evaluate(clamp, np.zeros(1)), 1.0,
                                       -10.0)
    assert res.trials == MAX_BACKTRACKS
    assert calls[0] == 1


def test_backtrack_evaluates_the_objective_once_per_trial(monkeypatch):
    # The segment's RayObjective never forms f(x): the only objective values
    # are the trials'.
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return objective_value(*args)

    monkeypatch.setattr(model_module, "objective_value", counted)
    _, p, it, _ = _segment_setup()
    clamp = _clamp_problem()
    for problem, start, fmax in ((p, it, it.f),
                                 (clamp, evaluate(clamp, np.zeros(1)), -10.0)):
        calls[0] = 0
        res = nonmonotone_armijo_backtrack(problem, start, 1.0, fmax)
        assert res.trials >= 2
        assert calls[0] == res.trials


def test_backtrack_takes_the_segment_minimizer():
    a, p, it, _ = _segment_setup()
    x1, _ = project(it.x - it.g, p.w, p.tau)
    d = x1 - it.x
    assert objective_value(p, x1)[0] > it.f + SUFF_DECREASE * float(it.g @ d)
    ad = a @ d
    lam_star = -float(it.g @ d) / (float(ad @ ad) + p.mu * float(d @ d))
    assert 0.1 <= lam_star <= 0.9
    res = nonmonotone_armijo_backtrack(p, it, 1.0, it.f)
    assert res.status == "accepted" and res.trials == 2
    assert res.alpha == pytest.approx(lam_star, rel=1e-12)
    f = res.iterate.f
    sampled = min(objective_value(p, it.x + t * d)[0]
                  for t in np.linspace(0.0, 1.0, 1000))
    assert f <= sampled + 1e-12 * abs(sampled)
    exact = a @ res.iterate.x - p.b
    assert np.linalg.norm(res.iterate.r - exact) <= 1e-12 * np.linalg.norm(exact)


def test_face_wolfe_search_cases():
    p = _clamp_problem(tau=10.0)
    it = evaluate(p, np.zeros(1))
    d = np.array([1.0])
    res = face_wolfe_search(p, it, d, np.inf)
    assert res.status == "accepted"
    assert res.alpha == pytest.approx(2.0)  # unconstrained minimizer
    # A capped step is accepted however short, inside the Wolfe window or not.
    for bound in (1.0, 0.05):
        res = face_wolfe_search(p, it, d, bound)
        assert res.status == "accepted"
        assert res.alpha == bound
    assert face_wolfe_search(p, it, -d, np.inf).status == "failed"
    # A descent ray with no curvature has no minimizer; capped, it has a step.
    flat = LassoProblem(op=DenseOperator(np.array([[1.0, 0.0]])), b=np.zeros(1),
                        tau=10.0, c=np.array([0.0, -1.0]))
    it = evaluate(flat, np.zeros(2))
    assert face_wolfe_search(flat, it, np.array([0.0, 1.0]), np.inf).status == "failed"
    assert face_wolfe_search(flat, it, np.array([0.0, 1.0]), 1.0).alpha == 1.0


def test_capped_face_step_zeroes_the_flipping_entry():
    # Along d = (3, -3) the second entry of x = (0.1, 0.9) reaches zero at
    # alpha = 0.3, before the ray minimizer 0.8; the capped step sets it to
    # exactly zero, which x + 0.3*d in floating point does not.
    p = LassoProblem(op=DenseOperator(np.eye(2)), b=np.array([2.0, -2.0]),
                     tau=1.0)
    x = np.array([0.1, 0.9])
    d = np.array([3.0, -3.0])
    it = evaluate(p, x)
    bound = float(-x[1] / d[1])
    assert (x + bound * d)[1] != 0.0
    res = face_wolfe_search(p, it, d, bound)
    assert res.status == "accepted" and res.alpha == bound
    assert res.iterate.x[1] == 0.0
    assert res.iterate.x[0] == x[0] + bound * d[0]


def test_face_wolfe_search_reuses_ray_product():
    # The accepted iterate's residual is r + a*A d: one forward product (A d)
    # per step, with r still A x - b, and one adjoint once its gradient is read.
    rng = np.random.default_rng(9)
    a = rng.normal(size=(12, 20))
    counts = {"fwd": 0, "adj": 0}

    def forward(x):
        counts["fwd"] += 1
        return a @ x

    def adjoint(y):
        counts["adj"] += 1
        return a.T @ y

    p = LassoProblem(op=LinearOperator(a.shape, forward, adjoint),
                     b=rng.normal(size=12), tau=1e3)
    it = evaluate(p, 0.1 * rng.normal(size=20))
    d = -it.g
    counts.update(fwd=0, adj=0)
    res = face_wolfe_search(p, it, d, np.inf)
    assert res.status == "accepted"
    assert counts == {"fwd": 1, "adj": 0}
    res.iterate.g
    assert counts == {"fwd": 1, "adj": 1}
    exact = a @ res.iterate.x - p.b
    assert np.linalg.norm(res.iterate.r - exact) <= 1e-12 * np.linalg.norm(exact)


def test_each_search_marks_whether_its_residual_is_exact():
    # r = A x - b is exact; r + lam*A d from a backtracked trial or a face
    # step drifts by rounding, and the iterate each search returns says so.
    clamp = _clamp_problem()
    start = evaluate(clamp, np.zeros(1))
    first = nonmonotone_armijo_backtrack(clamp, start, 1.0, start.f)
    assert first.status == "accepted" and first.trials == 1
    assert first.iterate.r_exact
    _, p, it, _ = _segment_setup()
    backtracked = nonmonotone_armijo_backtrack(p, it, 1.0, it.f)
    assert backtracked.status == "accepted" and backtracked.trials == 2
    assert not backtracked.iterate.r_exact and it.r_exact
    face = face_wolfe_search(p, it, -it.g, np.inf)
    assert face.status == "accepted" and not face.iterate.r_exact
    tp, tit, arc = _traj_setup(np.random.default_rng(3), tau=1e6)
    traj = trajectory_search(tp, tit, arc, tit.f)
    assert traj.status == "accepted" and traj.iterate.r_exact


def _traj_setup(rng, tau):
    p = LassoProblem(op=DenseOperator(rng.normal(size=(8, 5))),
                     b=rng.normal(size=8), tau=tau)
    x, _ = project(rng.normal(size=5), p.w, tau)
    it = evaluate(p, x)
    arc = enumerate_arc(x, -it.g, p.w, tau)
    return p, it, arc


def test_trajectory_search_stops_at_first_local_minimum():
    # Dense-sampling oracle: nothing on the arc before the accepted step is
    # lower, and the arc rises just after it.
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(10):
        p, it, arc = _traj_setup(rng, tau=1.0)
        res = trajectory_search(p, it, arc, it.f)
        if res.status != "accepted":
            continue
        f = res.iterate.f
        sampled = min(objective_value(p, arc.point_at(float(a)))[0]
                      for a in np.linspace(0.0, res.alpha, 1000))
        assert sampled >= f - 1e-8 * (1 + abs(f))
        after = res.alpha + 1e-6 * (1 + res.alpha)
        assert objective_value(p, arc.point_at(after))[0] > f
        checked += 1
    assert checked >= 1


def test_trajectory_interior_segment_is_exact_ray_minimizer():
    rng = np.random.default_rng(3)
    # Huge radius: the whole trajectory is the unprojected ray.
    p, it, arc = _traj_setup(rng, tau=1e6)
    res = trajectory_search(p, it, arc, it.f)
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
    forwards[0] = 0
    res = trajectory_search(p, it, arc, it.f)
    assert res.status == "accepted"
    assert res.alpha == pytest.approx(1.0)
    assert [seg.inside for seg in arc.segments[:5]] == [True] * 5
    assert forwards[0] == 2  # A*d, then the residual at the accepted point


def test_trajectory_search_walks_only_what_it_reads(monkeypatch):
    # The search stops at its first local minimum, leaving the rest of the
    # arc unwalked.
    walked = []

    def spy(problem, it, arc, fmax):
        res = trajectory_search(problem, it, arc, fmax)
        walked.append((len(arc._segments), len(arc.segments)))
        return res

    monkeypatch.setattr(solver_module, "trajectory_search", spy)
    inst = gen_instance(GeneratorSpec(m=64, n=128, kind="gaussian", k=10), 1)
    spg_solve(inst.problem(), options=SolverOptions(
        line_search_mode="trajectory", max_iter=20))
    assert len(walked) == 20
    assert all(read < total for read, total in walked)
    assert sum(r for r, _ in walked) < sum(t for _, t in walked) / 3


def _close(u, ref):
    return np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_arc_products_match_direct_products():
    # After every outside segment, the column-updated products equal fresh
    # products of the masked s, the masked d and sign*w.  Each arc starts
    # from a dense point inside the ball and changes a few support entries
    # per event, so its runs of column updates cross RECOMPUTE_EVERY.
    rng = np.random.default_rng(7)
    m, n = 64, 128
    for _ in range(4):
        op = DenseOperator(rng.normal(size=(m, n)))
        p = LassoProblem(op=op, b=rng.normal(size=m), tau=1.0,
                         w=rng.uniform(0.5, 2.0, size=n))
        x = rng.normal(size=n)
        x *= 0.9 / float(p.w @ np.abs(x))
        arc = enumerate_arc(x, 5.0 * rng.normal(size=n), p.w, p.tau)
        prods = _ArcProducts(p, arc)
        rebuilds = incremental = 0
        for seg in arc.iter_segments():
            if seg.inside:
                continue
            before = prods.updates
            prods.set_support(seg.support, seg.signs)
            if prods.updates == 0:
                rebuilds += before > 0
            else:
                incremental += 1
            sign = np.zeros(n)
            sign[seg.support] = seg.signs
            on = sign != 0
            assert _close(prods.us, op.apply(np.where(on, arc.s, 0.0)))
            assert _close(prods.ud, op.apply(np.where(on, arc.d, 0.0)))
            assert _close(prods.uv, op.apply(sign * p.w))
        assert rebuilds >= 1
        assert incremental > 2 * RECOMPUTE_EVERY


def test_arc_products_sign_flip_moves_only_uv():
    columns = [0]

    def column(i):
        columns[0] += 1
        return a[:, i]

    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 8))
    p = LassoProblem(op=LinearOperator(a.shape, lambda x: a @ x,
                                       lambda y: a.T @ y, column),
                     b=rng.normal(size=6), tau=1.0,
                     w=rng.uniform(0.5, 2.0, size=8))
    arc = enumerate_arc(rng.normal(size=8), rng.normal(size=8), p.w, p.tau)
    prods = _ArcProducts(p, arc)
    support = np.array([1, 3, 5])
    prods.set_support(support, np.array([1.0, 1.0, -1.0]))
    us, ud, uv = prods.us.copy(), prods.ud.copy(), prods.uv.copy()
    columns[0] = 0
    prods.set_support(support, np.array([1.0, -1.0, -1.0]))
    assert columns[0] == 1
    assert np.array_equal(prods.us, us) and np.array_equal(prods.ud, ud)
    assert np.allclose(prods.uv - uv, -2.0 * p.w[3] * a[:, 3],
                       rtol=0.0, atol=1e-12)
