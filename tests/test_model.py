import dataclasses

import numpy as np
import pytest

from lassokit.model import (
    DenseOperator,
    DimensionMismatchError,
    LassoProblem,
    LinearOperator,
    RayObjective,
    SolverOptions,
    evaluate,
    objective_value,
)


def _problem(rng, m=6, n=4, mu=0.0, with_c=False, tau=1.0):
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    c = rng.normal(size=n) if with_c else None
    return LassoProblem(op=DenseOperator(a), b=b, tau=tau, mu=mu, c=c)


def test_operator_shapes_and_column():
    a = np.arange(6.0).reshape(2, 3)
    op = DenseOperator(a)
    assert np.allclose(op @ np.ones(3), a @ np.ones(3))
    assert np.allclose(op.apply_adjoint(np.ones(2)), a.T @ np.ones(2))
    assert np.allclose(op.column(1), a[:, 1])
    with pytest.raises(DimensionMismatchError):
        op.apply(np.ones(2))
    with pytest.raises(DimensionMismatchError):
        op.apply_adjoint(np.ones(3))


def test_matrix_free_operator_default_column():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    op = LinearOperator((2, 2), lambda x: a @ x, lambda y: a.T @ y)
    assert np.allclose(op.column(0), a[:, 0])


def test_problem_validation():
    a = np.ones((3, 2))
    with pytest.raises(DimensionMismatchError):
        LassoProblem(op=DenseOperator(a), b=np.ones(2), tau=1.0)
    with pytest.raises(DimensionMismatchError):
        LassoProblem(op=DenseOperator(a), b=np.ones(3), tau=1.0, w=np.ones(3))
    with pytest.raises(ValueError):
        LassoProblem(op=DenseOperator(a), b=np.ones(3), tau=1.0,
                     w=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LassoProblem(op=DenseOperator(a), b=np.ones(3), tau=-1.0)
    with pytest.raises(ValueError):
        LassoProblem(op=DenseOperator(a), b=np.ones(3), tau=1.0, mu=-0.5)
    p = LassoProblem(op=DenseOperator(a), b=np.ones(3), tau=1.0)
    assert np.array_equal(p.w, np.ones(2))
    assert np.array_equal(p.c, np.zeros(2))


def test_problem_rejects_non_finite_data():
    a = np.ones((3, 2))
    nan_b = np.array([1.0, np.nan, 1.0])
    with pytest.raises(ValueError, match="b has a non-finite entry"):
        LassoProblem(op=DenseOperator(a), b=nan_b, tau=1.0)
    with pytest.raises(ValueError, match="c has a non-finite entry"):
        LassoProblem(op=DenseOperator(a), b=np.ones(3), tau=1.0,
                     c=np.array([0.0, np.inf]))
    with pytest.raises(ValueError, match="w has a non-finite entry"):
        LassoProblem(op=DenseOperator(a), b=np.ones(3), tau=1.0,
                     w=np.array([1.0, np.inf]))
    for tau, mu in ((np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0), (1.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            LassoProblem(op=DenseOperator(a), b=np.ones(3), tau=tau, mu=mu)

    # One bad entry in A would make every objective and gap NaN.
    for bad in (np.nan, np.inf, -np.inf):
        a_bad = a.copy()
        a_bad[1, 0] = bad
        with pytest.raises(ValueError, match="A has a non-finite entry"):
            DenseOperator(a_bad)


def test_objective_and_gradient_finite_differences():
    rng = np.random.default_rng(0)
    for mu, with_c in ((0.0, False), (0.3, True)):
        p = _problem(rng, mu=mu, with_c=with_c, tau=10.0)
        x = rng.normal(size=4) * 0.1
        it = evaluate(p, x)
        f, r = objective_value(p, x)
        assert it.f == pytest.approx(f)
        assert np.allclose(it.r, r)
        assert objective_value(p, x, r)[0] == f
        h = 1e-5
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (objective_value(p, x + e)[0] - objective_value(p, x - e)[0]) / (2 * h)
            assert it.g[i] == pytest.approx(fd, abs=1e-6)


def test_evaluate_face_classification():
    p = _problem(np.random.default_rng(1), tau=1.0)
    assert evaluate(p, np.zeros(4)).face.kind == "interior"
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert evaluate(p, x).face.kind == "proper"


def test_ray_objective_reuses_a_given_product():
    # Given A d, the ray makes no forward product and has the same quadratic.
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 4))
    forwards = [0]

    def forward(x):
        forwards[0] += 1
        return a @ x

    p = LassoProblem(op=LinearOperator(a.shape, forward, lambda y: a.T @ y),
                     b=rng.normal(size=6), tau=5.0, mu=0.2, c=rng.normal(size=4))
    x, d = 0.1 * rng.normal(size=4), rng.normal(size=4)
    r = a @ x - p.b
    built = RayObjective(p, x, d, r=r)
    forwards[0] = 0
    given = RayObjective(p, x, d, r=r, ad=a @ d)
    assert forwards[0] == 0
    assert (given.c0, given.c1, given.c2) == (built.c0, built.c1, built.c2)
    assert given.minimizer(given.c1) == -built.c1 / (2.0 * built.c2)


def test_ray_objective_matches_direct():
    rng = np.random.default_rng(2)
    p = _problem(rng, mu=0.2, with_c=True, tau=5.0)
    x = rng.normal(size=4) * 0.1
    d = rng.normal(size=4)
    ray = RayObjective(p, x, d)
    ray_r = RayObjective(p, x, d, r=evaluate(p, x).r)
    assert ray.c0 == objective_value(p, x)[0]
    for alpha in (-0.5, 0.0, 0.3, 1.7):
        direct = objective_value(p, x + alpha * d)[0]
        assert ray(alpha) == pytest.approx(direct, abs=1e-10)
        assert ray_r(alpha) == pytest.approx(direct, abs=1e-10)
        h = 1e-6
        fd = (ray(alpha + h) - ray(alpha - h)) / (2 * h)
        assert ray.derivative(alpha) == pytest.approx(fd, abs=1e-6)


def test_convexity_witness():
    rng = np.random.default_rng(3)
    p = _problem(rng, mu=0.1, with_c=True, tau=5.0)
    for _ in range(20):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        mid = objective_value(p, 0.5 * (x + y))[0]
        avg = 0.5 * (objective_value(p, x)[0] + objective_value(p, y)[0])
        assert mid <= avg + 1e-12 * (1 + abs(avg))


def test_solver_options_validation():
    SolverOptions()  # defaults are valid
    SolverOptions(opt_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(line_search_mode="bogus")
    # A NaN tolerance is never met and a negative one runs to max_iter.
    for tol in (float("nan"), -1.0, -1e-12):
        with pytest.raises(ValueError):
            SolverOptions(opt_tol=tol)
    # A negative limit used to end at iter_limit after 0 iterations.
    SolverOptions(max_iter=0)
    SolverOptions(max_iter=np.int64(7))
    for bad in (-1, -3, 2.5, float("nan"), "10"):
        with pytest.raises(ValueError, match="max_iter"):
            SolverOptions(max_iter=bad)


def test_problem_facts_follow_reassigned_fields():
    rng = np.random.default_rng(18)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=5)
    p = LassoProblem(op=DenseOperator(a), b=b, tau=1.0)
    assert p.ball_w is None and p.zero_c
    x = np.array([0.3, -0.2, 0.1])
    f0 = evaluate(p, x).f
    # A problem with a field replaced derives its facts again.
    c = rng.normal(size=3)
    p = dataclasses.replace(p, c=c)
    assert not p.zero_c
    assert evaluate(p, x).f == pytest.approx(f0 + float(c @ x), rel=1e-14)
    assert np.allclose(evaluate(p, x).g, a.T @ (a @ x - b) + c)
    w = rng.uniform(0.5, 2.0, size=3)
    p = dataclasses.replace(p, w=w)
    assert p.ball_w is p.w and np.array_equal(p.w, w)
    p = dataclasses.replace(p, w=np.ones(3), c=np.zeros(3))
    assert p.ball_w is None and p.zero_c
    assert evaluate(p, x).f == f0


def test_problem_rejects_assignment_and_checks_replaced_fields():
    # Assigning a field after construction would skip the checks: an
    # infinite radius, negative weights, or a b of the wrong length.
    rng = np.random.default_rng(20)
    p = LassoProblem(op=DenseOperator(rng.normal(size=(5, 3))),
                     b=rng.normal(size=5), tau=1.0)
    for name, value in (("tau", float("inf")), ("w", -np.ones(3)),
                        ("b", np.ones(4)), ("c", np.ones(3)), ("zero_c", False)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    assert p.tau == 1.0 and p.ball_w is None and p.zero_c and len(p.b) == 5
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(p, tau=float("inf"))
    with pytest.raises(ValueError, match="strictly positive"):
        dataclasses.replace(p, w=-np.ones(3))
    with pytest.raises(DimensionMismatchError):
        dataclasses.replace(p, b=np.ones(4))


def test_problem_holds_read_only_copies():
    rng = np.random.default_rng(19)
    b, w, c = rng.normal(size=5), rng.uniform(1.0, 2.0, size=3), rng.normal(size=3)
    p = LassoProblem(op=DenseOperator(rng.normal(size=(5, 3))), b=b, tau=1.0,
                     w=w, c=c)
    for name in ("b", "w", "c"):
        with pytest.raises(ValueError):
            getattr(p, name)[0] = 7.0
    q = dataclasses.replace(p, c=c)
    with pytest.raises(ValueError):
        q.c[0] = 7.0
    # The caller's arrays stay writable, and writing them leaves p as it is.
    for v, stored in ((b, p.b), (w, p.w), (c, p.c)):
        assert v.flags.writeable
        v[0] = 7.0
        assert stored[0] != 7.0
