import dataclasses

import numpy as np
import pytest

from conftest import grid_lambda, qp_oracle
from lassokit.ball import project, prox_weighted_l1, weighted_l1_norm
from lassokit.duality import (
    StoppingOracle,
    best_certificate,
    certificate_augmented,
    certificate_optimized,
    dual_weighted_inf_norm,
    optimal_dual_lambda,
    relative_gap,
)
from lassokit.model import DenseOperator, Iterate, LassoProblem, evaluate


def _problem(rng, m=6, n=5, mu=0.0, tau=1.0, weighted=False):
    a = rng.normal(size=(m, n))
    w = rng.uniform(0.5, 2.0, size=n) if weighted else None
    return LassoProblem(op=DenseOperator(a), b=rng.normal(size=m), tau=tau,
                        mu=mu, w=w)


def _feasible(rng, p):
    x, _ = project(rng.normal(size=p.shape[1]), p.w, p.tau)
    return evaluate(p, x)


def test_dual_norm():
    z = np.array([2.0, -6.0])
    w = np.array([1.0, 3.0])
    assert dual_weighted_inf_norm(z, w) == 2.0


def test_mu_zero_gap_at_origin():
    rng = np.random.default_rng(0)
    p = _problem(rng, tau=0.7, weighted=True)
    it = evaluate(p, np.zeros(5))
    cert = certificate_augmented(p, it)
    expect = p.tau * dual_weighted_inf_norm(p.op.a.T @ p.b, p.w)
    assert it.f - cert.objective == pytest.approx(expect, rel=1e-12)


def _explicit_certificates(p, x):
    """Certificates rebuilt from z = A'(b - Ax) - c, not from the gradient."""
    a, b, w, tau, mu = p.op.a, p.b, p.w, p.tau, p.mu
    y = b - a @ x
    z = a.T @ y - p.c
    base = float(y @ b) - 0.5 * float(y @ y)
    if mu == 0:
        lam = float(np.max(np.abs(z) / w))
        return [(lam, base - tau * lam)]
    lam_aug = float(np.max(np.abs(z - mu * x) / w))
    aug = base - tau * lam_aug - 0.5 * mu * float(x @ x)
    lam_opt = optimal_dual_lambda(np.abs(z), w, tau, mu)
    slack = np.maximum(np.abs(z) - lam_opt * w, 0.0)
    opt = base - tau * lam_opt - float(slack @ slack) / (2.0 * mu)
    return [(lam_aug, aug), (lam_opt, opt)]


def test_weak_duality_all_formulations():
    rng = np.random.default_rng(1)
    crng = np.random.default_rng(11)
    for _ in range(50):
        mu = float(rng.choice([0.0, 0.05, 0.5]))
        p = _problem(rng, mu=mu, tau=float(rng.uniform(0.2, 2.0)),
                     weighted=True)
        p = dataclasses.replace(p, c=crng.normal(size=p.shape[1]))
        it = _feasible(rng, p)
        certs = [certificate_augmented(p, it)]
        if mu > 0:
            certs.append(certificate_optimized(p, it))
        for cert, (lam, obj) in zip(certs, _explicit_certificates(p, it.x)):
            assert cert.objective <= it.f + 1e-10 * (1 + abs(it.f))
            assert cert.lam == pytest.approx(lam, rel=1e-12)
            assert cert.objective == pytest.approx(obj, rel=1e-12)


def test_gap_small_at_oracle_optimum():
    rng = np.random.default_rng(2)
    for mu in (0.0, 0.1):
        p = _problem(rng, m=8, n=5, mu=mu, tau=0.8)
        x_star, f_star = qp_oracle(p.op.a, p.b, p.tau, mu=mu)
        it = evaluate(p, x_star)
        cert = best_certificate(p, it)
        assert it.f - cert.objective <= 1e-7 * (1 + abs(f_star))


def test_optimal_lambda_scalar():
    for mu, tau in ((0.5, 0.4), (0.1, 20.0)):
        lam = optimal_dual_lambda(np.array([1.0]), np.array([1.0]), tau, mu)
        assert lam == pytest.approx(max(0.0, 1.0 - mu * tau))


def test_optimal_lambda_zero_when_radius_large():
    z = np.array([1.0, 2.0, 0.5])
    w = np.array([1.0, 0.5, 2.0])
    mu = 0.25
    tau = float(np.sum(w * z)) / mu + 1.0
    assert optimal_dual_lambda(z, w, tau, mu) == 0.0


def test_optimal_lambda_requires_positive_mu():
    with pytest.raises(ValueError):
        optimal_dual_lambda(np.ones(2), np.ones(2), 1.0, 0.0)


def test_optimal_lambda_matches_grid_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        z = np.abs(rng.normal(size=n)) * 2.0
        w = rng.uniform(0.3, 3.0, size=n)
        mu = float(rng.choice([1e-1, 1e-2, 1e-3]))
        tau = float(rng.uniform(0.01, 2.0))
        lam = optimal_dual_lambda(z, w, tau, mu)
        assert lam == pytest.approx(grid_lambda(z, w, tau, mu), abs=1e-8)


def _loop_lambda(z, w, tau, mu):
    # Breakpoint-by-breakpoint scan: the reference for the array form.
    t = z / w
    order = np.argsort(t)
    t = t[order]
    swz = np.concatenate([[0.0], np.cumsum((w * z)[order])])
    sw2 = np.concatenate([[0.0], np.cumsum((w * w)[order])])

    def deriv(lam, k):
        return tau - ((swz[-1] - swz[k]) - lam * (sw2[-1] - sw2[k])) / mu

    if deriv(0.0, 0) >= 0:
        return 0.0
    for k in range(len(t)):
        if deriv(t[k], k) >= 0:
            return float(((swz[-1] - swz[k]) - mu * tau) / (sw2[-1] - sw2[k]))
    return float(t[-1])


def test_optimal_lambda_matches_loop():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        z = np.abs(rng.normal(size=n)) * float(rng.choice([0.01, 1.0, 100.0]))
        z[rng.random(n) < 0.2] = 0.0
        w = rng.uniform(0.3, 3.0, size=n)
        mu = float(rng.choice([1e-1, 1e-3, 1e-6]))
        tau = float(rng.uniform(0.0, 2.0) * float(w @ z) / mu)
        # Near lam = 0 both forms cancel in (sum w*z - mu*tau): the absolute
        # term scales with the largest breakpoint.
        assert optimal_dual_lambda(z, w, tau, mu) == pytest.approx(
            _loop_lambda(z, w, tau, mu), rel=1e-12,
            abs=1e-14 * float(np.max(z / w)))


def test_optimal_lambda_stationarity():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        z = np.abs(rng.normal(size=n))
        w = rng.uniform(0.3, 3.0, size=n)
        mu, tau = 0.05, float(rng.uniform(0.05, 1.0))
        lam = optimal_dual_lambda(z, w, tau, mu)

        def deriv(l):
            active = np.maximum(z - l * w, 0.0)
            return tau - float(w @ active) / mu

        assert deriv(lam) >= -1e-8
        if lam > 0:
            assert deriv(lam - 1e-9) <= 1e-6


def test_optimized_dominates_augmented():
    rng = np.random.default_rng(5)
    for _ in range(60):
        mu = float(rng.choice([1e-1, 1e-2, 1e-3, 1e-4]))
        p = _problem(rng, mu=mu, tau=float(rng.uniform(0.2, 2.0)),
                     weighted=True)
        it = _feasible(rng, p)
        opt = certificate_optimized(p, it)
        aug = certificate_augmented(p, it)
        assert opt.objective >= aug.objective - 1e-10


def test_prox_norm_identities():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        x = rng.normal(size=n) * 2.0
        w = rng.uniform(0.3, 3.0, size=n)
        px = prox_weighted_l1(x, 1.0, w)
        # h(prox(x)) equals (x - prox(x))' prox(x) for the weighted one-norm.
        lhs = weighted_l1_norm(px, w)
        rhs = float((x - px) @ px)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))
        # inf over y of -x'y + 0.5||y||^2 + h(y) equals -0.5||prox(x)||^2.
        val = -float(x @ px) + 0.5 * float(px @ px) + weighted_l1_norm(px, w)
        assert val == pytest.approx(-0.5 * float(px @ px), abs=1e-8)
        for _ in range(10):
            y = px + rng.normal(size=n) * 0.1
            other = -float(x @ y) + 0.5 * float(y @ y) + weighted_l1_norm(y, w)
            assert other >= val - 1e-10


def test_relative_gap_denominator():
    assert relative_gap(2.0, 1.0) == pytest.approx(0.5)
    assert relative_gap(1e-6, 0.0) == pytest.approx(1e-3)  # floor at 1e-3
    assert relative_gap(1.0, 2.0) == 0.0  # negative gaps clamp to zero


def test_stopping_oracle_keeps_best_iterate_and_dual():
    rng = np.random.default_rng(5)
    p = _problem(rng, m=8, n=5, tau=0.6)
    x_star, _ = qp_oracle(p.op.a, p.b, p.tau)
    near, far = evaluate(p, x_star), _feasible(rng, p)
    cert_near, cert_far = best_certificate(p, near), best_certificate(p, far)
    assert far.f > near.f and cert_far.objective < cert_near.objective
    oracle = StoppingOracle(p, 0.0)
    oracle.update(far)
    assert oracle.gap == (far.f - cert_far.objective) / far.f > 0
    oracle.update(near)
    oracle.update(far)  # worse primal and worse dual ignored
    assert oracle.best is near and oracle.best.r_exact
    assert (oracle.dual_obj, oracle.lambda_best) == (cert_near.objective, cert_near.lam)
    assert oracle.gap == relative_gap(near.f, cert_near.objective)
    # A lower f from an updated residual becomes the best point, and its
    # exactness comes with it; far's dual bound is still ignored.
    stepped = Iterate(x=far.x, r=far.r, f=near.f - 1.0, problem=p, r_exact=False)
    oracle.update(stepped)
    assert oracle.best is stepped and not oracle.best.r_exact
    assert oracle.dual_obj == cert_near.objective
    assert oracle.gap == relative_gap(near.f - 1.0, cert_near.objective)
    # A NaN f never becomes the best point, first or later.
    nan = Iterate(x=near.x, r=near.r, f=np.nan, problem=p)
    oracle.update(nan)
    assert oracle.best is stepped
    fresh = StoppingOracle(p, 0.0)
    fresh.update(nan)
    assert fresh.best is not nan and fresh.best.x is None


def test_stopping_oracle_fires_at_optimum():
    rng = np.random.default_rng(7)
    p = _problem(rng, m=8, n=5, mu=0.2, tau=0.6)
    x_star, _ = qp_oracle(p.op.a, p.b, p.tau, mu=p.mu)
    oracle = StoppingOracle(p, 1e-6)
    assert oracle.update(evaluate(p, x_star))
    assert oracle.gap <= 1e-6
    assert oracle.lambda_best >= 0.0


def test_augmented_certificate_equals_the_negated_formula():
    # y = -r and A'y - mu*x - c = -g, negated as vectors: reading r and g as
    # they are must give the same multiplier and objective bit for bit.
    rng = np.random.default_rng(18)
    for mu in (0.0, 0.3):
        for weighted in (False, True):
            p = _problem(rng, mu=mu, tau=0.7, weighted=weighted)
            if weighted:
                p = dataclasses.replace(p, c=rng.normal(size=p.shape[1]))
            it = _feasible(rng, p)
            y, z = -it.r, -it.g
            lam = float(np.max(np.abs(z) / p.w))
            obj = (float(y @ p.b) - p.tau * lam - 0.5 * float(y @ y)
                   - 0.5 * p.mu * float(it.x @ it.x))
            cert = certificate_augmented(p, it)
            assert cert.lam == lam
            assert cert.objective == obj


@pytest.mark.parametrize("mu", [0.0, 0.3])
@pytest.mark.parametrize("weighted", [False, True])
def test_face_gap_is_never_above_the_full_gap(mu, weighted):
    # The problem restricted to a face's support S reads the same dual point
    # y = -r with the columns off S dropped from the multiplier, so the gap
    # its own oracle reads at the point is at most the full one.  Restricted
    # to every column, it is the full gap.
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = _problem(rng, m=8, n=10, mu=mu, weighted=weighted)
        p = dataclasses.replace(p, c=rng.normal(size=10))
        support = np.sort(rng.choice(10, 4, replace=False))
        x = np.zeros(10)
        x[support] = rng.normal(size=4)
        x *= p.tau / weighted_l1_norm(x, p.w)
        it = evaluate(p, x)
        full = StoppingOracle(p, 0.0)
        full.update(it)
        for cols in (support, np.arange(10)):
            sub = LassoProblem(op=DenseOperator(p.op.a[:, cols]), b=p.b,
                               tau=p.tau, w=p.w[cols], mu=p.mu, c=p.c[cols])
            face_it = Iterate(x=x[cols], r=it.r, f=it.f, problem=sub)
            face = StoppingOracle(sub, 0.0)
            face.update(face_it)
            assert face.best is face_it
            if len(cols) < 10:
                assert face.gap <= full.gap
            else:
                assert face.gap == pytest.approx(full.gap, rel=1e-12)
