import numpy as np
import pytest

from conftest import bisect_project, subset_filter_oracle
from lassokit.arc import (
    count_breakpoints_two_sided,
    enumerate_arc,
    enumerate_line,
    extremal_construction,
    support_addition_filter,
)
from lassokit.ball import project, weighted_l1_norm


def _random_arc(rng, n):
    s = rng.normal(size=n)
    d = rng.normal(size=n)
    w = rng.uniform(0.3, 3.0, size=n)
    tau = float(rng.uniform(0.1, 1.5) * max(w @ np.abs(s), 0.5))
    return s, d, w, tau


def test_scalar_ray_example():
    arc = enumerate_arc(np.array([0.0]), np.array([1.0]), np.array([1.0]), 1.0)
    kinds = [e.kind for e in arc.events]
    assert kinds == ["boundary_cross"]
    assert arc.events[0].alpha == pytest.approx(1.0)
    assert arc.breakpoint_count == 1
    two = count_breakpoints_two_sided(
        np.array([0.0]), np.array([1.0]), np.array([1.0]), 1.0
    )
    assert two == 2


def test_zero_direction():
    s = np.array([3.0, -1.0])
    arc = enumerate_arc(s, np.zeros(2), np.ones(2), 1.0)
    assert len(arc.segments) == 1
    assert arc.breakpoint_count == 0
    ref, _ = project(s, np.ones(2), 1.0)
    for alpha in (0.0, 1.0, 10.0):
        assert np.allclose(arc.point_at(alpha), ref)


def test_input_validation():
    with pytest.raises(ValueError):
        enumerate_arc(np.ones(2), np.ones(3), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        enumerate_arc(np.ones(2), np.ones(2), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        enumerate_arc(np.ones(2), np.ones(2), np.ones(2), 0.0)
    arc = enumerate_arc(np.zeros(2), np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        arc.segment_at(-0.5)


def test_segments_match_direct_projection():
    rng = np.random.default_rng(0)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        s, d, w, tau = _random_arc(rng, n)
        arc = enumerate_arc(s, d, w, tau)
        for seg in arc.segments:
            hi = seg.alpha_hi if np.isfinite(seg.alpha_hi) else seg.alpha_lo + 1.0
            for t in np.linspace(0.05, 0.95, 7):
                alpha = seg.alpha_lo + t * (hi - seg.alpha_lo)
                ref, lam_ref = bisect_project(s + alpha * d, w, tau)
                assert np.allclose(arc.point_at(alpha), ref, atol=1e-8)
                assert arc.lambda_of(alpha) == pytest.approx(
                    lam_ref, abs=1e-8
                )


def test_lambda_slopes_nondecreasing_and_bound():
    rng = np.random.default_rng(1)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        s, d, w, tau = _random_arc(rng, n)
        fwd, bwd, _ = enumerate_line(s, d, w, tau)
        for arc in (fwd, bwd):
            slopes = [seg.slope for seg in arc.segments]
            for a, b in zip(slopes, slopes[1:]):
                assert b >= a - 1e-9 * (1 + abs(a))
        assert fwd.breakpoint_count + bwd.breakpoint_count <= 4 * n - 2


def test_continuity_at_events():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        s, d, w, tau = _random_arc(rng, n)
        arc = enumerate_arc(s, d, w, tau)
        for ev in arc.events:
            if ev.alpha <= 0:
                continue
            eps = 1e-10 * (1.0 + ev.alpha)
            lo = arc.point_at(ev.alpha - eps)
            hi = arc.point_at(ev.alpha + eps)
            assert np.max(np.abs(hi - lo)) < 1e-9 * (1 + np.max(np.abs(lo)))


def test_events_bracket_direct_support_changes():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 7))
        s, d, w, tau = _random_arc(rng, n)
        arc = enumerate_arc(s, d, w, tau)
        alphas = [e.alpha for e in arc.events]
        for k, ev in enumerate(arc.events):
            if ev.kind == "zero_cross" or ev.alpha <= 0:
                continue
            delta = 1e-6 * (1.0 + ev.alpha)
            near = [a for i, a in enumerate(alphas) if i != k]
            if near and min(abs(a - ev.alpha) for a in near) < 3 * delta:
                continue
            p_lo, lam_lo = bisect_project(s + (ev.alpha - delta) * d, w, tau)
            p_hi, lam_hi = bisect_project(s + (ev.alpha + delta) * d, w, tau)
            sup_lo = frozenset(np.nonzero(np.abs(p_lo) > 1e-9)[0])
            sup_hi = frozenset(np.nonzero(np.abs(p_hi) > 1e-9)[0])
            inside_lo, inside_hi = lam_lo == 0.0, lam_hi == 0.0
            assert sup_lo != sup_hi or inside_lo != inside_hi
            checked += 1


def test_zero_cross_rho_bookkeeping():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 30:
        n = int(rng.integers(2, 8))
        s, d, w, tau = _random_arc(rng, n)
        arc = enumerate_arc(s, d, w, tau)
        for ev in arc.events:
            if ev.kind != "zero_cross" or len(ev.indices) != 1:
                continue
            j = ev.indices[0]
            eps = 1e-9 * (1.0 + ev.alpha)

            def direct_rho(alpha):
                x = s + alpha * d
                r = np.where(x * d < 0, -np.abs(d), np.abs(d))
                return float(w @ r)

            after = direct_rho(ev.alpha + eps)
            before = direct_rho(ev.alpha - eps)
            assert ev.rho == pytest.approx(after, abs=1e-9 * (1 + abs(after)))
            assert after - before == pytest.approx(
                2.0 * w[j] * abs(d[j]), rel=1e-9
            )
            checked += 1


def test_addition_filter_singleton_always_enters():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 6
        r = rng.normal(size=n)
        w = rng.uniform(0.2, 3.0, size=n)
        out = support_addition_filter({0, 1}, {4}, r, w)
        assert 4 in out


def test_addition_filter_matches_subset_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(4, 14))
        r = rng.normal(size=n)
        w = rng.uniform(0.2, 3.0, size=n)
        p = int(rng.integers(1, 3))
        I = set(int(i) for i in rng.choice(n, size=p, replace=False))
        rest = [j for j in range(n) if j not in I]
        jsize = int(rng.integers(1, min(len(rest), 10) + 1))
        J = set(int(j) for j in rng.choice(rest, size=jsize, replace=False))
        assert support_addition_filter(I, J, r, w) == subset_filter_oracle(
            I, J, r, w
        )


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_extremal_counts(n):
    s, d, w, tau = extremal_construction(n)
    assert count_breakpoints_two_sided(s, d, w, tau) == 4 * n - 2


def test_extremal_invalid_dimension():
    with pytest.raises(ValueError):
        extremal_construction(0)


def test_points_stay_feasible():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        s, d, w, tau = _random_arc(rng, n)
        arc = enumerate_arc(s, d, w, tau)
        for alpha in np.linspace(0.0, arc.events[-1].alpha + 1.0, 15) if arc.events else [0.0, 1.0]:
            p = arc.point_at(float(alpha))
            assert weighted_l1_norm(p, w) <= tau * (1.0 + 1e-8)
