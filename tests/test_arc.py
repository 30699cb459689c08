import numpy as np
import pytest

from conftest import bisect_project, subset_filter_oracle
from lassokit import arc as arc_module
from lassokit.arc import (
    _TIE,
    ArcEnumerationError,
    _earliest,
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
        out = support_addition_filter(np.array([0, 1]), np.array([4]), r, w)
        assert out.tolist() == [4]


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
        out = support_addition_filter(np.array(sorted(I)), np.array(sorted(J)),
                                      r, w)
        assert out.tolist() == sorted(set(out.tolist()))
        assert I | set(out.tolist()) == subset_filter_oracle(I, J, r, w)


def test_addition_filter_large_staged_set_with_ties():
    # 200 staged entries, a quarter of them sharing one ratio with the
    # entry that leads, against the best prefix of the descending order.
    rng = np.random.default_rng(10)
    n = 230
    w = rng.uniform(0.2, 3.0, size=n)
    r = rng.normal(size=n) * w
    sup, staged = np.arange(30), rng.permutation(np.arange(30, n))
    r[staged[:50]] = 2.5 * w[staged[:50]]
    r[staged[50:]] = np.minimum(r[staged[50:]], 2.0 * w[staged[50:]])
    out = support_addition_filter(sup, staged, r, w)
    order = staged[np.argsort(-r[staged] / w[staged], kind="stable")]
    best = np.argmax((w[sup] @ r[sup] + np.cumsum(w[order] * r[order]))
                     / (w[sup] @ w[sup] + np.cumsum(w[order] ** 2)))
    assert 50 <= len(out) < 200
    assert out.tolist() == sorted(order[:best + 1].tolist())


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


def _lazy_cases():
    """(s, d, w, tau) for seeded Gaussian rays and both sides of the
    extremal lines for n <= 8."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        yield _random_arc(rng, int(rng.integers(2, 12)))
    for n in range(1, 9):
        s, d, w, tau = extremal_construction(n)
        fwd, bwd, _ = enumerate_line(s, d, w, tau)
        for side in (fwd, bwd):
            yield side.s, side.d, w, tau


def _fields(seg):
    return (seg.alpha_lo, seg.alpha_hi, seg.inside, seg.support.tolist(),
            seg.signs.tolist(), seg.lam0, seg.slope)


def test_lazy_walk_matches_materialized_arc():
    for s, d, w, tau in _lazy_cases():
        full = enumerate_arc(s, d, w, tau)
        full_segments = [_fields(seg) for seg in full.segments]
        lazy = enumerate_arc(s, d, w, tau)
        assert [_fields(seg) for seg in lazy.iter_segments()] == full_segments
        assert lazy.events == full.events
        assert lazy.breakpoint_count == full.breakpoint_count


def test_lookups_on_fresh_arc_match_materialized_arc():
    for s, d, w, tau in _lazy_cases():
        full = enumerate_arc(s, d, w, tau)
        last = full.events[-1].alpha if full.events else 1.0
        alphas = [e.alpha for e in full.events]
        alphas += np.linspace(0.0, 1.2 * last + 1.0, 9).tolist()
        for alpha in alphas:
            fresh = enumerate_arc(s, d, w, tau)
            assert _fields(fresh.segment_at(alpha)) == _fields(
                full.segment_at(alpha))
            fresh = enumerate_arc(s, d, w, tau)
            assert np.array_equal(fresh.point_at(alpha), full.point_at(alpha))
            fresh = enumerate_arc(s, d, w, tau)
            assert fresh.lambda_of(alpha) == full.lambda_of(alpha)


def test_enumeration_error_surfaces_from_segments(monkeypatch):
    # A filter that admits nothing leaves the same add event due at the same
    # alpha forever, so the walk runs out of its event budget.
    monkeypatch.setattr(arc_module, "support_addition_filter",
                        lambda sup, staged, r, w: np.array([], dtype=int))
    arc = enumerate_arc(np.array([2.0, 0.5]), np.array([0.0, 1.0]),
                        np.ones(2), 1.0)
    for _ in range(2):
        with pytest.raises(ArcEnumerationError):
            arc.segments
    with pytest.raises(ArcEnumerationError):
        list(arc.iter_segments())


def _scalar_scan(candidates):
    """The sequential tie rule over (index, offset) pairs, in their order."""
    best, out = np.inf, []
    for i, delta in candidates:
        if delta < best - _TIE:
            best, out = delta, [i]
        elif delta <= best + _TIE:
            out.append(i)
    return best, tuple(sorted(out))


def test_near_tied_add_candidates_follow_scalar_scan():
    # Coordinate 0 alone carries the projection; 1 and 2 are due to join
    # at offsets less than _TIE apart, the later index first.
    s = np.array([2.0, 0.5, 0.5 + 5e-14])
    d = np.array([0.0, 1.0, 1.0])
    w = np.ones(3)
    p, lam = project(s, w, 1.0)
    assert np.nonzero(p)[0].tolist() == [0]
    slope = 0.0  # r[0] = |d[0]| = 0
    deltas = [(j, max((w[j] * lam - abs(s[j])) / (d[j] - w[j] * slope), 0.0))
              for j in (1, 2)]
    assert 0 < deltas[0][1] - deltas[1][1] < _TIE
    best, idx = _scalar_scan(deltas)
    event = enumerate_arc(s, d, w, 1.0).events[0]
    assert (event.kind, event.indices) == ("support_add", idx) == (
        "support_add", (1, 2))
    assert event.alpha == 0.0 + best
    assert event.alpha == deltas[0][1]  # not the smaller offset


def test_near_tied_remove_candidates_follow_scalar_scan():
    # All three coordinates carry the projection; 1 and 2 are due to leave
    # at offsets less than _TIE apart, the later one first in index order.
    s = np.array([3.0, 1.0 + 2e-14, 1.0])
    d = np.array([1.0, 0.0, 0.0])
    w = np.ones(3)
    tau = 2.5
    p, lam = project(s, w, tau)
    support = set(int(i) for i in np.nonzero(p)[0])
    assert support == {0, 1, 2}
    r = np.abs(d)
    slope = float(sum(w[i] * r[i] for i in support)
                  / sum(w[i] * w[i] for i in support))
    deltas = []
    for i in support:
        den = w[i] * slope - r[i]
        if den > _TIE:
            deltas.append((i, max((abs(s[i]) - w[i] * lam) / den, 0.0)))
    assert [i for i, _ in deltas] == [1, 2]
    assert 0 < deltas[0][1] - deltas[1][1] < _TIE
    best, idx = _scalar_scan(deltas)
    event = enumerate_arc(s, d, w, tau).events[0]
    assert (event.kind, event.indices) == ("support_remove", idx) == (
        "support_remove", (1, 2))
    assert event.alpha == 0.0 + best
    assert event.alpha == deltas[0][1]


def test_earliest_matches_scalar_scan_on_chains():
    # Offsets in chains whose neighbours sit about _TIE apart: a scan limited
    # to a fixed multiple of _TIE above the minimum would miss the far links.
    rng = np.random.default_rng(9)
    for _ in range(500):
        k = int(rng.integers(1, 12))
        base = float(rng.choice([0.0, 0.5, 3.0]))
        steps = rng.uniform(0.55, 0.95, size=k) * _TIE
        delta = base + np.cumsum(steps) - steps[0]
        delta = np.concatenate([delta, base + rng.uniform(0.0, 1e-9, size=3)])
        idx = rng.permutation(len(delta))
        # Descending chains are the hard case: each link resets or joins
        # depending on the link before it.
        order = (np.argsort(-delta, kind="stable") if rng.random() < 0.5
                 else rng.permutation(len(delta)))
        best, out = _earliest(idx[order], delta[order])
        ref_best, ref_idx = _scalar_scan(zip(idx[order].tolist(),
                                             delta[order].tolist()))
        assert best == ref_best
        assert tuple(sorted(out)) == ref_idx


@pytest.mark.parametrize("n", [256, 1024])
def test_large_gradient_arc_matches_projection(n):
    # A spectral projected-gradient ray as a solve walks it: from a
    # projected start along -alpha_BB * g on a Gaussian least-squares
    # problem.  The start lies on the sphere, so many coordinates are due
    # to join at once and the addition filter sees large staged sets.
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n // 2, n)) / np.sqrt(n // 2)
    x_true = np.zeros(n)
    x_true[rng.choice(n, n // 16, replace=False)] = rng.normal(size=n // 16)
    b = A @ x_true
    w = rng.uniform(0.5, 2.0, size=n)
    tau = 0.5 * weighted_l1_norm(x_true, w)
    prev, _ = project(rng.normal(size=n), w, tau)
    s, _ = project(prev + 0.1 * rng.normal(size=n), w, tau)
    ds = s - prev
    alpha_bb = float(ds @ ds / (ds @ (A.T @ (A @ ds))))
    d = -alpha_bb * (A.T @ (A @ s - b))
    arc = enumerate_arc(s, d, w, tau)
    for seg in arc.segments:
        hi = seg.alpha_hi if np.isfinite(seg.alpha_hi) else seg.alpha_lo + 1.0
        mid = 0.5 * (seg.alpha_lo + hi)
        ref, _ = project(s + mid * d, w, tau)
        assert np.max(np.abs(arc.point_at(mid) - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert max(len(e.indices) for e in arc.events
               if e.kind == "support_add") >= 10
