"""Piecewise-linear structure of alpha -> P(s + alpha*d).

The Euclidean projection of a line onto the weighted one-norm ball is
piecewise linear in alpha.  The enumeration walks the ray's events --
sign flips of coordinates, crossings of the ball boundary, and support
changes of the projection -- maintaining the norm kappa(alpha), its slope
rho, the threshold lambda(alpha), and its slope in O(1) amortized updates
per event.  The projection's support is one signed vector: its signs, zero
off the support.  A full line admits at most 4n - 2 support/boundary events.
Segments are produced on demand, so a search that stops early never walks
the rest of the ray.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .ball import project, weighted_l1_norm

_TIE = 1e-12


class ArcEnumerationError(RuntimeError):
    """Raised when event processing fails to terminate (numerical stall)."""


@dataclass
class ArcEvent:
    alpha: float
    kind: str  # zero_cross | boundary_cross | support_remove | support_add
    indices: tuple[int, ...]
    lam: float  # threshold just after the event
    kappa: float
    rho: float
    slope: float  # d lambda / d alpha just after the event


@dataclass
class ArcSegment:
    alpha_lo: float
    alpha_hi: float  # inf for the terminal segment
    inside: bool
    support: NDArray  # indices with nonzero projection on the open segment
    signs: NDArray  # aligned with support
    lam0: float  # lambda at alpha_lo
    slope: float  # d lambda / d alpha


class ProjectionArc:
    """Segments and events of alpha -> P(s + alpha*d), produced on demand.

    `iter_segments` yields segments as the walk reaches them, so a caller
    that stops early never pays for the rest of the arc.  `segments`,
    `events` and `breakpoint_count` finish the walk; `segment_at`,
    `point_at` and `lambda_of` walk only until every segment starting at or
    before alpha exists.
    """

    def __init__(self, s: NDArray, d: NDArray, w: NDArray, tau: float,
                 walk: Iterator[ArcSegment], events: list[ArcEvent]):
        self.s, self.d, self.w, self.tau = s, d, w, tau
        self._walk: Iterator[ArcSegment] | None = walk
        self._events = events  # appended by the walk
        self._segments: list[ArcSegment] = []
        self._los: list[float] = []
        self._error: ArcEnumerationError | None = None

    def _advance(self) -> bool:
        """Produce the next segment; False once the walk has ended."""
        if self._error is not None:
            raise self._error
        if self._walk is None:
            return False
        try:
            seg = next(self._walk)
        except StopIteration:
            self._walk = None
            return False
        except ArcEnumerationError as exc:
            # The generator is closed now; keep failing rather than
            # passing off the partial arc as the whole one.
            self._error = exc
            raise
        self._segments.append(seg)
        self._los.append(seg.alpha_lo)
        return True

    def iter_segments(self) -> Iterator[ArcSegment]:
        """Segments in order of alpha, walking the arc only as they are read."""
        k = 0
        while k < len(self._segments) or self._advance():
            yield self._segments[k]
            k += 1

    def _finish(self) -> None:
        while self._advance():
            pass

    @property
    def segments(self) -> list[ArcSegment]:
        self._finish()
        return self._segments

    @property
    def events(self) -> list[ArcEvent]:
        self._finish()
        return self._events

    @property
    def breakpoint_count(self) -> int:
        """Events at which the arc changes direction (zero crossings excluded)."""
        return sum(1 for e in self.events if e.kind != "zero_cross")

    def segment_at(self, alpha: float) -> ArcSegment:
        if alpha < 0:
            raise ValueError(f"alpha {alpha} precedes the ray origin")
        # Segments are contiguous, so none still to come starts at or
        # before alpha once the last one ends beyond it.
        while not self._segments or self._segments[-1].alpha_hi <= alpha:
            if not self._advance():
                break
        k = bisect.bisect_right(self._los, alpha) - 1
        return self._segments[max(k, 0)]

    def lambda_of(self, alpha: float) -> float:
        seg = self.segment_at(alpha)
        return seg.lam0 + seg.slope * (alpha - seg.alpha_lo)

    def point_at(self, alpha: float) -> NDArray:
        seg = self.segment_at(alpha)
        x = self.s + alpha * self.d
        if seg.inside:
            return x
        lam = seg.lam0 + seg.slope * (alpha - seg.alpha_lo)
        p = np.zeros_like(x)
        sup = seg.support
        p[sup] = x[sup] - seg.signs * lam * self.w[sup]
        return p


def support_addition_filter(sup: NDArray, staged: NDArray, r: NDArray,
                            w: NDArray) -> NDArray:
    """The staged entries that actually join the support `sup`, sorted.

    Entries enter in decreasing order of r_j / w_j: the first always, each
    later one while its ratio exceeds the slope ratio a / b of the support
    enlarged so far.  An entry above a / b raises it toward its own ratio,
    so once one falls short the rest do too: the admitted entries are a
    prefix of that order.
    """
    order = staged[np.argsort(-r[staged] / w[staged], kind="stable")]
    a = np.dot(w[sup], r[sup]) + np.cumsum(w[order] * r[order])
    b = np.dot(w[sup], w[sup]) + np.cumsum(w[order] * w[order])
    enters = r[order[1:]] / w[order[1:]] > a[:-1] / b[:-1]
    return np.sort(order[:1 + np.logical_and.accumulate(enters).sum()])


def _earliest(idx: NDArray, delta: NDArray) -> tuple[float, list[int]]:
    """Earliest event offset among candidates and the indices tied with it.

    The tie rule is sequential: in the given order, an offset below
    best - _TIE starts a new group, one within best + _TIE joins it.  Only
    the cluster at the minimum is scanned: above the first gap of more than
    4*_TIE*(1 + |delta|) in the sorted offsets, an entry can neither start
    nor join a group once the cluster has been reached, and any group it
    started before that is replaced by the cluster's first entry.
    """
    best, out = np.inf, []
    if len(delta) == 0:
        return best, out
    srt = np.sort(delta)
    gaps = np.diff(srt) > 4.0 * _TIE * (1.0 + np.abs(srt[:-1]))
    near = delta <= (srt[np.argmax(gaps)] if gaps.any() else np.inf)
    for i, dl in zip(idx[near].tolist(), delta[near].tolist()):
        if dl < best - _TIE:
            best, out = dl, [i]
        elif dl <= best + _TIE:
            out.append(i)
    return best, out


def enumerate_arc(s: NDArray, d: NDArray, w: NDArray, tau: float) -> ProjectionArc:
    """Segments and events of alpha -> P(s + alpha*d) for alpha >= 0.

    The inputs are checked here; the arc itself is walked on demand.
    """
    s = np.asarray(s, dtype=float)
    d = np.asarray(d, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(s)
    if len(d) != n or len(w) != n:
        raise ValueError("s, d, w must share a common length")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if tau <= 0:
        raise ValueError("radius must be positive")
    events: list[ArcEvent] = []
    return ProjectionArc(s, d, w, tau, _walk(s, d, w, tau, events), events)


def _walk(s: NDArray, d: NDArray, w: NDArray, tau: float,
          events: list[ArcEvent]) -> Iterator[ArcSegment]:
    """Yield the arc's segments in order, appending each event to `events`.

    The support is one vector `sign`: the projection's signs, zero off its
    support and everywhere inside the ball, where lam and its slope stay 0.
    """
    if not np.any(d != 0):
        p, lam0 = project(s, w, tau)
        sup = np.nonzero(p)[0]
        yield ArcSegment(0.0, np.inf, lam0 == 0.0, sup, np.sign(p[sup]), lam0,
                         0.0)
        return

    # Sign-flip schedule, fixed for the whole ray.
    r = np.where(s * d < 0, -np.abs(d), np.abs(d))
    crossings = sorted(
        (float(-s[j] / d[j]), int(j)) for j in np.nonzero(s * d < 0)[0]
    )
    ci = 0
    rho = float(np.dot(w, r))
    kappa = weighted_l1_norm(s, w)
    w2 = w * w

    alpha = 0.0
    p0, lam = project(s, w, tau)
    inside = lam == 0.0
    sign = np.zeros(len(s))
    if not inside:
        sign = np.sign(p0)
    elif kappa >= tau * (1.0 - _TIE) and rho > 0:
        # Starting on the boundary and moving outward: begin outside.
        inside, lam, kappa = False, 0.0, tau
        sign = np.sign(s)

    def support_slope() -> float:
        on = sign != 0
        return float(np.dot(w[on], r[on]) / w2[on].sum()) if on.any() else 0.0

    slope = support_slope()

    def segment(alpha_hi: float) -> ArcSegment:
        """The segment from the current alpha to alpha_hi."""
        if inside:
            mid = alpha + (1.0 if not np.isfinite(alpha_hi)
                           else 0.5 * (alpha_hi - alpha))
            x = s + mid * d
            sup = np.nonzero(x)[0]
            return ArcSegment(alpha, alpha_hi, True, sup, np.sign(x[sup]),
                              0.0, 0.0)
        sup = np.flatnonzero(sign)
        return ArcSegment(alpha, alpha_hi, False, sup, sign[sup], lam, slope)

    def resync(at: float) -> None:
        nonlocal inside, lam, kappa, rho, slope, ci
        eps = _TIE * (1.0 + abs(at)) * 1e3
        xp = s + (at + eps) * d
        p, lam_probe = project(xp, w, tau)
        r[:] = np.where(xp * d < 0, -np.abs(d), np.abs(d))
        rho = float(np.dot(w, r))
        kappa = weighted_l1_norm(s + at * d, w)
        while ci < len(crossings) and crossings[ci][0] <= at + eps:
            ci += 1
        inside = lam_probe == 0.0
        sign[:] = 0.0 if inside else np.sign(p)
        slope = support_slope()
        if inside:
            lam = 0.0
            kappa = min(kappa, tau)
        else:
            on = sign != 0
            lam = max((weighted_l1_norm((s + at * d)[on], w[on]) - tau)
                      / w2[on].sum(), 0.0)

    max_events = 8 * len(s) + 16
    while True:
        if len(events) > max_events:
            raise ArcEnumerationError("event budget exceeded; arc did not settle")
        cands = []
        if ci < len(crossings):
            cands.append((crossings[ci][0], "zero_cross", (crossings[ci][1],)))
        if inside:
            if rho > 0:
                cands.append((alpha + max((tau - kappa) / rho, 0.0),
                              "boundary_cross", ()))
        else:
            x_now = s + alpha * d
            sup = np.flatnonzero(sign)
            den = w[sup] * slope - r[sup]
            keep = den > _TIE
            rm = sup[keep]
            rm_best, rm_idx = _earliest(rm, np.maximum(
                (np.abs(x_now[rm]) - w[rm] * lam) / den[keep], 0.0))
            if rm_idx:
                cands.append((alpha + rm_best, "support_remove",
                              tuple(sorted(rm_idx))))
            den = r - w * slope
            ad = np.flatnonzero((den > _TIE) & (sign == 0))
            ad_best, ad_idx = _earliest(ad, np.maximum(
                (w[ad] * lam - np.abs(x_now[ad])) / den[ad], 0.0))
            if ad_idx:
                cands.append((alpha + ad_best, "support_add",
                              tuple(sorted(ad_idx))))
            if rho < 0:
                cands.append((alpha + max((tau - kappa) / rho, 0.0),
                              "boundary_cross", ()))

        a_next = min((t[0] for t in cands), default=np.inf)
        if not np.isfinite(a_next):
            yield segment(np.inf)
            return
        if inside:
            # Inside the ball events are taken one at a time.
            hits = [min(cands, key=lambda t: t[0])]
        else:
            tol = _TIE * (1.0 + abs(a_next))
            hits = [t for t in cands if t[0] <= a_next + tol]
        if a_next > alpha:
            yield segment(a_next)
        step = a_next - alpha
        kappa += step * rho
        lam = max(lam + step * slope, 0.0)
        alpha = a_next

        if len(hits) > 1:
            # Coincident events: record them in canonical order, then rebuild
            # the state from a fresh projection just past the tie.
            order = {"zero_cross": 0, "support_remove": 1, "support_add": 2,
                     "boundary_cross": 3}
            for _, kind, idx in sorted(hits, key=lambda t: order[t[1]]):
                events.append(ArcEvent(alpha, kind, idx, lam, kappa, rho, slope))
            resync(alpha)
            for k in range(len(events) - len(hits), len(events)):
                events[k].lam, events[k].kappa = lam, kappa
                events[k].rho, events[k].slope = rho, slope
            continue

        _, kind, idx = hits[0]
        if kind == "zero_cross":
            j = idx[0]
            ci += 1
            r[j] = abs(d[j])
            rho += 2.0 * w[j] * abs(d[j])
            if sign[j] != 0:  # only possible at lambda ~ 0; rebuild to be safe
                resync(alpha)
        elif kind == "support_remove":
            sign[list(idx)] = 0.0
            if sign.any():
                slope = support_slope()
            else:
                resync(alpha)
        elif kind == "support_add":
            added = support_addition_filter(sup, np.array(idx), r, w)
            x = s + alpha * d
            sign[added] = np.where(x[added] != 0, np.sign(x[added]),
                                   np.sign(d[added]))
            slope = support_slope()
            idx = tuple(added.tolist())
        else:  # boundary_cross: the ray leaves or enters the ball
            inside = not inside
            lam, kappa = 0.0, tau
            sign[:] = 0.0 if inside else np.sign(s + alpha * d)
            slope = support_slope()
        events.append(ArcEvent(alpha, kind, idx, lam, kappa, rho, slope))


def _norm_argmin(s: NDArray, d: NDArray, w: NDArray) -> float:
    """Minimizer of the convex piecewise-linear alpha -> ||s + alpha*d||_{w,1}."""
    moving = d != 0
    if not np.any(moving):
        return 0.0
    z = -s[moving] / d[moving]
    wt = (w * np.abs(d))[moving]
    order = np.argsort(z)
    z, wt = z[order], wt[order]
    total = wt.sum()
    csum = np.cumsum(wt)
    k = int(np.searchsorted(csum, total / 2.0))
    return float(z[min(k, len(z) - 1)])


def enumerate_line(
    s: NDArray, d: NDArray, w: NDArray, tau: float
) -> tuple[ProjectionArc, ProjectionArc, float]:
    """Two-sided enumeration: forward and backward arcs from near the norm
    minimizer of the line (jittered off any coincident event)."""
    s = np.asarray(s, dtype=float)
    d = np.asarray(d, dtype=float)
    a0 = _norm_argmin(s, d, w)
    a0 += 6.18e-4 * (1.0 + abs(a0))
    base = s + a0 * d
    fwd = enumerate_arc(base, d, w, tau)
    bwd = enumerate_arc(base, -d, w, tau)
    return fwd, bwd, a0


def count_breakpoints_two_sided(s: NDArray, d: NDArray, w: NDArray,
                                tau: float) -> int:
    fwd, bwd, _ = enumerate_line(s, d, w, tau)
    return fwd.breakpoint_count + bwd.breakpoint_count


def extremal_construction(n: int, seed: int = 0) -> tuple[NDArray, NDArray, NDArray, float]:
    """A line/ball pair whose projection attains the 4n - 2 breakpoint bound.

    Returns (s, d, w, tau).  The n = 3 and n = 4 instances are fixed; other
    sizes draw their bundle of middle sign-flip locations from `seed` and
    attain the bound with probability one.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    rng = np.random.default_rng(seed)
    if n == 1:
        return np.array([0.0]), np.array([1.0]), np.array([1.0]), 1.0
    if n == 3:
        d = np.array([1.0, 0.5, 1.0 - 1e-3])
        z = np.array([-4.0, 0.0, 4.0])
        w = np.ones(3)
        s = -z * d
        tau = float(np.sum(np.abs(s + 3.0 * d)))
        return s, d, w, tau
    if n == 4:
        d = np.array([1.02, 0.52, 0.80, 1.01])
        z = np.array([0.00, 0.21, 0.44, 0.86])
        w = np.ones(4)
        s = -z * d
        tau = _N4_TAU
        return s, d, w, tau
    if n == 2:
        # Weighted-ball instance: a steep cheap coordinate pinned at the norm
        # minimizer plus a fast outer coordinate.
        omega = np.sqrt(2.0 * n + 5.0)
        z = np.array([0.0, 3.0])
        slopes = np.array([1.0, 4.0])
        w = np.array([omega, 1.0])
        d = slopes * w
        s = -z * d
        tau = float(np.dot(w, np.abs(s + 1.0 * d)))
        return s, d, w, tau
    # n >= 5: two outer curves, two bundles around -+mu1, one central curve.
    beta = 0.5
    delta = beta / n
    sigma = delta / 2.0
    mu1 = 10.0 * beta
    mu2 = mu1 + 2.0 * beta
    eps = min(delta / (2.0 * mu1), 0.125)
    k1 = (n - 3) // 2
    k2 = (n - 3) - k1
    z = np.concatenate([
        [-mu2, mu2],
        rng.uniform(-mu1 - sigma, -mu1 + sigma, size=k1),
        rng.uniform(mu1 - sigma, mu1 + sigma, size=k2),
        [0.0],
    ])
    slopes = np.concatenate([
        [4.0, 4.0 - eps],
        np.full(k1, 2.0),
        np.full(k2, 2.0 * k1 / k2),
        [1.0],
    ])
    w = np.ones(n)
    d = slopes.copy()
    s = -z * d
    a_star = -mu1 + delta
    tau = float(np.sum(np.abs(s + a_star * d)))
    return s, d, w, tau


# Radius for the fixed 4-coordinate extremal instance, located by scanning
# the (wide) interval of radii for which the line attains the full count.
_N4_TAU = 1.0
