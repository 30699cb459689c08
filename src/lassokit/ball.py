"""Geometry of the weighted one-norm ball: prox, projection, faces, cones."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

FEAS_TOL = 1e-9
CONE_SLACK = 1e-12


class InfeasiblePointError(ValueError):
    """Raised when a point lies outside the ball beyond the feasibility slack."""


def weighted_l1_norm(x: NDArray, w: NDArray) -> float:
    return float(np.dot(w, np.abs(x)))


def prox_weighted_l1(u: NDArray, lam: float, w: NDArray) -> NDArray:
    """Soft threshold: componentwise sign(u) * max(|u| - lam*w, 0)."""
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    return np.sign(u) * np.maximum(np.abs(u) - lam * w, 0.0)


def threshold(a: NDArray, w: NDArray, radius: float) -> float:
    """Smallest lam >= 0 with sum_i w_i max(a_i - lam*w_i, 0) <= radius, for a >= 0.

    The left side falls piecewise linearly in lam, with breakpoints a_i/w_i.
    With the k largest breakpoints active, lam solves cwa_k - lam*cw2_k =
    radius; that root lies below the k-th breakpoint for a prefix of k, and
    the last k of the prefix holds the threshold.  At radius 0 the prefix
    is empty (the k = 1 root is the largest breakpoint itself, but rounds
    about it), and the threshold is the largest breakpoint.  O(n log n).
    """
    if float(np.dot(w, a)) <= radius:
        return 0.0
    ratios = a / w
    order = np.argsort(ratios)[::-1]
    t = ratios[order]
    lam_k = (np.cumsum((w * a)[order]) - radius) / np.cumsum((w * w)[order])
    k = int(np.count_nonzero(lam_k < t)) if radius > 0 else 0
    return max(float(lam_k[k - 1]), 0.0) if k else float(t[0])


def project(u: NDArray, w: NDArray, tau: float) -> tuple[NDArray, float]:
    """Euclidean projection onto {x : sum_i w_i |x_i| <= tau}.

    Returns the projected point and the smallest threshold lam >= 0 such
    that the soft-thresholded point is feasible.  Soft thresholding
    |u| - lam*w cancels when |u| >> tau, so entries carry an absolute error
    of about eps*max|u|.  A result that this leaves off the sphere by more
    than the feasibility slack is scaled back onto it; one that rounds to
    zero (max|u| near tau/eps) has no scale and is returned as it is.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != w.shape:
        raise ValueError(f"weight vector length {w.shape[0]} != point length {u.shape[0]}")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if tau < 0:
        raise ValueError("radius must be nonnegative")
    lam = threshold(np.abs(u), w, tau)
    if lam == 0.0:
        return u.copy(), 0.0
    x = prox_weighted_l1(u, lam, w)
    norm = weighted_l1_norm(x, w)
    if norm > 0.0 and not tau * (1.0 - FEAS_TOL) <= norm <= tau * (1.0 + FEAS_TOL):
        x *= tau / norm
    return x, lam


@dataclass(frozen=True, eq=False)
class FaceId:
    """Identifies the face of the ball a feasible point lies in.

    kind is "interior" (the whole ball) or "proper" (a boundary face,
    characterized by the sign pattern of the point, held as an int8 array).
    """

    kind: str
    signs: NDArray | None = None

    def __post_init__(self):
        if self.signs is not None:
            object.__setattr__(self, "signs", np.asarray(self.signs, dtype=np.int8))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaceId):
            return NotImplemented
        # array_equal holds None equal to None and to no array.
        return self.kind == other.kind and np.array_equal(self.signs, other.signs)

    @property
    def support(self) -> NDArray:
        if self.signs is None:
            raise ValueError("interior face has no sign pattern")
        return np.flatnonzero(self.signs)

    @property
    def dim(self) -> int | None:
        """Dimension of the face (len(support) - 1), or None for interior."""
        if self.kind == "interior":
            return None
        return int(np.count_nonzero(self.signs)) - 1


def face_of(x: NDArray, w: NDArray, tau: float, feas_tol: float = FEAS_TOL) -> FaceId:
    """Classify the face containing feasible x; raises if x is infeasible or NaN."""
    if tau <= 0:
        raise ValueError("radius must be positive to classify faces")
    norm = weighted_l1_norm(x, w)
    if not norm <= tau * (1.0 + feas_tol):
        raise InfeasiblePointError(
            f"weighted one-norm {norm} exceeds radius {tau} beyond slack"
        )
    if norm < tau * (1.0 - feas_tol):
        return FaceId("interior")
    return FaceId("proper", np.sign(x))


def in_self_projection_cone(
    x: NDArray,
    d: NDArray,
    w: NDArray,
    tau: float,
    feas_tol: float = FEAS_TOL,
    slack: float = CONE_SLACK,
) -> bool:
    """True when projecting x + eps*d lands back on the face of x for small eps.

    Any direction qualifies at interior points.  On a boundary face the test
    is two inequalities in the on/off-support components of d; borderline
    cases (within `slack` of equality) are conservatively rejected.
    """
    norm = weighted_l1_norm(x, w)
    if norm > tau * (1.0 + feas_tol):
        raise InfeasiblePointError("point lies outside the ball")
    if norm < tau * (1.0 - feas_tol):
        return True
    on = x != 0.0
    s1 = float(np.dot(w[on] * np.sign(x[on]), d[on]))
    s2 = float(np.dot(w[~on], np.abs(d[~on])))
    if s1 + s2 < slack:
        return False
    bound = s1 / float(np.dot(w[on], w[on]))
    off = ~on
    if np.any(off):
        max_ratio = float(np.max(np.abs(d[off]) / w[off]))
        if max_ratio > bound - slack:
            return False
    return True


def first_sign_flip(x: NDArray, d: NDArray) -> float:
    """Smallest alpha > 0 at which an entry of x + alpha*d reaches zero.

    That is min(-x_i/d_i) over x_i*d_i < 0, or infinite when no entry
    shrinks.  It is the face edge along a direction in the face's
    difference hull, which keeps the weighted norm fixed.
    """
    mask = x * d < 0
    if not np.any(mask):
        return np.inf
    return float(np.min(-x[mask] / d[mask]))


def max_step_on_face(x: NDArray, d: NDArray, w: NDArray, tau: float) -> float:
    """Largest alpha with x + alpha*d still feasible, exact for face directions.

    For a boundary point with d in its self-projection cone this is the first
    sign flip on the support.  Otherwise it is the first intersection of the
    ray with the boundary (infinite when the ray stays inside forever).
    """
    norm = weighted_l1_norm(x, w)
    on_boundary = norm >= tau * (1.0 - FEAS_TOL)
    # Permissive slack here: directions lying exactly in the face hull satisfy
    # the cone inequalities with equality and must take the sign-flip formula.
    if on_boundary and in_self_projection_cone(x, d, w, tau, slack=-CONE_SLACK):
        return first_sign_flip(x, d)
    # Walk the piecewise-linear norm alpha -> ||x + alpha*d||_{w,1} to the
    # first up-crossing of tau.
    if not np.any(d != 0):
        return np.inf
    r = np.where(x * d < 0, -np.abs(d), np.abs(d))
    rho = float(np.dot(w, r))
    kappa = norm
    alpha = 0.0
    ci = 0
    # Sign-flip times for the entries currently shrinking in magnitude.
    cross_idx = sorted(
        (float(-x[j] / d[j]), int(j)) for j in np.nonzero(x * d < 0)[0]
    )
    while True:
        nxt = cross_idx[ci][0] if ci < len(cross_idx) else np.inf
        if rho > 0:
            hit = alpha + (tau - kappa) / rho
            if hit <= nxt:
                return max(hit, 0.0)
        if not np.isfinite(nxt):
            return np.inf
        kappa += (nxt - alpha) * rho
        alpha = nxt
        while ci < len(cross_idx) and cross_idx[ci][0] <= alpha:
            j = cross_idx[ci][1]
            rho += 2.0 * w[j] * abs(d[j])
            ci += 1
