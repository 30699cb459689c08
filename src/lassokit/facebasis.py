"""Implicit orthonormal bases for faces of the weighted one-norm ball.

A proper face with support indices I = (i_1 < ... < i_p) and signs sigma is
the convex hull of the vertices sigma_t * (tau / w_{i_t}) * e_{i_t}.  Its
difference hull is spanned by an orthonormal matrix Q of size p x (p-1)
that depends only on the inverse weights 1/w_{i_t}.  Q is never formed;
products with Q and Q^T run in O(p) via two-term recurrences derived from
the QR factorization of the vertex-difference matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .ball import FaceId


@dataclass
class FaceBasis:
    """Implicit basis of a face's difference hull, embedded in R^n."""

    n: int
    support: NDArray  # int array, ascending
    signs: NDArray  # +-1, aligned with support
    what: NDArray  # inverse ball weights on the support
    gamma: NDArray  # length p-1
    mu: NDArray  # length p-1
    u: NDArray  # length p
    sqrt_gamma: NDArray

    @property
    def k(self) -> int:
        """Dimension of the difference hull."""
        return len(self.support) - 1


def basis_init(face: FaceId, w: NDArray, n: int) -> FaceBasis:
    """Build the implicit basis for a proper face with at least two vertices."""
    if face.kind != "proper":
        raise ValueError("interior region has no face basis; use the identity")
    support = face.support
    p = len(support)
    if p < 2:
        raise ValueError("face basis requires support size >= 2, got a vertex")
    signs = face.signs[support].astype(float)
    what = 1.0 / np.asarray(w, dtype=float)[support]
    gamma = np.empty(p - 1)
    mu = np.empty(p - 1)
    u = np.empty(p)
    alpha = what[0] ** 2
    u[0] = -1.0
    for k in range(p - 1):
        gamma[k] = alpha + what[k + 1] ** 2
        mu[k] = what[k + 1] ** 2 / gamma[k]
        u[k + 1] = -alpha / gamma[k]
        alpha = alpha * mu[k]
    return FaceBasis(
        n=n,
        support=support,
        signs=signs,
        what=what,
        gamma=gamma,
        mu=mu,
        u=u,
        sqrt_gamma=np.sqrt(gamma),
    )


def _q_apply(basis: FaceBasis, v: NDArray) -> NDArray:
    """y = Q v with v in R^(p-1), backward sweep in O(p)."""
    p = len(basis.what)
    w, u, mu, sg = basis.what, basis.u, basis.mu, basis.sqrt_gamma
    y = np.empty(p)
    s = v[p - 2] / sg[p - 2]
    t = 0.0
    y[p - 1] = w[p - 1] * s
    for j in range(p - 2, 0, -1):
        t = mu[j] * t + s
        s = v[j - 1] / sg[j - 1]
        y[j] = w[j] * (u[j] * t + s)
    y[0] = w[0] * u[0] * (mu[0] * t + s)
    return y


def _q_apply_adjoint(basis: FaceBasis, v: NDArray) -> NDArray:
    """y = Q^T v with v in R^p, forward sweep in O(p)."""
    p = len(basis.what)
    w, u, mu, sg = basis.what, basis.u, basis.mu, basis.sqrt_gamma
    y = np.empty(p - 1)
    t = w[0] * v[0] * u[0]
    s = w[1] * v[1]
    y[0] = (t + s) / sg[0]
    for j in range(1, p - 1):
        t = mu[j - 1] * t + u[j] * s
        s = w[j + 1] * v[j + 1]
        y[j] = (t + s) / sg[j]
    return y


def apply_basis(basis: FaceBasis, v: NDArray) -> NDArray:
    """Map reduced coordinates v in R^(p-1) to the ambient space R^n."""
    if len(v) != basis.k:
        raise ValueError(f"reduced vector length {len(v)} != basis dimension {basis.k}")
    out = np.zeros(basis.n)
    out[basis.support] = basis.signs * _q_apply(basis, np.asarray(v, dtype=float))
    return out


def apply_basis_adjoint(basis: FaceBasis, v: NDArray) -> NDArray:
    """Map an ambient vector v in R^n to reduced coordinates R^(p-1)."""
    if len(v) != basis.n:
        raise ValueError(f"ambient vector length {len(v)} != dimension {basis.n}")
    return _q_apply_adjoint(basis, basis.signs * np.asarray(v, dtype=float)[basis.support])


def basis_to_dense(basis: FaceBasis) -> NDArray:
    """Materialize the n x (p-1) embedded basis (testing / small problems)."""
    cols = [apply_basis(basis, col) for col in np.eye(basis.k)]
    return np.stack(cols, axis=1)
