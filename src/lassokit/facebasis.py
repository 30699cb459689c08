"""Orthonormal bases for faces of the weighted one-norm ball.

A proper face with support indices I = (i_1 < ... < i_p) and signs sigma is
the convex hull of the vertices sigma_t * (tau / w_{i_t}) * e_{i_t}.  Its
difference hull holds the vectors d on I with sum_t sigma_t w_{i_t} d_t = 0:
with the signs absorbed, the orthogonal complement of u = w_I / ||w_I|| in
R^p.

The basis Q is the last p - 1 columns of the Householder reflector
H = I - beta v v^T with v = u + e_1 and beta = 2 / v^T v, which maps u to
-e_1.  Every weight is positive, so u_1 > 0 and forming v cancels nothing.
Q is never formed: a product with Q or Q^T is one dot product and one axpy.

Any orthonormal basis of the complement serves the solver: L-BFGS with a
scalar initial matrix is equivariant under rotations of the reduced
coordinates, so every such basis yields the same ambient direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .ball import FaceId


@dataclass
class FaceBasis:
    """Householder basis of a face's difference hull, embedded in R^n."""

    n: int
    support: NDArray  # int array, ascending
    signs: NDArray  # +-1, aligned with support
    v: NDArray  # reflector vector u + e_1, length p
    beta: float  # 2 / v'v

    @property
    def k(self) -> int:
        """Dimension of the difference hull."""
        return len(self.support) - 1


def basis_init(face: FaceId, w: NDArray, n: int) -> FaceBasis:
    """Build the basis for a proper face with at least two vertices."""
    if face.kind != "proper":
        raise ValueError("interior region has no face basis; use the identity")
    support = face.support
    if len(support) < 2:
        raise ValueError("face basis requires support size >= 2, got a vertex")
    v = np.asarray(w, dtype=float)[support]
    v = v / np.linalg.norm(v)
    v[0] += 1.0
    return FaceBasis(n=n, support=support,
                     signs=face.signs[support].astype(float),
                     v=v, beta=2.0 / float(v @ v))


def apply_basis(basis: FaceBasis, z: NDArray) -> NDArray:
    """Map reduced coordinates z in R^(p-1) to the ambient space R^n."""
    if len(z) != basis.k:
        raise ValueError(f"reduced vector length {len(z)} != basis dimension {basis.k}")
    v = basis.v
    y = (-basis.beta * float(v[1:] @ z)) * v  # H [0; z]
    y[1:] += z
    out = np.zeros(basis.n)
    out[basis.support] = basis.signs * y
    return out


def apply_basis_adjoint(basis: FaceBasis, x: NDArray) -> NDArray:
    """Map an ambient vector x in R^n to reduced coordinates R^(p-1)."""
    if len(x) != basis.n:
        raise ValueError(f"ambient vector length {len(x)} != dimension {basis.n}")
    v = basis.v
    y = basis.signs * np.asarray(x, dtype=float)[basis.support]
    return y[1:] - (basis.beta * float(v @ y)) * v[1:]  # (H y)[1:]


def basis_to_dense(basis: FaceBasis) -> NDArray:
    """Materialize the n x (p-1) embedded basis (testing / small problems)."""
    v = basis.v
    q = -basis.beta * np.outer(v, v[1:])  # H[:, 1:]
    q[1:] += np.eye(basis.k)
    dense = np.zeros((basis.n, basis.k))
    dense[basis.support] = basis.signs[:, None] * q
    return dense
