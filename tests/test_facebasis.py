import numpy as np
import pytest

from conftest import dense_face_basis
from lassokit.ball import FaceId
from lassokit.facebasis import (
    apply_basis,
    apply_basis_adjoint,
    basis_init,
    basis_to_dense,
)
from lassokit.solver import LbfgsModel


def _random_face(rng, n, p):
    support = np.sort(rng.choice(n, size=p, replace=False))
    signs = [0] * n
    for i in support:
        signs[i] = int(rng.choice([-1, 1]))
    return FaceId("proper", tuple(signs)), support


def test_two_point_face_unit_weights():
    face = FaceId("proper", (1, 0, 1))
    basis = basis_init(face, np.ones(3), 3)
    dense = basis_to_dense(basis)
    expect = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert dense.shape == (3, 1)
    col = dense[:, 0]
    assert np.allclose(col, expect) or np.allclose(col, -expect)


def test_three_point_face_unit_weights():
    # Any orthonormal basis of the complement of (1, 1, 1) is valid, so check
    # the projector Q Q^T rather than the columns.
    face = FaceId("proper", (1, 1, 1))
    dense = basis_to_dense(basis_init(face, np.ones(3), 3))
    proj = np.eye(3) - np.ones((3, 3)) / 3.0
    assert np.max(np.abs(dense @ dense.T - proj)) <= 1e-12


def test_interior_and_vertex_raise():
    with pytest.raises(ValueError):
        basis_init(FaceId("interior"), np.ones(2), 2)
    with pytest.raises(ValueError):
        basis_init(FaceId("proper", (1, 0)), np.ones(2), 2)


def test_dimension_checks():
    basis = basis_init(FaceId("proper", (1, 1, -1)), np.ones(3), 3)
    with pytest.raises(ValueError):
        apply_basis(basis, np.zeros(3))
    with pytest.raises(ValueError):
        apply_basis_adjoint(basis, np.zeros(5))


def test_random_faces_match_qr_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        p = int(rng.integers(2, n + 1))
        w = rng.uniform(0.2, 3.0, size=n)
        face, support = _random_face(rng, n, p)
        basis = basis_init(face, w, n)
        dense = basis_to_dense(basis)
        # Orthonormal columns.
        assert np.max(np.abs(dense.T @ dense - np.eye(p - 1))) < 1e-12
        # Same range as the QR factor of the vertex differences.
        signs = [face.signs[i] for i in support]
        q_ref = dense_face_basis(support, signs, w, n)
        proj = dense @ dense.T
        proj_ref = q_ref @ q_ref.T
        assert np.max(np.abs(proj - proj_ref)) < 1e-10


def test_adjoint_consistency():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 16))
        p = int(rng.integers(2, n + 1))
        w = rng.uniform(0.2, 3.0, size=n)
        face, _ = _random_face(rng, n, p)
        basis = basis_init(face, w, n)
        v = rng.normal(size=p - 1)
        u = rng.normal(size=n)
        lhs = float(apply_basis(basis, v) @ u)
        rhs = float(v @ apply_basis_adjoint(basis, u))
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_adjoint_annihilates_face_normal():
    # The direction with components sign_i * w_i on the support points at the
    # face's normal within the support subspace; its reduced image is zero.
    rng = np.random.default_rng(5)
    n, p = 9, 5
    w = rng.uniform(0.2, 3.0, size=n)
    face, support = _random_face(rng, n, p)
    basis = basis_init(face, w, n)
    z = np.zeros(n)
    for i in support:
        z[i] = face.signs[i] * w[i]
    assert np.max(np.abs(apply_basis_adjoint(basis, z))) < 1e-12


def test_extreme_weights_stay_orthonormal():
    # Weights spanning twelve decades on a face of 1500 vertices.
    rng = np.random.default_rng(6)
    n = 1500
    w = 10.0 ** rng.uniform(-6.0, 6.0, size=n)
    signs = rng.choice([-1, 1], size=n)
    basis = basis_init(FaceId("proper", tuple(signs)), w, n)
    dense = basis_to_dense(basis)
    assert np.max(np.abs(dense.T @ dense - np.eye(n - 1))) <= 1e-12
    normal = signs * w
    reduced = apply_basis_adjoint(basis, normal)
    assert np.max(np.abs(reduced)) <= 1e-12 * np.linalg.norm(normal)


def test_lbfgs_direction_is_basis_invariant():
    # L-BFGS with a scalar initial matrix gives the same ambient direction in
    # every orthonormal basis of the face: here the Householder basis and the
    # dense QR basis of the vertex differences.
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = int(rng.integers(2, 61))
        n = p + int(rng.integers(0, 20))
        w = rng.uniform(0.2, 3.0, size=n)
        face, support = _random_face(rng, n, p)
        q_ref = dense_face_basis(support, face.signs[support], w, n)
        h0 = float(rng.uniform(0.1, 2.0))
        model = LbfgsModel(8, h0, basis_init(face, w, n))
        ref = LbfgsModel(8, h0)
        for _ in range(int(rng.integers(0, 9))):
            s = q_ref @ rng.normal(size=p - 1)
            y = s + 0.3 * rng.normal(size=n)
            assert model.update(s, y) == ref.update(q_ref.T @ s, q_ref.T @ y)
        g = rng.normal(size=n)
        d = model.direction(g)
        d_ref = q_ref @ ref.direction(q_ref.T @ g)
        assert np.max(np.abs(d - d_ref)) <= 1e-10
