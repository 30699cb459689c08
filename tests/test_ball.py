import numpy as np
import pytest

from conftest import bisect_project
from lassokit.ball import (
    FEAS_TOL,
    FaceId,
    InfeasiblePointError,
    face_of,
    in_self_projection_cone,
    max_step_on_face,
    prox_weighted_l1,
    project,
    threshold,
    weighted_l1_norm,
)


def test_weighted_norm():
    assert weighted_l1_norm(np.array([1.0, -2.0]), np.array([3.0, 0.5])) == 4.0


def test_prox_example():
    out = prox_weighted_l1(np.array([3.0, -1.0]), 2.0, np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.0])


def test_prox_negative_threshold_raises():
    with pytest.raises(ValueError):
        prox_weighted_l1(np.array([1.0]), -0.1, np.array([1.0]))


def test_project_example():
    x, lam = project(np.array([2.0, 0.0]), np.array([1.0, 1.0]), 1.0)
    assert np.allclose(x, [1.0, 0.0])
    assert lam == pytest.approx(1.0)


def test_project_feasible_identity():
    u = np.array([0.2, -0.3])
    x, lam = project(u, np.ones(2), 1.0)
    assert lam == 0.0
    assert np.array_equal(x, u)
    x[0] = 9.0  # returned copy must not alias the input
    assert u[0] == 0.2


def test_project_input_validation():
    with pytest.raises(ValueError):
        project(np.ones(2), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        project(np.ones(2), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        project(np.ones(2), np.ones(2), -1.0)


def test_project_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        u = rng.normal(size=n) * 3.0
        w = rng.uniform(0.2, 3.0, size=n)
        tau = float(rng.uniform(0.05, 1.5) * max(w @ np.abs(u), 0.1))
        x, lam = project(u, w, tau)
        x_ref, lam_ref = bisect_project(u, w, tau)
        assert np.allclose(x, x_ref, atol=1e-8)
        assert lam == pytest.approx(lam_ref, abs=1e-8)
        assert w @ np.abs(x) <= tau * (1.0 + 1e-9)


@pytest.mark.parametrize("unit", [True, False])
def test_project_far_outside_stays_in_ball(unit):
    # The threshold (sum w|u| - tau)/sum w^2 and the soft threshold |u| - lam*w
    # cancel when |u| >> tau; the solver projects x - 1e10*g whenever its
    # step clamps at the maximum.  The result still lands on the sphere.
    rng = np.random.default_rng(11)
    for e in range(13):
        for _ in range(20):
            n = int(rng.integers(1, 301))
            w = np.ones(n) if unit else rng.uniform(0.2, 3.0, size=n)
            tau = float(rng.uniform(0.5, 2.0))
            x, _ = project(rng.normal(size=n) * 10.0**e * tau, w, tau)
            norm = weighted_l1_norm(x, w)
            assert tau * (1.0 - FEAS_TOL) <= norm <= tau * (1.0 + FEAS_TOL)


def test_threshold_at_radius_zero_is_largest_breakpoint():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        u = rng.normal(size=n)
        w = rng.uniform(0.2, 3.0, size=n)
        expect = float(np.max(np.abs(u) / w))
        assert threshold(np.abs(u), w, 0.0) == expect
        x, lam = project(u, w, 0.0)
        assert lam == expect
        assert not np.any(x)


def test_face_of_interior_and_vertex():
    w = np.ones(2)
    assert face_of(np.zeros(2), w, 1.0).kind == "interior"
    face = face_of(np.array([1.0, 0.0]), w, 1.0)
    assert face.kind == "proper"
    assert face.support == (0,)
    assert face.dim == 0
    assert FaceId("interior").dim is None


def test_face_of_errors():
    with pytest.raises(ValueError):
        face_of(np.zeros(2), np.ones(2), 0.0)
    with pytest.raises(InfeasiblePointError):
        face_of(np.array([2.0, 0.0]), np.ones(2), 1.0)
    with pytest.raises(InfeasiblePointError):
        face_of(np.array([np.nan, 0.0]), np.ones(2), 1.0)


def test_face_signs_are_an_int8_array():
    face = face_of(np.array([0.25, 0.0, -0.75]), np.ones(3), 1.0)
    assert face.signs.dtype == np.int8
    assert face.signs.tolist() == [1, 0, -1]
    assert face.support.tolist() == [0, 2]
    assert face.dim == 1
    assert face == FaceId("proper", (1, 0, -1))
    assert face != FaceId("proper", (1, 0, 1))
    assert face != FaceId("interior")
    assert FaceId("interior") == FaceId("interior")


def test_cone_examples():
    w = np.ones(2)
    # Off-face growth direction at a vertex is rejected.
    assert not in_self_projection_cone(
        np.array([1.0, 0.0]), np.array([0.0, 1.0]), w, 1.0
    )
    # Interior points accept every direction.
    assert in_self_projection_cone(np.zeros(2), np.array([5.0, -1.0]), w, 1.0)
    # Borderline (exact face direction) is conservatively rejected.
    assert not in_self_projection_cone(
        np.array([0.5, 0.5]), np.array([1.0, -1.0]), w, 1.0
    )
    # Inward-pointing direction on the face is accepted.
    assert in_self_projection_cone(
        np.array([0.5, 0.5]), np.array([1.0, 1.0]), w, 1.0
    )


def test_cone_infeasible_raises():
    with pytest.raises(InfeasiblePointError):
        in_self_projection_cone(np.array([2.0, 0.0]), np.ones(2), np.ones(2), 1.0)


def test_max_step_examples():
    w = np.ones(2)
    a = max_step_on_face(np.array([0.5, 0.5]), np.array([1.0, -1.0]), w, 1.0)
    assert a == pytest.approx(0.5)
    # Zero direction never leaves the ball.
    assert max_step_on_face(np.zeros(2), np.zeros(2), w, 1.0) == np.inf


def test_max_step_interior_hits_boundary():
    w = np.array([1.0, 2.0])
    x = np.array([0.1, -0.1])
    d = np.array([1.0, 0.5])
    a = max_step_on_face(x, d, w, 1.0)
    assert np.isfinite(a)
    assert weighted_l1_norm(x + a * d, w) == pytest.approx(1.0, abs=1e-10)


def test_max_step_random_feasibility():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        w = rng.uniform(0.3, 3.0, size=n)
        x = rng.normal(size=n)
        tau = weighted_l1_norm(x, w) * float(rng.uniform(0.9, 2.0))
        x = x if weighted_l1_norm(x, w) <= tau else x * tau / weighted_l1_norm(x, w)
        d = rng.normal(size=n)
        a = max_step_on_face(x, d, w, tau)
        if not np.isfinite(a):
            continue
        probe = x + 0.999 * a * d
        on_boundary = weighted_l1_norm(x, w) >= tau * (1.0 - 1e-9)
        if on_boundary and in_self_projection_cone(x, d, w, tau, slack=-1e-12):
            # Sign-flip step: no support sign changes before the cap.
            on = x != 0
            assert np.all(np.sign(probe[on]) == np.sign(x[on]))
        else:
            # Boundary-crossing step: the ray is still feasible before it.
            assert weighted_l1_norm(probe, w) <= tau * (1.0 + 1e-8)
