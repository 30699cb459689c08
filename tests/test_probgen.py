import numpy as np
import pytest

from lassokit.probgen import (
    GeneratorSpec,
    gen_gaussian_matrix,
    gen_instance,
    gen_sparse_signal,
    gen_sphere_walk,
    make_rng,
)


def test_determinism_bit_identical():
    spec = GeneratorSpec(m=32, n=48, k=5, noise=0.1)
    a = gen_instance(spec, 123)
    b = gen_instance(spec, 123)
    assert np.array_equal(a.a, b.a)
    assert np.array_equal(a.x0, b.x0)
    assert np.array_equal(a.b, b.b)
    assert a.tau == b.tau and a.sigma == b.sigma
    c = gen_instance(spec, 124)
    assert not np.array_equal(a.a, c.a)


def test_gaussian_columns_unit():
    a = gen_gaussian_matrix(20, 30, make_rng(0))
    assert np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) <= 1e-12


@pytest.mark.parametrize("gamma", [1.0, 0.1, 0.01])
def test_sphere_walk_coherence(gamma):
    a = gen_sphere_walk(40, 60, gamma, make_rng(1))
    assert np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) <= 1e-12
    inner = np.sum(a[:, :-1] * a[:, 1:], axis=0)
    assert np.max(np.abs(inner - (1.0 - gamma))) <= 1e-12


def test_sphere_walk_antipodal():
    a = gen_sphere_walk(10, 5, 2.0, make_rng(2))
    for k in range(4):
        assert np.allclose(a[:, k + 1], -a[:, k], atol=1e-12)


def test_sphere_walk_invalid_gamma():
    with pytest.raises(ValueError):
        gen_sphere_walk(10, 5, 2.5, make_rng(0))


@pytest.mark.parametrize("m, n", [(-3, 5), (5, -3)])
def test_negative_matrix_size_rejected(m, n):
    with pytest.raises(ValueError, match="nonnegative"):
        GeneratorSpec(m=m, n=n, k=0)


def test_sphere_walk_needs_two_rows():
    # In one dimension no direction is orthogonal to the current column, so
    # the walk cannot take a step.
    with pytest.raises(ValueError):
        gen_sphere_walk(1, 3, 0.5, make_rng(0))
    with pytest.raises(ValueError):
        GeneratorSpec(m=1, n=3, kind="sphere_walk", gamma=0.5, k=1)
    a = gen_sphere_walk(2, 3, 0.5, make_rng(0))
    assert np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) <= 1e-12


def test_sparse_signal_distributions():
    rng = make_rng(3)
    x = gen_sparse_signal(50, 7, "pm_one", rng)
    nz = x[x != 0]
    assert len(nz) == 7
    assert set(np.unique(nz)) <= {-1.0, 1.0}
    u = gen_sparse_signal(50, 7, "uniform", make_rng(4))
    assert np.all(np.abs(u[u != 0]) <= 1.0)
    g = gen_sparse_signal(50, 7, "gaussian", make_rng(5))
    assert np.count_nonzero(g) == 7
    assert np.count_nonzero(gen_sparse_signal(10, 0, "pm_one", make_rng(6))) == 0


def test_sparse_signal_validation():
    with pytest.raises(ValueError):
        gen_sparse_signal(5, 6, "pm_one", make_rng(0))
    with pytest.raises(ValueError):
        gen_sparse_signal(5, 2, "bogus", make_rng(0))


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="bogus")
    with pytest.raises(ValueError):
        GeneratorSpec(dist="bogus")


def test_instance_construction():
    spec = GeneratorSpec(m=24, n=40, k=4, noise=0.0, tau_mult=0.995,
                         sigma_mult=0.01)
    inst = gen_instance(spec, 9)
    assert np.allclose(inst.b, inst.a @ inst.x0)  # noiseless
    assert inst.tau == pytest.approx(0.995 * np.sum(np.abs(inst.x0)))
    assert inst.sigma == pytest.approx(0.01 * np.linalg.norm(inst.b))
    p = inst.problem()
    assert p.shape == (24, 40)
    assert p.tau == inst.tau


def test_noise_fraction_exact():
    spec = GeneratorSpec(m=24, n=40, k=4, noise=0.05)
    inst = gen_instance(spec, 10)
    clean = inst.a @ inst.x0
    v = inst.b - clean
    assert np.linalg.norm(v) == pytest.approx(0.05 * np.linalg.norm(clean))
