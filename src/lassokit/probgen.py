"""Reproducible test-problem generation.

All randomness flows through a counter-based Philox generator keyed by a
64-bit seed, so instances are bit-identical across platforms and runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .model import DenseOperator, LassoProblem

SIGNAL_DISTS = ("pm_one", "uniform", "gaussian")
MATRIX_KINDS = ("gaussian", "sphere_walk")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def gen_gaussian_matrix(m: int, n: int, rng: np.random.Generator) -> NDArray:
    """i.i.d. normal entries with unit-normalized columns."""
    a = rng.normal(size=(m, n))
    return a / np.linalg.norm(a, axis=0)


def gen_sphere_walk(m: int, n: int, gamma: float,
                    rng: np.random.Generator) -> NDArray:
    """Unit columns walking on the sphere: <a_k, a_k+1> = 1 - gamma.

    Small gamma yields highly coherent columns; gamma = 1 is a memoryless
    walk and gamma = 2 alternates antipodal points.  Needs m >= 2: in one
    dimension no unit vector is orthogonal to the current column.
    """
    if m < 2:
        raise ValueError(f"sphere walk needs m >= 2, got {m}")
    if not 0.0 <= gamma <= 2.0:
        raise ValueError("gamma must lie in [0, 2]")
    a = np.empty((m, n))
    col = rng.normal(size=m)
    col /= np.linalg.norm(col)
    a[:, 0] = col
    rad = np.sqrt(max(1.0 - (1.0 - gamma) ** 2, 0.0))
    for k in range(1, n):
        while True:
            v = rng.normal(size=m)
            v -= (v @ col) * col
            nv = np.linalg.norm(v)
            if nv > 1e-12:
                break
        col = (1.0 - gamma) * col + rad * (v / nv)
        col /= np.linalg.norm(col)
        a[:, k] = col
    return a


def gen_sparse_signal(n: int, k: int, dist: str,
                      rng: np.random.Generator) -> NDArray:
    if not 0 <= k <= n:
        raise ValueError(f"sparsity {k} out of range for length {n}")
    if dist not in SIGNAL_DISTS:
        raise ValueError(f"unknown signal distribution {dist!r}")
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    if dist == "pm_one":
        vals = rng.choice([-1.0, 1.0], size=k)
    elif dist == "uniform":
        vals = rng.uniform(-1.0, 1.0, size=k)
    else:
        vals = rng.normal(size=k)
    x[support] = vals
    return x


@dataclass
class GeneratorSpec:
    m: int = 256
    n: int = 512
    kind: str = "gaussian"
    gamma: float = 0.01  # sphere-walk coherence parameter
    k: int = 20
    dist: str = "pm_one"
    noise: float = 0.0  # ||v|| as a fraction of ||A x0||
    tau_mult: float = 0.995
    sigma_mult: float = 0.01

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"matrix sizes must be nonnegative, got m={self.m}, n={self.n}")
        if self.kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if self.dist not in SIGNAL_DISTS:
            raise ValueError(f"unknown signal distribution {self.dist!r}")
        if self.kind == "sphere_walk" and not 0.0 < self.gamma <= 2.0:
            raise ValueError("gamma must lie in (0, 2] for sphere_walk")
        if self.kind == "sphere_walk" and self.m < 2:
            raise ValueError(f"sphere_walk needs m >= 2, got {self.m}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"sparsity {self.k} out of range for n={self.n}")
        if self.noise < 0 or self.tau_mult < 0 or self.sigma_mult < 0:
            raise ValueError("noise, tau_mult, sigma_mult must be nonnegative")


@dataclass
class Instance:
    a: NDArray
    x0: NDArray
    b: NDArray
    tau: float
    sigma: float
    seed: int

    def problem(self, mu: float = 0.0) -> LassoProblem:
        return LassoProblem(op=DenseOperator(self.a), b=self.b, tau=self.tau,
                            mu=mu)


def gen_instance(spec: GeneratorSpec, seed: int) -> Instance:
    rng = make_rng(seed)
    if spec.kind == "gaussian":
        a = gen_gaussian_matrix(spec.m, spec.n, rng)
    else:
        a = gen_sphere_walk(spec.m, spec.n, spec.gamma, rng)
    x0 = gen_sparse_signal(spec.n, spec.k, spec.dist, rng)
    clean = a @ x0
    b = clean.copy()
    if spec.noise > 0:
        v = rng.normal(size=spec.m)
        v *= spec.noise * np.linalg.norm(clean) / np.linalg.norm(v)
        b += v
    tau = spec.tau_mult * float(np.sum(np.abs(x0)))
    sigma = spec.sigma_mult * float(np.linalg.norm(b))
    return Instance(a=a, x0=x0, b=b, tau=tau, sigma=sigma, seed=seed)
