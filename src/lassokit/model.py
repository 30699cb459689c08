"""Problem containers, operator abstraction, and objective evaluation.

The objective is f(x) = 0.5*||Ax - b||^2 + 0.5*mu*||x||^2 + c'x minimized
over the weighted one-norm ball of radius tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .ball import FaceId, face_of


class DimensionMismatchError(ValueError):
    """Raised when vector or operator dimensions disagree."""


class LinearOperator:
    """Matrix-free linear operator with forward, adjoint, and column access.

    `forward_products` and `adjoint_products` count the products it has
    formed; a column read without a column callable is a forward product.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        apply: Callable[[NDArray], NDArray],
        apply_adjoint: Callable[[NDArray], NDArray],
        column: Callable[[int], NDArray] | None = None,
    ):
        self.shape = shape
        self._apply = apply
        self._adjoint = apply_adjoint
        self._column = column
        self.forward_products = 0
        self.adjoint_products = 0

    def apply(self, x: NDArray) -> NDArray:
        if len(x) != self.shape[1]:
            raise DimensionMismatchError(
                f"operator expects length {self.shape[1]}, got {len(x)}"
            )
        self.forward_products += 1
        return self._apply(x)

    def apply_adjoint(self, y: NDArray) -> NDArray:
        if len(y) != self.shape[0]:
            raise DimensionMismatchError(
                f"adjoint expects length {self.shape[0]}, got {len(y)}"
            )
        self.adjoint_products += 1
        return self._adjoint(y)

    def column(self, i: int) -> NDArray:
        if self._column is not None:
            return self._column(i)
        e = np.zeros(self.shape[1])
        e[i] = 1.0
        self.forward_products += 1
        return self._apply(e)

    def __matmul__(self, x: NDArray) -> NDArray:
        return self.apply(x)


class DenseOperator(LinearOperator):
    """Operator backed by a dense ndarray of finite entries."""

    def __init__(self, a: NDArray):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatchError("dense operator requires a 2-d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("A has a non-finite entry")
        self.a = a
        super().__init__(
            a.shape,
            lambda x: a @ x,
            lambda y: a.T @ y,
            lambda i: a[:, i],
        )


@dataclass
class LassoProblem:
    """Quadratic objective over a weighted one-norm ball of radius tau.

    `b`, `w` and `c` are held as read-only copies, so the facts derived from
    them once stay true: `ball_w` is the weights as the ball kernels take
    them, None when every weight is one, and `zero_c` says that c is zero.
    Assigning one of the three fields again stores a new copy and derives
    the facts again.
    """

    op: LinearOperator
    b: NDArray
    tau: float
    w: NDArray | None = None
    mu: float = 0.0
    c: NDArray | None = None

    def __setattr__(self, name: str, value) -> None:
        if name in ("b", "w", "c") and value is not None:
            value = np.array(value, dtype=float)
            value.setflags(write=False)
            if name == "w":
                object.__setattr__(self, "ball_w",
                                   None if np.all(value == 1.0) else value)
            elif name == "c":
                object.__setattr__(self, "zero_c", not np.any(value))
        object.__setattr__(self, name, value)

    def __post_init__(self):
        m, n = self.op.shape
        if len(self.b) != m:
            raise DimensionMismatchError(f"b has length {len(self.b)}, expected {m}")
        if self.w is None:
            self.w = np.ones(n)
        else:
            if len(self.w) != n:
                raise DimensionMismatchError(f"w has length {len(self.w)}, expected {n}")
            if np.any(self.w <= 0):
                raise ValueError("weights must be strictly positive")
        if self.c is None:
            self.c = np.zeros(n)
        elif len(self.c) != n:
            raise DimensionMismatchError(f"c has length {len(self.c)}, expected {n}")
        for name in ("b", "w", "c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has a non-finite entry")
        if not (np.isfinite(self.tau) and np.isfinite(self.mu)):
            raise ValueError("tau and mu must be finite")
        if self.tau < 0:
            raise ValueError("radius tau must be nonnegative")
        if self.mu < 0:
            raise ValueError("quadratic regularizer mu must be nonnegative")

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape


_UNSET = object()


@dataclass
class Iterate:
    """Point with its residual r = Ax - b and value f.

    The gradient is formed on first read, so a rejected trial point never
    pays for an adjoint product.  The face is classified on first read too:
    the projected-gradient method never reads one.
    """

    x: NDArray
    r: NDArray
    f: float
    problem: LassoProblem
    _g: NDArray | None = field(default=None, init=False, repr=False, compare=False)
    _face: object = field(default=_UNSET, init=False, repr=False, compare=False)

    @property
    def g(self) -> NDArray:
        """A'r + mu*x + c."""
        g = self._g
        if g is None:
            p = self.problem
            g = p.op.apply_adjoint(self.r)
            if not p.zero_c:
                g = g + p.c
            if p.mu > 0:
                g = g + p.mu * self.x
            self._g = g
        return g

    @property
    def face(self) -> FaceId | None:
        face = self._face
        if face is _UNSET:
            p = self.problem
            face = self._face = face_of(self.x, p.w, p.tau) if p.tau > 0 else None
        return face


def objective_value(problem: LassoProblem, x: NDArray,
                    r: NDArray | None = None) -> tuple[float, NDArray]:
    """Objective and residual at x; one forward product unless r = Ax - b is given."""
    if r is None:
        r = problem.op.apply(x) - problem.b
    f = 0.5 * float(r @ r)
    if not problem.zero_c:
        f += float(problem.c @ x)
    if problem.mu > 0:
        f += 0.5 * problem.mu * float(x @ x)
    return f, r


def evaluate(problem: LassoProblem, x: NDArray, r: NDArray | None = None) -> Iterate:
    """Iterate at x: residual and value; one forward product unless r is given."""
    x = np.asarray(x, dtype=float)
    f, r = objective_value(problem, x, r)
    return Iterate(x=x, r=r, f=f, problem=problem)


class RayObjective:
    """Objective along x + alpha*d: f = c0 + alpha*c1 + alpha^2*c2.

    Every line search reads its step from here.  `ad` is the product A d,
    formed here unless given, so the residual at x + alpha*d is r + alpha*ad;
    r = Ax - b is formed unless given.  No search reads c0 = f(x), so it is
    formed on first read.  Terms of a zero mu or c are left out.
    """

    def __init__(self, problem: LassoProblem, x: NDArray, d: NDArray,
                 r: NDArray | None = None, ad: NDArray | None = None):
        self._problem, self._x = problem, x
        self._r = r = problem.op.apply(x) - problem.b if r is None else r
        self.ad = ad = problem.op.apply(d) if ad is None else ad
        self._c0 = None
        c2, c1 = float(ad @ ad), float(r @ ad)
        if problem.mu > 0:
            c2 += problem.mu * float(d @ d)
            c1 += problem.mu * float(x @ d)
        if not problem.zero_c:
            c1 += float(problem.c @ d)
        self.c2, self.c1 = 0.5 * c2, c1

    @property
    def c0(self) -> float:
        if self._c0 is None:
            self._c0 = objective_value(self._problem, self._x, self._r)[0]
        return self._c0

    def __call__(self, alpha: float) -> float:
        return self.c0 + alpha * (self.c1 + alpha * self.c2)

    def derivative(self, alpha: float) -> float:
        return self.c1 + 2.0 * alpha * self.c2

    def minimizer(self, slope: float) -> float:
        """Minimizer -slope/(2*c2) given the slope at alpha = 0; inf when c2 <= 0."""
        return -slope / (2.0 * self.c2) if self.c2 > 0 else np.inf


@dataclass
class SolverOptions:
    """Settings shared by the projected-gradient and hybrid solvers.

    The method's fixed constants live beside the code that reads them, in
    `solver.py` and `linesearch.py`.
    """

    opt_tol: float = 1e-6
    max_iter: int | None = None  # defaults to 10*m at solve time
    line_search_mode: str = "backtracking"  # or "trajectory"
    trace: bool = False

    def __post_init__(self):
        if not self.opt_tol >= 0:  # also rejects NaN, which no gap satisfies
            raise ValueError(f"opt_tol must be nonnegative, got {self.opt_tol!r}")
        if self.max_iter is not None and not (
                isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 0):
            raise ValueError(
                f"max_iter must be a nonnegative integer, got {self.max_iter!r}")
        if self.line_search_mode not in ("backtracking", "trajectory"):
            raise ValueError(f"unknown line_search_mode {self.line_search_mode!r}")
