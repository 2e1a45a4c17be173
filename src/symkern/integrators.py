"""Reference and baseline time steppers.

The implicit midpoint rule (Newton on the analytic Hessian) serves as the
high-fidelity micro reference and as the structure-preserving macro
baseline.  One Newton serves the single step and the batched variant,
which advances many initial states at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .systems import HamiltonianSystem, apply_j, jmat

NEWTON_MAX_ITER = 30
NEWTON_TOL_FACTOR = 1e-12


@dataclass
class SolveReport:
    iterations: int
    final_residual_norm: float


@dataclass
class Trajectory:
    """States recorded at every multiple of a fixed step."""

    states: np.ndarray         # (K+1, 2n)
    step: float
    solver_iterations: np.ndarray | None = None

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) * self.step


def _midpoint_matrices(sys, dt: float):
    """Cayley pair for a quadratic system: x+ = solve(I - dt/2 JH, (I + dt/2 JH) x)."""
    A = jmat(sys.n) @ sys.hmat
    eye = np.eye(sys.dim)
    return eye - 0.5 * dt * A, eye + 0.5 * dt * A


def step_count(span, step) -> int | None:
    """The n >= 1 with span = n * step, else None: both n * step within
    1e-9 * max(1, span) of span and span / step within 1e-9 of n."""
    ratio = span / step
    n = round(ratio) if math.isfinite(ratio) else 0
    on_grid = abs(n * step - span) <= 1e-9 * max(1.0, span) and abs(ratio - n) <= 1e-9
    return n if n >= 1 and on_grid else None


def _midpoint_newton(sys: HamiltonianSystem, X, dt: float, tol):
    """Newton jointly over a batch; returns (next states, updates, residuals)."""
    n = sys.n
    eye = np.eye(sys.dim)
    Xn = X.copy()
    for it in range(NEWTON_MAX_ITER):
        mid = 0.5 * (X + Xn)
        F = Xn - X - dt * apply_j(sys.grad_many(mid))
        res = np.max(np.abs(F), axis=1)
        if np.all(res <= tol):
            return Xn, it, res
        # J H for J = [[0, I], [-I, 0]]: the row blocks of H swapped, one negated
        H = sys.hess_many(mid)
        DF = eye[None, :, :] - 0.5 * dt * np.concatenate([H[:, n:], -H[:, :n]], axis=1)
        Xn = Xn - np.linalg.solve(DF, F[:, :, None])[:, :, 0]
    worst = int(np.argmax(res))
    raise NoConvergence(f"midpoint Newton did not converge, row {worst} at residual "
                        f"{res[worst]:.3e}")


def implicit_midpoint_step(sys: HamiltonianSystem, x, dt: float):
    """One implicit midpoint step; returns (next state, solve report).

    Newton on the one-row batch; quadratic systems take one exact solve.
    """
    x = np.asarray(x, dtype=float)
    if sys.quadratic:
        L, R = _midpoint_matrices(sys, dt)
        x_new = np.linalg.solve(L, R @ x)
        # Only the report reads this residual, but perfbench's wave run needs
        # its call into the system for every_exercised_layer_traced (CHANGES.md,
        # FOUND on wave's systems layer): keep it until perfbench v2.
        res = float(np.max(np.abs(x_new - x - dt * apply_j(sys.grad(0.5 * (x + x_new))))))
        return x_new, SolveReport(iterations=1, final_residual_norm=res)
    tol = NEWTON_TOL_FACTOR * (1.0 + np.max(np.abs(x[None, :]), axis=1))
    X, iterations, res = _midpoint_newton(sys, x[None, :], dt, tol)
    return X[0], SolveReport(iterations, float(res[0]))


def compose(step, x0, dt: float, steps: int) -> Trajectory:
    """Iterate step(x) -> (next state, report); record every state and each
    step's solver iterations."""
    x = np.asarray(x0, dtype=float)
    states = np.empty((steps + 1, x.size))
    states[0] = x
    iters = np.zeros(steps + 1, dtype=int)
    for k in range(steps):
        try:
            x, report = step(x)
        except NoConvergence as exc:
            raise NoConvergence(f"step {k}: {exc}") from exc
        states[k + 1] = x
        iters[k + 1] = report.iterations
    return Trajectory(states, dt, solver_iterations=iters)


def propagate(sys: HamiltonianSystem, x0, dt: float, steps: int) -> Trajectory:
    """Iterate the implicit midpoint step and record every state."""
    return compose(lambda x: implicit_midpoint_step(sys, x, dt), x0, dt, steps)


def midpoint_many(sys: HamiltonianSystem, X0, dt: float, steps: int, every=None):
    """Advance a batch of states with the implicit midpoint rule.

    Returns the (M, 2n) final states, or with every=k the
    (steps // k + 1, M, 2n) states at every k-th step, X0 first; k must
    divide steps.  Each row's tolerance comes from its initial state.
    Every row keeps stepping until all rows pass, so a row's bits can
    depend on its batch.
    """
    X = np.asarray(X0, dtype=float).copy()
    if X.ndim != 2:
        raise ValueError("midpoint_many expects an (M, 2n) batch")
    path = None
    if every is not None:
        if every < 1 or steps % every:
            raise ValueError(f"every={every} is not a divisor of steps={steps}")
        path = np.empty((steps // every + 1,) + X.shape)
        path[0] = X
    if sys.quadratic:
        S = np.linalg.solve(*_midpoint_matrices(sys, dt))
        advance = lambda Y: Y @ S.T
    else:
        tol = NEWTON_TOL_FACTOR * (1.0 + np.max(np.abs(X), axis=1))
        advance = lambda Y: _midpoint_newton(sys, Y, dt, tol)[0]
    for k in range(steps):
        try:
            X = advance(X)
        except NoConvergence as exc:
            raise NoConvergence(f"step {k}: {exc}") from exc
        if path is not None and (k + 1) % every == 0:
            path[(k + 1) // every] = X
    return X if path is None else path
