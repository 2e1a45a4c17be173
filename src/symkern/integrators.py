"""Reference and baseline time steppers.

The implicit midpoint rule (Newton on the analytic Hessian) serves as the
high-fidelity micro reference and as the structure-preserving macro
baseline.  The batched variant advances many initial states at once and
runs through the same update map.
"""

from __future__ import annotations

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
    converged: bool


@dataclass
class Trajectory:
    """States recorded at every multiple of a fixed step."""

    times: np.ndarray          # (K+1,)
    states: np.ndarray         # (K+1, 2n)
    step: float
    solver_iterations: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    def final(self):
        return self.states[-1]


def _midpoint_matrices(sys, dt: float):
    """Cayley pair for a quadratic system: x+ = solve(I - dt/2 JH, (I + dt/2 JH) x)."""
    A = jmat(sys.n) @ sys.hmat
    eye = np.eye(sys.dim)
    return eye - 0.5 * dt * A, eye + 0.5 * dt * A


def implicit_midpoint_step(sys: HamiltonianSystem, x, dt: float):
    """One implicit midpoint step; returns (next state, solve report).

    Newton iteration on the analytic Hessian, with step-halving fallback
    when a full step does not reduce the residual.  Quadratic systems are
    advanced by a single exact linear solve.
    """
    x = np.asarray(x, dtype=float)
    tol = NEWTON_TOL_FACTOR * (1.0 + np.max(np.abs(x), initial=0.0))
    if sys.quadratic:
        L, R = _midpoint_matrices(sys, dt)
        x_new = np.linalg.solve(L, R @ x)
        res = float(np.max(np.abs(x_new - x - dt * apply_j(sys.grad(0.5 * (x + x_new))))))
        return x_new, SolveReport(iterations=1, final_residual_norm=res, converged=res <= tol)

    def residual(xn):
        return xn - x - dt * apply_j(sys.grad(0.5 * (x + xn)))

    x_new = x.copy()
    F = residual(x_new)
    res = float(np.max(np.abs(F)))
    eye = np.eye(sys.dim)
    J = jmat(sys.n)
    for it in range(1, NEWTON_MAX_ITER + 1):
        if res <= tol:
            return x_new, SolveReport(iterations=it - 1, final_residual_norm=res, converged=True)
        DF = eye - 0.5 * dt * (J @ sys.hess(0.5 * (x + x_new)))
        delta = np.linalg.solve(DF, F)
        scale = 1.0
        for _ in range(8):
            cand = x_new - scale * delta
            F_cand = residual(cand)
            res_cand = float(np.max(np.abs(F_cand)))
            if res_cand < res or res <= tol:
                break
            scale *= 0.5
        x_new, F, res = cand, F_cand, res_cand
    if res <= tol:
        return x_new, SolveReport(NEWTON_MAX_ITER, res, True)
    raise NoConvergence(
        f"implicit midpoint Newton stalled at residual {res:.3e} (tol {tol:.3e})"
    )


def propagate(sys: HamiltonianSystem, x0, dt: float, steps: int) -> Trajectory:
    """Iterate the implicit midpoint step and record every state."""
    x = np.asarray(x0, dtype=float)
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for k in range(steps):
        try:
            x, _ = implicit_midpoint_step(sys, x, dt)
        except NoConvergence as exc:
            raise NoConvergence(f"step {k}: {exc}") from exc
        out[k + 1] = x
    return Trajectory(times=np.arange(steps + 1) * dt, states=out, step=dt)


def midpoint_many(sys: HamiltonianSystem, X0, dt: float, steps: int,
                  keep_path: bool = False):
    """Advance a batch of states with the implicit midpoint rule.

    Returns the (M, 2n) final states, or the full (steps+1, M, 2n) path
    when keep_path is set.  Newton runs jointly over the batch (converged
    rows are stationary), with per-row tolerances.
    """
    X = np.asarray(X0, dtype=float).copy()
    if X.ndim != 2:
        raise ValueError("midpoint_many expects an (M, 2n) batch")
    path = np.empty((steps + 1,) + X.shape) if keep_path else None
    if keep_path:
        path[0] = X
    if sys.quadratic:
        L, R = _midpoint_matrices(sys, dt)
        S = np.linalg.solve(L, R)
        for k in range(steps):
            X = X @ S.T
            if keep_path:
                path[k + 1] = X
        return path if keep_path else X

    J = jmat(sys.n)
    eye = np.eye(sys.dim)
    tol = NEWTON_TOL_FACTOR * (1.0 + np.max(np.abs(X), axis=1))
    for k in range(steps):
        Xn = X.copy()
        for it in range(NEWTON_MAX_ITER):
            mid = 0.5 * (X + Xn)
            F = Xn - X - dt * apply_j(sys.grad_many(mid))
            res = np.max(np.abs(F), axis=1)
            if np.all(res <= tol):
                break
            DF = eye[None, :, :] - 0.5 * dt * np.einsum("ij,mjk->mik", J, sys.hess_many(mid))
            Xn = Xn - np.linalg.solve(DF, F[:, :, None])[:, :, 0]
        else:
            worst = int(np.argmax(res))
            raise NoConvergence(f"batched midpoint stalled at step {k}, sample {worst}")
        X = Xn
        if keep_path:
            path[k + 1] = X
    return path if keep_path else X
