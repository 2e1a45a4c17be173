"""Implicit symplectic kernel predictor.

One macro step maps x0 = (q0, p0) to (Q, P) through the learned potential s:

    P = p0 - dT * ds/dq (q0, P)      (implicit, momentum block only)
    Q = q0 + dT * ds/dp (q0, P)      (explicit)

This is the symplectic Euler update of the Hamiltonian s with step dT, so
the map is symplectic by construction regardless of how well s was fitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptySample, NoConvergence
from .integrators import SolveReport, Trajectory, compose
from .kernels import LONG_EPS, mixed2_self
from .linalg import sym_eigen
from .surrogate import Surrogate
from .systems import jmat

FIXED_POINT_MAX = 60
NEWTON_MAX = 25
DEFAULT_TOL_FACTOR = 1e-11
# fall back to Newton when one sweep shrinks the residual by less than 10%
STALL_RATIO = 0.9


@dataclass
class PredictorModel:
    surrogate: Surrogate
    delta_t: float

    def __post_init__(self):
        if self.surrogate.dim % 2 != 0:
            raise DimensionMismatch("surrogate dimension must be even")
        if not self.delta_t > 0:
            raise ValueError("delta_t must be positive")

    @property
    def n(self) -> int:
        return self.surrogate.dim // 2

    @cached_property
    def gradient_noise_floor(self) -> float:
        """Rounding-noise bound for one gradient evaluation.

        Expansions with large cancelling coefficients cannot be evaluated
        below eps * sum|c| * (term scale); solves are floored there.  The
        predictor evaluates gradients with extended-precision accumulation,
        so the relevant eps is LONG_EPS.
        """
        s = self.surrogate
        if s.size == 0:
            return 0.0
        scale = max(1.0, mixed2_self(s.kernel))
        return float(LONG_EPS * np.sum(np.abs(s.coeffs)) * scale)


def _momentum_jacobian(s: Surrogate, q0, p, h: float):
    """Central-difference Jacobian of P -> ds/dq (q0, P) at P = p."""
    n = p.size
    M = np.empty((n, n))
    for j in range(n):
        dp = np.zeros(n)
        dp[j] = h
        gp = s.gradient_precise(np.concatenate([q0, p + dp]))[:n]
        gm = s.gradient_precise(np.concatenate([q0, p - dp]))[:n]
        M[:, j] = (gp - gm) / (2 * h)
    return M


def _solve_momentum(model: PredictorModel, q0, p0, p_start, tol):
    """Fixed-point sweeps on the momentum block from p_start, Newton once a
    sweep stalls, both until the residual is at most tol.

    Returns (P, gradient of s at (q0, P), gradient evaluations, residual,
    gradient at (q0, p_start)); a residual above tol means the solve stalled.
    """
    s, dt, n = model.surrogate, model.delta_t, model.n

    def evaluate(P_):
        """(gradient at (q0, P_), residual vector, its max norm)."""
        g_ = s.gradient_precise(np.concatenate([q0, P_]))
        F_ = p0 - dt * g_[:n] - P_
        return g_, F_, float(np.max(np.abs(F_)))

    P = p_start
    g, F, res = evaluate(P)
    evals, g_start, prev = 1, g, np.inf
    for _ in range(FIXED_POINT_MAX):
        if res <= tol or res > STALL_RATIO * prev:
            break
        prev = res
        P = P + F
        g, F, res = evaluate(P)
        evals += 1
    # Newton on the momentum block with a finite-difference Jacobian
    for _ in range(NEWTON_MAX):
        if res <= tol:
            break
        JF = -dt * _momentum_jacobian(s, q0, P, 1e-7) - np.eye(n)
        P = P - np.linalg.solve(JF, F)
        g, F, res = evaluate(P)
        evals += 2 * n + 1          # the Jacobian's 2n evaluations and this one
    return P, g, evals, res, g_start


def predict_step(model: PredictorModel, x0, tol_factor: float = DEFAULT_TOL_FACTOR):
    """One macro step of the kernel predictor; returns (state, report).

    The momentum solve stops at max(tol_factor (1 + max|p0|), dT * gradient
    noise floor).  A solve that stalls is restarted once from the explicit
    guess p0 - dT ds/dq(q0, p0); NoConvergence when that one stalls too.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.surrogate.dim,):
        raise DimensionMismatch(f"state shape {x0.shape} != ({model.surrogate.dim},)")
    n, dt = model.n, model.delta_t
    q0, p0 = x0[:n], x0[n:]
    if model.surrogate.size == 0:
        return x0.copy(), SolveReport(iterations=0, final_residual_norm=0.0)
    tol = max(tol_factor * (1.0 + np.max(np.abs(p0), initial=0.0)),
              dt * model.gradient_noise_floor)
    P, g, evals, res, g_start = _solve_momentum(model, q0, p0, p0, tol)
    if not res <= tol:                  # a NaN residual stalls too
        P, g, more, res, _ = _solve_momentum(model, q0, p0, p0 - dt * g_start[:n], tol)
        evals += more
        if not res <= tol:
            raise NoConvergence(f"momentum solve stalled at residual {res:.3e} (tol {tol:.3e})")
    Q = q0 + dt * g[n:]
    return np.concatenate([Q, P]), SolveReport(evals, res)


def rollout(model: PredictorModel, x0, num_steps: int) -> Trajectory:
    """Compose macro steps; the composition stays symplectic."""
    return compose(lambda x: predict_step(model, x), x0, model.delta_t, num_steps)


def symplecticity_defect(model: PredictorModel, x0, fd_step: float = 1e-6) -> float:
    """Max-entry norm of D'JD - J for the finite-difference Jacobian D.

    The inner solves run at a tightened tolerance so that solver noise
    stays well below the finite-difference scale.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    D = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = fd_step
        up, down = x0 + e, x0 - e
        xp, _ = predict_step(model, up, tol_factor=1e-13)
        xm, _ = predict_step(model, down, tol_factor=1e-13)
        # divide by the realized spacing so the identity map differences
        # exactly
        D[:, j] = (xp - xm) / (up[j] - down[j])
    J = jmat(d // 2)
    return float(np.max(np.abs(D.T @ J @ D - J)))


def contraction_margin(model: PredictorModel, region_sample) -> float:
    """dT times the sampled Lipschitz bound of P -> ds/dq (q0, P).

    The fixed-point solve is certified to converge where this is < 1.
    """
    sample = np.atleast_2d(np.asarray(region_sample, dtype=float))
    if sample.size == 0:
        raise EmptySample("contraction_margin needs at least one state")
    if model.surrogate.size == 0:
        return 0.0
    n = model.n
    worst = 0.0
    for x in sample:
        M = _momentum_jacobian(model.surrogate, x[:n], x[n:], 1e-6)
        w, _ = sym_eigen(M.T @ M)
        worst = max(worst, float(np.sqrt(max(w[0], 0.0))))
    return model.delta_t * worst
