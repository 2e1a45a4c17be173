"""Benchmark Hamiltonian systems: energy, gradient, Hessian, and the
computable step-size / resonance diagnostics for the mixed-variable chart.

States are flat arrays x = (q, p) of length 2n; batched variants accept
(M, 2n) arrays and are used heavily by data generation.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptySample, NotQuadratic
from .linalg import as_matrix, expm, sym_eigen

# Largest chain n or wave n_grid a config may ask for.  The wave keeps dense
# 2n x 2n matrices, 32 MB each at this size, which is the paper's n_grid.
MAX_DOF = 1000


def jmat(n: int):
    """Canonical Poisson matrix [[0, I], [-I, 0]] of size 2n."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def apply_j(X):
    """J x for one state or a batch: (q, p) -> (p, -q)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[-1] // 2
    return np.concatenate([X[..., n:], -X[..., :n]], axis=-1)


class HamiltonianSystem:
    """Common interface.  Subclasses implement energy_many, grad_many and
    hess_many of (M, 2n) arrays, and hess_bound(sample), a bound on the
    Hessian spectral norm over the box of an (M, 2n) sample."""

    name = "generic"
    n = 0                      # degrees of freedom
    quadratic = False          # True for H(x) = x' H x / 2, whose Hessian is constant

    @property
    def dim(self) -> int:
        return 2 * self.n

    def _check(self, X):
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.dim:
            raise DimensionMismatch(f"{self.name}: state dim {X.shape[-1]} != {self.dim}")
        return X

    def energy(self, x) -> float:
        return float(self.energy_many(self._check(x)[None, :])[0])

    def grad(self, x):
        return self.grad_many(self._check(x)[None, :])[0]

    def hess(self, x):
        return self.hess_many(self._check(x)[None, :])[0]


class Pendulum(HamiltonianSystem):
    """Planar pendulum, H = p^2 / (2 m l^2) + m g l (1 - cos q)."""

    name = "pendulum"
    n = 1

    def __init__(self, mass=1.0, length=1.0, gravity=9.81):
        self.mass = float(mass)
        self.length = float(length)
        self.gravity = float(gravity)
        self._ml2 = self.mass * self.length**2
        self._mgl = self.mass * self.gravity * self.length

    def energy_many(self, X):
        X = self._check(X)
        q, p = X[:, 0], X[:, 1]
        return p**2 / (2 * self._ml2) + self._mgl * (1 - np.cos(q))

    def grad_many(self, X):
        X = self._check(X)
        q, p = X[:, 0], X[:, 1]
        return np.stack([self._mgl * np.sin(q), p / self._ml2], axis=1)

    def hess_many(self, X):
        X = self._check(X)
        M = X.shape[0]
        H = np.zeros((M, 2, 2))
        H[:, 0, 0] = self._mgl * np.cos(X[:, 0])
        H[:, 1, 1] = 1.0 / self._ml2
        return H

    def hess_bound(self, sample) -> float:
        """Analytic sup of the Hessian spectral norm (|cos| <= 1)."""
        return max(self._mgl, 1.0 / self._ml2)


def chain_elongation_matrix(n: int):
    """(n+1) x n map from displacements to spring elongations.

    Virtual wall nodes are built in: row 0 reads q_1, interior rows read
    q_{i+1} - q_i, the last row reads -q_n.
    """
    B = np.zeros((n + 1, n))
    for i in range(n):
        B[i, i] = 1.0
        B[i + 1, i] = -1.0
    return B


class Chain(HamiltonianSystem):
    """Spring-mass chain with fixed ends and identical quartic springs.

    All masses are 1; each spring carries f(d) = alpha d^2/2 + beta d^4/4.
    """

    name = "chain"

    def __init__(self, n=3, alpha=1.0, beta=0.25):
        self.n = int(n)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.B = chain_elongation_matrix(self.n)

    def energy_many(self, X):
        X = self._check(X)
        q, p = X[:, : self.n], X[:, self.n:]
        d = q @ self.B.T
        V = np.sum(0.5 * self.alpha * d**2 + 0.25 * self.beta * d**4, axis=1)
        return 0.5 * np.sum(p**2, axis=1) + V

    def grad_many(self, X):
        X = self._check(X)
        q, p = X[:, : self.n], X[:, self.n:]
        d = q @ self.B.T
        sigma = self.alpha * d + self.beta * d**3
        return np.concatenate([sigma @ self.B, p], axis=1)

    def hess_many(self, X):
        X = self._check(X)
        M = X.shape[0]
        d = X[:, : self.n] @ self.B.T
        w = self.alpha + 3.0 * self.beta * d**2            # (M, n+1)
        H = np.zeros((M, self.dim, self.dim))
        H[:, : self.n, : self.n] = np.einsum("ki,mk,kj->mij", self.B, w, self.B)
        H[:, self.n:, self.n:] = np.eye(self.n)
        return H

    def hess_bound(self, sample) -> float:
        """Gershgorin bound on ||B||_2^2 (from the tridiagonal B'B) times the
        stiffest spring at the largest elongation over the sample's q-box;
        at least 1, the kinetic block's norm."""
        q = sample[:, : self.n]
        amax = np.maximum(np.abs(q.min(axis=0)), np.abs(q.max(axis=0)))
        d_sup = float(np.max(np.abs(self.B) @ amax))
        b_norm_sq = float(np.max(np.sum(np.abs(self.B.T @ self.B), axis=1)))
        return max(1.0, b_norm_sq * (self.alpha + 3.0 * self.beta * d_sup**2))


class Quadratic(HamiltonianSystem):
    """H(x) = x' H x / 2 for a symmetric matrix H."""

    name = "quadratic"
    quadratic = True

    def __init__(self, hmat):
        H = as_matrix(hmat, square=True, name="hmat")
        if H.shape[0] % 2 != 0:
            raise DimensionMismatch("quadratic form must act on an even-dimensional space")
        if np.max(np.abs(H - H.T)) > 1e-12 * max(1.0, np.max(np.abs(H))):
            raise ValueError("quadratic form matrix must be symmetric")
        self.hmat = 0.5 * (H + H.T)
        self.n = H.shape[0] // 2

    def energy_many(self, X):
        X = self._check(X)
        return 0.5 * np.einsum("mi,ij,mj->m", X, self.hmat, X)

    def grad_many(self, X):
        X = self._check(X)
        return X @ self.hmat

    def hess_many(self, X):
        X = self._check(X)
        return np.broadcast_to(self.hmat, (X.shape[0],) + self.hmat.shape).copy()

    def hess_bound(self, sample) -> float:
        """The constant Hessian's exact spectral norm."""
        w, _ = sym_eigen(self.hmat)
        return float(np.max(np.abs(w)))


def wave_laplacian(n_grid: int, length: float = 1.0):
    """3-point stencil matrix for -d2/dz2 with homogeneous Dirichlet ends."""
    h = length / (n_grid + 1)
    D = np.zeros((n_grid, n_grid))
    np.fill_diagonal(D, 2.0)
    idx = np.arange(n_grid - 1)
    D[idx, idx + 1] = -1.0
    D[idx + 1, idx] = -1.0
    return D / h**2


class Wave(Quadratic):
    """Semi-discrete 1-d wave equation on (0, L) with Dirichlet ends."""

    name = "wave"

    def __init__(self, n_grid=1000, wave_speed=0.3, length=1.0):
        self.n_grid = int(n_grid)
        self.wave_speed = float(wave_speed)
        self.length = float(length)
        self.d_xx = wave_laplacian(self.n_grid, self.length)
        hmat = np.zeros((2 * self.n_grid, 2 * self.n_grid))
        hmat[: self.n_grid, : self.n_grid] = self.wave_speed**2 * self.d_xx
        hmat[self.n_grid:, self.n_grid:] = np.eye(self.n_grid)
        super().__init__(hmat)
        self.name = "wave"

    def sine_mode(self, k: int):
        """Discrete unit-amplitude sine mode on the interior grid."""
        i = np.arange(1, self.n_grid + 1)
        return np.sin(k * np.pi * i / (self.n_grid + 1))

    def sine_snapshots(self, modes: int):
        """States (sine_mode(a), sine_mode(b)) for a, b = 1..modes, a major."""
        return np.stack([np.concatenate([self.sine_mode(a), self.sine_mode(b)])
                         for a in range(1, modes + 1) for b in range(1, modes + 1)])


def step_size_bound(sys: HamiltonianSystem, domain_sample, horizon: float) -> float:
    """Largest certified macro step min(T, log 2 / L) for the mixed chart.

    L bounds the Hessian spectral norm over the sample's bounding box
    (the system's hess_bound).
    """
    sample = np.atleast_2d(np.asarray(domain_sample, dtype=float))
    if sample.size == 0:
        raise EmptySample("step_size_bound needs at least one state")
    if sample.shape[1] != sys.dim:
        raise DimensionMismatch(f"sample dim {sample.shape[1]} != {sys.dim}")
    lips = sys.hess_bound(sample)
    if lips == 0.0:
        return float(horizon)
    return float(min(horizon, np.log(2.0) / lips))


def resonance_check(sys: HamiltonianSystem, delta_t: float):
    """Determinant of the lower-right flow block for a quadratic system.

    Returns (det D, resonant flag); the mixed-variable chart degenerates
    exactly where det D(delta_t) = 0.
    """
    if not sys.quadratic:
        raise NotQuadratic("resonance_check requires a quadratic Hamiltonian")
    n = sys.n
    M = expm(delta_t * (jmat(n) @ sys.hmat))
    det_d = float(np.linalg.det(M[n:, n:]))
    return det_d, bool(abs(det_d) < 1e-10)
