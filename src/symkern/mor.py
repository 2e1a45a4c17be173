"""Structure-preserving model order reduction via the complex SVD.

Snapshots (Q, P) are paired into Y = Q + iP; the left singular vectors of
Y, obtained from the small Hermitian Gram eigenproblem, produce a real
basis V = [[Re U, -Im U], [Im U, Re U]] that is symplectic whenever the
columns of U are orthonormal in C^N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotQuadratic, RankDeficient, TooManySnapshots
from .linalg import max_abs, sym_eigen
from .systems import Quadratic, jmat

MAX_SNAPSHOTS = 64
SYMPLECTIC_TOL = 1e-10
RANK_TOL = 1e-12


@dataclass
class ReducedBasis:
    """Symplectic basis with its symplectic inverse."""

    v: np.ndarray              # (2N, 2n)

    @property
    def full_n(self) -> int:
        return self.v.shape[0] // 2

    @property
    def reduced_n(self) -> int:
        return self.v.shape[1] // 2

    @cached_property
    def v_plus(self) -> np.ndarray:
        """The (2n, 2N) symplectic inverse J_n' V' J_N."""
        return jmat(self.reduced_n).T @ self.v.T @ jmat(self.full_n)

    def restrict(self, x):
        """Reduced coordinates of full states (last axis of length 2N)."""
        return np.asarray(x, dtype=float) @ self.v_plus.T

    def lift(self, z):
        """Full states from reduced coordinates (last axis of length 2n)."""
        return np.asarray(z, dtype=float) @ self.v.T

    def symplecticity_defect(self) -> float:
        return max_abs(self.v.T @ jmat(self.full_n) @ self.v - jmat(self.reduced_n))


def csvd_basis(Q, P, reduced_n: int) -> ReducedBasis:
    """Symplectic basis from N x M snapshot blocks Q and P.

    The dominant reduced_n complex modes are computed through the M x M
    Hermitian Gram eigenproblem of Y = Q + iP, then re-orthonormalized to
    scrub roundoff before assembling the real basis (2N x 2*reduced_n).
    """
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    if Q.shape != P.shape or Q.ndim != 2:
        raise DimensionMismatch(f"snapshot blocks must share a 2-d shape: {Q.shape} vs {P.shape}")
    N, M = Q.shape
    if M > MAX_SNAPSHOTS:
        raise TooManySnapshots(f"{M} snapshots exceed the Gram-route limit {MAX_SNAPSHOTS}")
    if not (1 <= reduced_n <= min(M, N)):
        raise DimensionMismatch(f"reduced_n={reduced_n} outside [1, min(M, N)={min(M, N)}]")
    Y = Q + 1j * P
    w, W = sym_eigen(Y.conj().T @ Y)
    sigma = np.sqrt(np.clip(w, 0.0, None))
    if sigma[0] == 0.0 or sigma[reduced_n - 1] <= RANK_TOL * sigma[0]:
        raise RankDeficient(
            f"snapshot rank below requested {reduced_n} (singular values {sigma[:reduced_n]})"
        )
    U = (Y @ W[:, :reduced_n]) / sigma[:reduced_n]
    # modified Gram-Schmidt pass: U is orthonormal up to roundoff for well
    # separated singular values, exactly orthonormal after this either way
    for j in range(reduced_n):
        for k in range(j):
            U[:, j] -= (U[:, k].conj() @ U[:, j]) * U[:, k]
        nrm = np.linalg.norm(U[:, j])
        if nrm <= RANK_TOL:
            raise RankDeficient(f"mode {j} collapsed during orthonormalization")
        U[:, j] /= nrm
    basis = ReducedBasis(np.block([[U.real, -U.imag], [U.imag, U.real]]))
    defect = basis.symplecticity_defect()
    if defect > SYMPLECTIC_TOL:
        raise RankDeficient(f"basis failed the symplectic check (defect {defect:.3e})")
    return basis


def reduce_quadratic(basis: ReducedBasis, sys: Quadratic) -> Quadratic:
    """Project a quadratic Hamiltonian onto the basis: H_red = V' H V."""
    if not sys.quadratic:
        raise NotQuadratic("reduce_quadratic requires a quadratic system")
    if sys.dim != 2 * basis.full_n:
        raise DimensionMismatch(f"system dim {sys.dim} != basis full dim {2 * basis.full_n}")
    H_red = basis.v.T @ sys.hmat @ basis.v
    return Quadratic(0.5 * (H_red + H_red.T))
