"""Dense linear-algebra kernels used by every other module.

Real symmetric / complex Hermitian eigenproblems and the Cholesky
factorization are delegated to LAPACK through numpy; the jitter policy,
the matrix exponential and all validation live here.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite, Overflow

# Jitter ladder for near-singular SPD solves: tau = JITTER_START * mean(diag),
# multiplied by 10 per rung until JITTER_STOP * mean(diag).
JITTER_START = 1e-14
JITTER_STOP = 1e-8


def as_matrix(a, square=False, name="matrix"):
    """Validate and return a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name}: expected 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: non-finite entries rejected")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name}: expected square, got {m.shape}")
    return m


def as_vector(b, size=None, name="vector"):
    v = np.asarray(b, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name}: expected 1-d array, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name}: non-finite entries rejected")
    if size is not None and v.size != size:
        raise DimensionMismatch(f"{name}: expected length {size}, got {v.size}")
    return v


def max_abs(a):
    """Largest absolute entry; the norm used by the structural checks."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def cholesky_factor(A):
    """Lower Cholesky factor of a symmetric matrix, with jitter ladder.

    On failure, tau*I is added with tau climbing from JITTER_START*mean(diag)
    by factors of 10 up to JITTER_STOP*mean(diag).  Returns (L, tau_used).
    """
    A = as_matrix(A, square=True, name="A")
    try:
        return np.linalg.cholesky(A), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(A))) if A.shape[0] else 0.0
    if scale <= 0.0:
        raise NotPositiveDefinite("matrix is not positive definite (nonpositive diagonal mean)")
    tau = JITTER_START * scale
    eye = np.eye(A.shape[0])
    while tau <= JITTER_STOP * scale * (1 + 1e-12):
        try:
            return np.linalg.cholesky(A + tau * eye), tau
        except np.linalg.LinAlgError:
            tau *= 10.0
    raise NotPositiveDefinite(
        f"matrix is not positive definite after jitter ladder (final tau={tau:.3e})"
    )


def _tri_solve_lower(L, b):
    """Solve L x = b for lower-triangular L by forward substitution.

    One dot product of the contiguous row L[i, :i] per row, then one
    subtraction and one division, so each x[i] rounds twice after its dot.
    """
    x = np.array(b, dtype=float)
    for i in range(x.size):
        x[i] = (x[i] - L[i, :i].dot(x[:i])) / L[i, i]
    return x


def _tri_solve_upper(U, b):
    """Solve U x = b for upper-triangular U by back substitution.

    Callers pass U = L.T, whose rows U[i, i+1:] are strided views of L's
    columns.  They are dotted as views: OpenBLAS sums a strided ddot in
    sequence but a contiguous one in SIMD lanes, so a transposed copy
    would change the bits.
    """
    x = np.array(b, dtype=float)
    for i in range(x.size - 1, -1, -1):
        x[i] = (x[i] - U[i, i + 1:].dot(x[i + 1:])) / U[i, i]
    return x


def cholesky_solve(A, b):
    """Solve A x = b for symmetric positive definite A.

    Applies the jitter ladder before giving up; raises NotPositiveDefinite
    once the ladder is exhausted.  A is validated by cholesky_factor.
    """
    L, _ = cholesky_factor(A)
    b = as_vector(b, size=L.shape[0], name="b")
    return _tri_solve_upper(L.T, _tri_solve_lower(L, b))


def sym_eigen(A):
    """Eigendecomposition of a real symmetric or complex Hermitian matrix.

    Returns (real eigenvalues descending, orthonormal eigenvectors as columns).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A: expected a square 2-d array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A: non-finite entries rejected")
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


# [6/6] Pade coefficients for exp(x): numerator sum_k c_k x^k.
_PADE6 = (1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280)


def expm(A):
    """Matrix exponential by scaling-and-squaring with a [6/6] Pade core."""
    A = as_matrix(A, square=True, name="A")
    n = A.shape[0]
    norm1 = float(np.max(np.sum(np.abs(A), axis=0))) if n else 0.0
    # scale so the Pade argument norm stays below 1/2
    s = max(0, int(np.ceil(np.log2(norm1 / 0.5))) if norm1 > 0.5 else 0)
    B = A / (2.0 ** s)
    eye = np.eye(n)
    # Horner split into even/odd parts: N = U + V, D = -U + V with U odd.
    B2 = B @ B
    V = _PADE6[6] * B2 + _PADE6[4] * eye
    V = V @ B2 + _PADE6[2] * eye
    V = V @ B2 + _PADE6[0] * eye
    U = _PADE6[5] * B2 + _PADE6[3] * eye
    U = U @ B2 + _PADE6[1] * eye
    U = B @ U
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            E = E @ E
    if not np.all(np.isfinite(E)):
        raise Overflow("matrix exponential exceeded representable range")
    return E
