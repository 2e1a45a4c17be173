"""Radial kernel families with first and mixed second derivatives.

Every kernel is evaluated through its even profile h(s) with s = r^2,
so that k(x, y) = h(||x - y||^2).  Derivatives with respect to the
arguments then follow from the chain rule:

    d/dy_b k          = -2 h'(s) (x_b - y_b)
    d/dx_a d/dy_b k   = -4 h''(s) (x_a - y_a)(x_b - y_b) - 2 h'(s) delta_ab

The s-parametrization removes all 1/r factors except for the Matern-3/2
h'' ~ 1/r divergence, which is only ever multiplied by (x-y)(x-y) = O(r^2)
and is resolved by a coincident-point branch below the radius threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidCoordinate

# Tie-break order for model selection.
FAMILIES = ("imq", "gaussian", "matern32", "matern52")

# Squared-radius threshold for the coincident-point branch.
COINCIDENT_R2 = 1e-14

# Extended-precision scalar type for single-point evaluation of expansions
# with large cancelling coefficients (float80 on x86; may equal float64 on
# other platforms, in which case the noise-floor logic still governs).
LONG = np.longdouble
LONG_EPS = float(np.finfo(LONG).eps)


@dataclass(frozen=True)
class KernelSpec:
    """Radial kernel family plus shape parameter epsilon > 0."""

    family: str
    epsilon: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    def to_dict(self):
        return {"family": self.family, "epsilon": float(self.epsilon)}

    @staticmethod
    def from_dict(doc):
        return KernelSpec(family=doc["family"], epsilon=float(doc["epsilon"]))


def profile(spec: KernelSpec, s):
    """h(s) for array-like squared distances s."""
    s = np.asarray(s, dtype=float)
    e2 = spec.epsilon**2
    if spec.family == "gaussian":
        return np.exp(-e2 * s)
    if spec.family == "imq":
        return 1.0 / np.sqrt(1.0 + e2 * s)
    t = spec.epsilon * np.sqrt(s)
    if spec.family == "matern32":
        return (1.0 + t) * np.exp(-t)
    # matern52
    return (1.0 + t + t**2 / 3.0) * np.exp(-t)


def profile_derivs(spec: KernelSpec, s):
    """(h'(s), h''(s)) for array-like squared distances s, in the dtype of s.

    float64 by default; a LONG array gives the extended-precision values of
    the precise path.  Both share one exponential.  h'(0) < 0 is finite for
    all four families.  Entries of h'' with s below COINCIDENT_R2 are
    returned as 0: the true matern32 h'' diverges like 1/r there, but it
    only enters contracted against (x-y)(x-y), which vanishes at the same
    rate, and _derivative_terms applies the coincident-point limit.
    """
    s = np.asarray(s)
    s = s if s.dtype == LONG else s.astype(float, copy=False)
    eps = s.dtype.type(spec.epsilon)
    e2 = eps**2
    if spec.family == "gaussian":
        ex = np.exp(-e2 * s)
        return -e2 * ex, e2**2 * ex
    if spec.family == "imq":
        u = 1.0 + e2 * s
        return -0.5 * e2 * u**-1.5, 0.75 * e2**2 * u**-2.5
    t = eps * np.sqrt(s)
    ex = np.exp(-t)
    if spec.family == "matern52":
        return -(e2 / 6.0) * (1.0 + t) * ex, (e2**2 / 12.0) * ex
    # matern32: h'' = eps^4 exp(-t) / (4 t) diverges at t = 0
    near = s < COINCIDENT_R2
    t_safe = np.where(near, 1.0, t)
    return -0.5 * e2 * ex, np.where(near, 0.0, e2**2 * ex / (4.0 * t_safe))


def profile_d1_zero(spec: KernelSpec) -> float:
    """h'(0); the coincident mixed derivative is -2 h'(0) delta_ab."""
    e2 = spec.epsilon**2
    return {"gaussian": -e2, "imq": -0.5 * e2, "matern32": -0.5 * e2, "matern52": -e2 / 6.0}[
        spec.family
    ]


def _check_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"point shapes differ: {x.shape} vs {y.shape}")
    return x, y


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """k(x, y) = h(||x - y||^2)."""
    x, y = _check_pair(x, y)
    d = x - y
    return float(profile(spec, d @ d))


def kernel_grad2(spec: KernelSpec, x, y):
    """Gradient of k(x, .) in the second argument, evaluated at y."""
    x, y = _check_pair(x, y)
    d = x - y
    return -2.0 * float(profile_derivs(spec, d @ d)[0]) * d


def kernel_mixed2(spec: KernelSpec, x, y, alpha: int, beta: int) -> float:
    """Mixed second derivative d/dx_alpha d/dy_beta k(x, y).

    At coincident points the analytic limit -2 h'(0) delta_ab is returned.
    """
    x, y = _check_pair(x, y)
    if not (0 <= alpha < x.size) or not (0 <= beta < x.size):
        raise InvalidCoordinate(f"coordinates ({alpha}, {beta}) outside dimension {x.size}")
    return float(mixed2_field(spec, x[None, :], y, beta)[0, alpha])


def mixed2_self(spec: KernelSpec) -> float:
    """Diagonal Gram value of any derivative functional: -2 h'(0)."""
    return -2.0 * profile_d1_zero(spec)


def _derivative_terms(spec: KernelSpec, D):
    """(W, H) = (-4 h''(s), -2 h'(s)) with s = |D|^2 over the last axis of D.

    The mixed derivative of a difference row D_i is W_i D_ia D_ib + H_i
    delta_ab.  Below COINCIDENT_R2 the analytic limit W = 0, H = -2 h'(0)
    is taken.  s goes through the row reduction einsum("ij,ij->i") in the
    dtype of D (float64 or LONG), so every caller rounds it alike.
    """
    rows = D.reshape(-1, D.shape[-1])
    s = np.einsum("ij,ij->i", rows, rows).reshape(D.shape[:-1])
    h1, h2 = profile_derivs(spec, s)
    near = s < COINCIDENT_R2
    W, H = -4.0 * h2, -2.0 * h1
    W[near], H[near] = 0.0, -2.0 * profile_d1_zero(spec)
    return W, H


def mixed2_field(spec: KernelSpec, X, x, alpha: int):
    """Mixed derivatives of k against one functional, over many points.

    For points X (M x d) and a functional (center x, coordinate alpha),
    returns the (M x d) array F with F[i, b] = kernel_mixed2(X[i], x, b, alpha).
    """
    X = np.asarray(X, dtype=float)
    x = np.asarray(x, dtype=float)
    D = X - x[None, :]
    W, H = _derivative_terms(spec, D)
    F = (W * D[:, alpha])[:, None] * D
    F[:, alpha] += H
    return F


# Pair evaluators work on blocks of centers x all points, with about this
# many float64s (256 KiB) in the (block, points, dim) difference array, or
# one center per block when its array alone is larger.  On a 2-vCPU Xeon
# VM, 2**15 ran the desk-size Gram and gradient-field calls faster than
# 2**13 or 2**17, and it keeps the temporaries well below the greedy's
# Newton basis.
BLOCK_FLOATS = 2**15


def _pair_blocks(spec: KernelSpec, X, centers):
    """Yield (lo, D, W, H) for consecutive blocks of centers.

    D[k, i] = X[i] - centers[lo + k]; W and H are the (block x M)
    _derivative_terms of D.  Each entry is equal bit for bit to the
    one-center form D = X - centers[j], because the squared distances go
    through the same row reduction.
    """
    M, d = X.shape
    step = max(1, BLOCK_FLOATS // max(1, M * d))
    for lo in range(0, centers.shape[0], step):
        D = X[None, :, :] - centers[lo:lo + step, None, :]
        yield (lo, D) + _derivative_terms(spec, D)


def mixed2_pairs(spec: KernelSpec, X, coords, centers, alphas):
    """Mixed derivatives between point functionals and center functionals.

    For points X (M x d) with coordinates coords (M,) and centers (m x d)
    with coordinates alphas (m,), returns the (m x M) array K with
    K[j, i] = kernel_mixed2(X[i], centers[j], coords[i], alphas[j]), equal
    bit for bit to mixed2_field(spec, X, centers[j], alphas[j])[i, coords[i]].
    """
    X = np.asarray(X, dtype=float)
    centers = np.asarray(centers, dtype=float)
    coords = np.asarray(coords, dtype=int)
    alphas = np.asarray(alphas, dtype=int)
    K = np.empty((centers.shape[0], X.shape[0]))
    points = np.arange(X.shape[0])
    for lo, D, W, H in _pair_blocks(spec, X, centers):
        hi = lo + D.shape[0]
        a = alphas[lo:hi]
        val = W * D[np.arange(a.size), :, a] * D[:, points, coords]
        K[lo:hi] = np.where(coords[None, :] == a[:, None], val + H, val)
    return K


def grad2_accumulate(spec: KernelSpec, X, centers, alphas, coeffs):
    """sum_j c_j * d/dy_{alpha_j} k(X[i], centers[j]) over many points X."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[0])
    for c_j, x_j, a_j in zip(coeffs, centers, alphas):
        D = X - x_j[None, :]
        s = np.einsum("ij,ij->i", D, D)
        out += (-2.0 * c_j) * profile_derivs(spec, s)[0] * D[:, a_j]
    return out


def mixed2_accumulate(spec: KernelSpec, X, centers, alphas, coeffs):
    """Gradient field of a derivative-representer expansion at many points.

    Returns the (M x d) array G with
    G[i, b] = sum_j c_j * kernel_mixed2(X[i], centers[j], b, alpha_j).
    The per-center terms are computed a block at a time but added in center
    order, so G does not depend on the block size.
    """
    X = np.asarray(X, dtype=float)
    centers = np.asarray(centers, dtype=float)
    alphas = np.asarray(alphas, dtype=int)
    coeffs = np.asarray(coeffs, dtype=float)
    G = np.zeros_like(X)
    for lo, D, W, H in _pair_blocks(spec, X, centers):
        hi = lo + D.shape[0]
        a = alphas[lo:hi]
        c = coeffs[lo:hi, None]
        T = (c * W * D[np.arange(a.size), :, a])[:, :, None] * D
        U = c * H
        for k, a_k in enumerate(a):
            G += T[k]
            G[:, a_k] += U[k]
    return G


def coord_index(alphas, dim: int):
    """(arange(m), per-coordinate masks alphas == b) of an expansion.

    mixed2_accumulate_precise needs both on every call; callers that
    evaluate one expansion many times build them once.
    """
    alphas = np.asarray(alphas)
    return np.arange(alphas.size), tuple(alphas == b for b in range(dim))


def mixed2_accumulate_precise(spec: KernelSpec, x, centers, alphas, coeffs, index=None):
    """Extended-precision gradient of an expansion at one point.

    Same quantity as one row of mixed2_accumulate, accumulated in LONG to
    push the rounding floor of ill-conditioned expansions down.  centers
    and coeffs may already be LONG arrays; index is coord_index(alphas, d).
    """
    rows, masks = coord_index(alphas, x.size) if index is None else index
    D = np.asarray(x, dtype=LONG)[None, :] - np.asarray(centers, dtype=LONG)
    W, H = _derivative_terms(spec, D)
    c = np.asarray(coeffs, dtype=LONG)
    g = D.T @ (W * D[rows, alphas] * c)
    diag_terms = c * H
    for b, mask in enumerate(masks):
        g[b] += np.sum(diag_terms[mask])
    return g.astype(float)
