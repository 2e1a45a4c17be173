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
    """(h'(s), h''(s)) for array-like squared distances s.

    Both share one exponential.  h'(0) < 0 is finite for all four families.
    Entries of h'' with s below COINCIDENT_R2 are returned as 0: callers
    must apply the coincident-point branch themselves, since for matern32
    the true h'' diverges like 1/r there, but it only enters contracted
    against (x-y)(x-y), which vanishes at the same rate.
    """
    s = np.asarray(s, dtype=float)
    e2 = spec.epsilon**2
    if spec.family == "gaussian":
        ex = np.exp(-e2 * s)
        return -e2 * ex, e2**2 * ex
    if spec.family == "imq":
        u = 1.0 + e2 * s
        return -0.5 * e2 * u**-1.5, 0.75 * e2**2 * u**-2.5
    t = spec.epsilon * np.sqrt(s)
    ex = np.exp(-t)
    if spec.family == "matern52":
        return -(e2 / 6.0) * (1.0 + t) * ex, (e2**2 / 12.0) * ex
    # matern32: h'' = eps^4 exp(-t) / (4 t) diverges at t = 0; entries under
    # the threshold are reported as 0 and resolved by the caller's branch.
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
    d = x - y
    s = d @ d
    if s < COINCIDENT_R2:
        return -2.0 * profile_d1_zero(spec) if alpha == beta else 0.0
    h1, h2 = profile_derivs(spec, s)
    val = -4.0 * float(h2) * d[alpha] * d[beta]
    if alpha == beta:
        val += -2.0 * float(h1)
    return val


def mixed2_self(spec: KernelSpec) -> float:
    """Diagonal Gram value of any derivative functional: -2 h'(0)."""
    return -2.0 * profile_d1_zero(spec)


def mixed2_field(spec: KernelSpec, X, x, alpha: int):
    """Mixed derivatives of k against one functional, over many points.

    For points X (M x d) and a functional (center x, coordinate alpha),
    returns the (M x d) array F with F[i, b] = kernel_mixed2(X[i], x, b, alpha).
    """
    X = np.asarray(X, dtype=float)
    x = np.asarray(x, dtype=float)
    D = X - x[None, :]
    s = np.einsum("ij,ij->i", D, D)
    near = s < COINCIDENT_R2
    h1, h2 = profile_derivs(spec, s)
    w = -4.0 * h2 * D[:, alpha]
    w[near] = 0.0
    F = w[:, None] * D
    F[:, alpha] += -2.0 * h1
    if np.any(near):
        F[near, :] = 0.0
        F[near, alpha] = -2.0 * profile_d1_zero(spec)
    return F


# Pair evaluators work on blocks of centers x all points, with about this
# many float64s (256 KiB) in the (block, points, dim) difference array, or
# one center per block when its array alone is larger.  On a 2-vCPU Xeon
# VM, 2**15 ran the desk-size Gram and gradient-field calls faster than
# 2**13 or 2**17, and it keeps the temporaries well below the greedy's
# Newton basis.
BLOCK_FLOATS = 2**15


def _pair_blocks(spec: KernelSpec, X, centers):
    """Yield (lo, D, near, h1, h2) for consecutive blocks of centers.

    D[k, i] = X[i] - centers[lo + k]; near, h1 and h2 are (block x M).
    Each entry is equal bit for bit to the one-center form
    D = X - centers[j]; s = einsum("ij,ij->i", D, D), because the squared
    distances go through that same row reduction.
    """
    M, d = X.shape
    step = max(1, BLOCK_FLOATS // max(1, M * d))
    for lo in range(0, centers.shape[0], step):
        D = X[None, :, :] - centers[lo:lo + step, None, :]
        rows = D.reshape(-1, d)
        s = np.einsum("ij,ij->i", rows, rows).reshape(D.shape[:2])
        h1, h2 = profile_derivs(spec, s)
        yield lo, D, s < COINCIDENT_R2, h1, h2


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
    coincident = -2.0 * profile_d1_zero(spec)
    for lo, D, near, h1, h2 in _pair_blocks(spec, X, centers):
        hi = lo + D.shape[0]
        a = alphas[lo:hi]
        same = coords[None, :] == a[:, None]
        w = -4.0 * h2 * D[np.arange(a.size), :, a]
        val = w * D[:, points, coords]
        val = np.where(same, val + -2.0 * h1, val)
        K[lo:hi] = np.where(near, np.where(same, coincident, 0.0), val)
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
    h1_zero = profile_d1_zero(spec)
    for lo, D, near, h1, h2 in _pair_blocks(spec, X, centers):
        hi = lo + D.shape[0]
        a = alphas[lo:hi]
        c = coeffs[lo:hi, None]
        w = (-4.0 * c) * h2 * D[np.arange(a.size), :, a]
        w[near] = 0.0
        T = w[:, :, None] * D
        U = (-2.0 * c) * np.where(near, h1_zero, h1)
        for k, a_k in enumerate(a):
            G += T[k]
            G[:, a_k] += U[k]
    return G


# Extended-precision scalar type for single-point evaluation of expansions
# with large cancelling coefficients (float80 on x86; may equal float64 on
# other platforms, in which case the noise-floor logic still governs).
LONG = np.longdouble
LONG_EPS = float(np.finfo(LONG).eps)


def _profiles_long(spec: KernelSpec, s):
    """(h'(s), h''(s)) evaluated in extended precision; s is a LONG array."""
    e2 = LONG(spec.epsilon) ** 2
    if spec.family == "gaussian":
        ex = np.exp(-e2 * s)
        return -e2 * ex, e2 * e2 * ex
    if spec.family == "imq":
        u = 1.0 + e2 * s
        return -0.5 * e2 * u**-1.5, 0.75 * e2 * e2 * u**-2.5
    t = LONG(spec.epsilon) * np.sqrt(s)
    ex = np.exp(-t)
    if spec.family == "matern52":
        return -(e2 / 6.0) * (1.0 + t) * ex, (e2 * e2 / 12.0) * ex
    near = s < COINCIDENT_R2
    t_safe = np.where(near, LONG(1.0), t)
    h2 = np.where(near, LONG(0.0), e2 * e2 * ex / (4.0 * t_safe))
    return -0.5 * e2 * ex, h2


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
    s = np.einsum("ij,ij->i", D, D)
    near = s < COINCIDENT_R2
    h1, h2 = _profiles_long(spec, s)
    c = np.asarray(coeffs, dtype=LONG)
    dc = D[rows, alphas]
    w = -4.0 * h2 * dc * c
    w[near] = 0.0
    g = D.T @ w
    h1 = np.where(near, LONG(profile_d1_zero(spec)), h1)
    diag_terms = -2.0 * c * h1
    for b, mask in enumerate(masks):
        g[b] += np.sum(diag_terms[mask])
    return g.astype(float)
