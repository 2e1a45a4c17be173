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
from functools import cache

import numpy as np

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
        # profile_derivs forms h'' from epsilon**4
        e2 = self.epsilon * self.epsilon
        if not (self.epsilon > 0.0 and np.isfinite(e2 * e2)):
            raise ValueError(f"epsilon must be positive with a finite fourth power, "
                             f"got {self.epsilon}")

    def to_dict(self):
        return {"family": self.family, "epsilon": float(self.epsilon)}


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


@cache  # _derivative_terms asks on every greedy pick; profile_derivs takes 3-12 us
def profile_d1_zero(spec: KernelSpec) -> float:
    """h'(0); the coincident mixed derivative is -2 h'(0) delta_ab."""
    return float(profile_derivs(spec, 0.0)[0])


def mixed2_self(spec: KernelSpec) -> float:
    """Diagonal Gram value of any derivative functional: -2 h'(0)."""
    return -2.0 * profile_d1_zero(spec)


def _sq_norms(D):
    """Squared lengths over axis -2 of a coordinate-major array D (..., d, M).

    The even coordinates and the odd coordinates are summed in order, then
    the two sums are added: for d <= 7 that is the order in which numpy's
    einsum("ij,ij->i") rounds the rows of the point-major array, so both
    give equal bits.  From d = 8 on einsum unrolls wider and the two can
    differ in the last bits.
    """
    P = D * D
    d = P.shape[-2]
    for k in range(2, d):
        P[..., k % 2, :] += P[..., k, :]
    if d > 1:
        P[..., 0, :] += P[..., 1, :]
    return P[..., 0, :]


def _derivative_terms(spec: KernelSpec, s):
    """(W, H) = (-4 h''(s), -2 h'(s)) for squared distances s.

    The mixed derivative of a difference D is W D_a D_b + H delta_ab.
    Below COINCIDENT_R2 the analytic limit W = 0, H = -2 h'(0) is taken.
    W and H come in the dtype of s (float64 or LONG).
    """
    h1, h2 = profile_derivs(spec, s)
    W, H = -4.0 * h2, -2.0 * h1
    near = s < COINCIDENT_R2
    if near.any():
        W[near], H[near] = 0.0, -2.0 * profile_d1_zero(spec)
    return W, H


def mixed2_field(spec: KernelSpec, X, x, alpha: int):
    """Mixed derivatives of k against one functional, over many points.

    For points X (M x d) and a functional (center x, coordinate alpha),
    returns the (M x d) array F with F[i, b] = d/dx_b d/dy_alpha k(X[i], x).
    """
    X = np.asarray(X, dtype=float)
    x = np.asarray(x, dtype=float)
    D = np.subtract(X.T, x[:, None], order="C")
    W, H = _derivative_terms(spec, _sq_norms(D))
    F = np.empty(X.shape)
    np.multiply(W * D[alpha], D, out=F.T)    # written point-major, no transposing copy
    F[:, alpha] += H
    return F


# Pair evaluators work on blocks of centers x all points, with about this
# many float64s (256 KiB) in the (block, dim, points) difference array, or
# one center per block when its array alone is larger.  On a 2-vCPU Xeon
# VM with one BLAS thread, in two sets of interleaved runs over 2**13 to
# 2**17, 2**15 ran the desk-size gradient fields (1219-1600 points x
# 300-400 centers, d = 2, 4, 6) and verify-synthetic's 210 x 210 pair
# matrix fastest in six of eight cases and at most 19 % slower in the
# other two; 2**17 was 2-47 % slower than the fastest.  It keeps the
# temporaries well below the greedy's Newton basis.
BLOCK_FLOATS = 2**15


def block_centers(points: int, dim: int) -> int:
    """Centers per block against `points` points in `dim` dimensions."""
    return max(1, BLOCK_FLOATS // max(1, points * dim))


def _pair_blocks(spec: KernelSpec, X, centers):
    """Yield (lo, D, W, H) for consecutive blocks of centers.

    D[k, :, i] = X[i] - centers[lo + k], coordinate-major, so every
    elementwise pass runs over the points; W and H are the (block x M)
    _derivative_terms of D.  Each entry is equal bit for bit to the
    one-center form of mixed2_field.
    """
    Xt = np.ascontiguousarray(X.T)
    step = block_centers(*X.shape)
    for lo in range(0, centers.shape[0], step):
        D = Xt[None, :, :] - centers[lo:lo + step, :, None]
        yield (lo, D) + _derivative_terms(spec, _sq_norms(D))


def mixed2_pairs(spec: KernelSpec, X, coords, centers, alphas):
    """Mixed derivatives between point functionals and center functionals.

    For points X (M x d) with coordinates coords (M,) and centers (m x d)
    with coordinates alphas (m,), returns the (m x M) array K with
    K[j, i] = d/dx_{coords[i]} d/dy_{alphas[j]} k(X[i], centers[j]), equal
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
        val = W * D[np.arange(a.size), a] * D[:, coords, points]
        K[lo:hi] = np.where(coords[None, :] == a[:, None], val + H, val)
    return K


def mixed2_accumulate(spec: KernelSpec, X, centers, alphas, coeffs):
    """Gradient field of a derivative-representer expansion at many points.

    Returns the (M x d) array G with
    G[i, b] = sum_j c_j * d/dx_b d/dy_{alpha_j} k(X[i], centers[j]).
    The per-center terms are computed a block at a time but added in center
    order, so G does not depend on the block size.
    """
    X = np.asarray(X, dtype=float)
    centers = np.asarray(centers, dtype=float)
    alphas = np.asarray(alphas, dtype=int)
    coeffs = np.asarray(coeffs, dtype=float)
    G = np.zeros((X.shape[1], X.shape[0]))
    for lo, D, W, H in _pair_blocks(spec, X, centers):
        hi = lo + D.shape[0]
        a = alphas[lo:hi]
        c = coeffs[lo:hi, None]
        T = (c * W * D[np.arange(a.size), a])[:, None, :] * D
        U = c * H
        for k, a_k in enumerate(a):
            G += T[k]
            G[a_k] += U[k]
    return np.ascontiguousarray(G.T)


def coord_index(alphas, dim: int):
    """(arange(m), per-coordinate masks alphas == b) of an expansion.

    mixed2_accumulate_precise takes both on every call; a caller that
    evaluates one expansion many times builds them once.
    """
    alphas = np.asarray(alphas)
    return np.arange(alphas.size), tuple(alphas == b for b in range(dim))


def mixed2_accumulate_precise(spec: KernelSpec, x, centers, alphas, coeffs, index):
    """Extended-precision gradient of an expansion at one point.

    Same quantity as one row of mixed2_accumulate, accumulated in LONG to
    push the rounding floor of ill-conditioned expansions down.  centers
    and coeffs may already be LONG arrays; index is coord_index(alphas, d).
    The differences stay point-major with einsum's row reduction: in LONG
    einsum adds each row in sequence, which _sq_norms does not reproduce
    from d = 3 on, and a coordinate-major form was no faster here.
    """
    rows, masks = index
    D = np.asarray(x, dtype=LONG)[None, :] - np.asarray(centers, dtype=LONG)
    W, H = _derivative_terms(spec, np.einsum("ij,ij->i", D, D))
    c = np.asarray(coeffs, dtype=LONG)
    g = D.T @ (W * D[rows, alphas] * c)
    diag_terms = c * H
    for b, mask in enumerate(masks):
        g[b] += np.sum(diag_terms[mask])
    return g.astype(float)
