"""Gradient Hermite-Birkhoff interpolation in the native kernel space.

The data are first-derivative point evaluations lambda(f) = d/dx_a f(x);
their Riesz representers are derivative slices of the kernel, and the
minimum-norm interpolant is a linear combination of those representers
with coefficients from the generalized Gram system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DuplicateFunctional, EmptyDataset, InvalidModel
from .kernels import (
    LONG,
    KernelSpec,
    block_centers,
    coord_index,
    mixed2_accumulate,
    mixed2_accumulate_precise,
    mixed2_field,
    mixed2_pairs,
    mixed2_self,
)
from .linalg import cholesky_solve

SERIAL_VERSION = 1


@dataclass(frozen=True)
class DerivFunctional:
    """First-derivative point evaluation f -> d/dx_coord f(center)."""

    center: np.ndarray
    coord: int

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("center must be a finite 1-d point")
        object.__setattr__(self, "center", c)
        if not (0 <= self.coord < c.size):
            raise ValueError(f"coord {self.coord} outside dimension {c.size}")

    def key(self):
        return (tuple(self.center.tolist()), int(self.coord))


def _functional_arrays(functionals):
    """Stack a functional sequence into (centers, coords) arrays."""
    if len(functionals) == 0:
        raise EmptyDataset("empty functional list")
    centers = np.stack([f.center for f in functionals])
    coords = np.array([f.coord for f in functionals], dtype=int)
    if len({f.center.size for f in functionals}) != 1:
        raise DimensionMismatch("functionals have inconsistent dimensions")
    return centers, coords


@dataclass
class Surrogate:
    """Kernel expansion s(x) = sum_j c_j d/dy_{a_j} k(x, x_j)."""

    kernel: KernelSpec
    centers: np.ndarray        # (m, dim)
    coords: np.ndarray         # (m,) int
    coeffs: np.ndarray         # (m,)

    @staticmethod
    def empty(kernel: KernelSpec, dim: int) -> "Surrogate":
        return Surrogate(kernel, np.zeros((0, dim)), np.zeros(0, dtype=int), np.zeros(0))

    @staticmethod
    def from_functionals(kernel, functionals, coeffs) -> "Surrogate":
        centers, coords = _functional_arrays(functionals)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.size != coords.size:
            raise DimensionMismatch("coefficient count does not match functional count")
        return Surrogate(kernel, centers, coords, coeffs)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def size(self) -> int:
        return int(self.coeffs.size)

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"point shape {x.shape} does not match dim {self.dim}")
        return x

    def gradient(self, x):
        return self.gradient_many(self._check_point(x)[None, :])[0]

    def gradient_precise(self, x):
        """Gradient with extended-precision accumulation.

        Worth its cost only where rounding noise matters: the implicit
        predictor solves and finite-difference structure checks.
        """
        x = self._check_point(x)
        if self.size == 0:
            return np.zeros(self.dim)
        centers, coeffs, index = self._precise_terms
        return mixed2_accumulate_precise(self.kernel, x, centers, self.coords, coeffs,
                                         index=index)

    @cached_property
    def _precise_terms(self):
        """LONG copies of centers and coeffs plus the coordinate index,
        built once for the many gradient_precise calls of a rollout."""
        return (self.centers.astype(LONG), self.coeffs.astype(LONG),
                coord_index(self.coords, self.dim))

    def gradient_many(self, X):
        """Gradients at the rows of X, returned as an (M x dim) array."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (M, {self.dim}) array, got {X.shape}")
        if self.size == 0:
            return np.zeros_like(X)
        return mixed2_accumulate(self.kernel, X, self.centers, self.coords, self.coeffs)


@dataclass
class HBDataset:
    """One-step flow data: mixed inputs and difference-quotient targets."""

    inputs: np.ndarray         # (M, 2n)
    targets: np.ndarray        # (M, 2n)
    delta_t: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.shape != self.targets.shape or self.inputs.ndim != 2:
            raise DimensionMismatch(
                f"inputs {self.inputs.shape} and targets {self.targets.shape} must match"
            )
        if not np.all(np.isfinite(self.inputs)) or not np.all(np.isfinite(self.targets)):
            raise ValueError("non-finite dataset entries rejected")
        if not self.delta_t > 0:
            raise ValueError("delta_t must be positive")

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def gram_matrix(kernel: KernelSpec, functionals):
    """Generalized Gram matrix G[i, j] = d1_{a_i} d2_{a_j} k(x_i, x_j).

    Only the blocks of rows on or above the diagonal are evaluated, and the
    upper triangle is mirrored, so G is symmetric to the bit.
    """
    centers, coords = _functional_arrays(functionals)
    m = coords.size
    G = np.zeros((m, m))
    step = block_centers(*centers.shape)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        G[lo:hi, lo:] = mixed2_pairs(kernel, centers[lo:], coords[lo:],
                                     centers[lo:hi], coords[lo:hi])
    return _mirror_upper(G, np.triu(np.ones((m, m), dtype=bool)))


def _mirror_upper(S, upper):
    """The symmetric matrix whose upper triangle is that of S, where upper
    is the boolean upper-triangle mask of S's shape.  Adding 0.0 turns -0.0
    into 0.0, so the result equals triu(S) + triu(S, 1).T bit for bit."""
    return np.where(upper, S, S.T) + 0.0


def fit(kernel: KernelSpec, functionals, targets) -> Surrogate:
    """Minimum-norm interpolant of the derivative data.

    Solves the generalized Gram system; duplicate (center, coord) pairs are
    rejected because they make the system singular by construction.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1 or targets.size != len(functionals):
        raise DimensionMismatch("targets must be one value per functional")
    keys = [f.key() for f in functionals]
    if len(set(keys)) != len(keys):
        raise DuplicateFunctional("duplicate (center, coord) pairs in functional list")
    G = gram_matrix(kernel, functionals)
    coeffs = cholesky_solve(G, targets)
    return Surrogate.from_functionals(kernel, functionals, coeffs)


def power_function(kernel: KernelSpec, selected, query: DerivFunctional) -> float:
    """Norm of the part of the query representer orthogonal to the selection.

    The squared value is the self Gram value minus the projection term
    v' G^-1 v; roundoff can push it a hair below zero, so it is clamped.
    """
    p0 = mixed2_self(kernel)
    if len(selected) == 0:
        return float(np.sqrt(p0))
    centers, coords = _functional_arrays(selected)
    F = mixed2_field(kernel, centers, query.center, int(query.coord))
    v = F[np.arange(coords.size), coords]
    G = gram_matrix(kernel, selected)
    proj = float(v @ cholesky_solve(G, v))
    return float(np.sqrt(max(p0 - proj, 0.0)))


def rkhs_inner(kernel: KernelSpec, sa: Surrogate, sb: Surrogate) -> float:
    """Native-space inner product of two derivative expansions."""
    if sa.dim != sb.dim:
        raise DimensionMismatch(f"dimension mismatch: {sa.dim} vs {sb.dim}")
    if sa.kernel != sb.kernel:
        raise ValueError("surrogates must share one kernel")
    if sa.size == 0 or sb.size == 0:
        return 0.0
    K = mixed2_pairs(kernel, sa.centers, sa.coords, sb.centers, sb.coords)
    return _quadratic_form(sa.coeffs, K, sb.coeffs)


def _quadratic_form(a, K, b) -> float:
    """sum_j (a . K[j]) b[j]: one dot product per center of b, summed in
    center order.  np.vecdot takes each row's dot from the same BLAS ddot as
    a @ K[j] (a gemv K @ a would not round alike), and the terms are added
    one at a time from 0.0, because np.sum pairs them and the built-in sum
    compensates from Python 3.12 on."""
    total = 0.0
    for term in (np.vecdot(K, a) * b).tolist():
        total += term
    return total


def rkhs_norm(kernel: KernelSpec, s: Surrogate) -> float:
    return float(np.sqrt(max(rkhs_inner(kernel, s, s), 0.0)))


class TargetErrorNorm:
    """||u - s_m|| for a target expansion u and the minimum-norm
    interpolant s_m of u's data at a growing selection of functionals.

    Keeps the pair matrix C of u's functionals followed by the selected
    ones, with C[j, i] the entry mixed2_pairs gives for point i and center
    j, and grows it by one row and one column per selected functional:
    O(m) kernel pairs per call instead of the O(m^2) of a fresh
    rkhs_norm(kernel, u - fit(...)).  Both orientations are kept, because
    C[j, i] and C[i, j] round their product in a different order when the
    two coordinates differ.  s_m is refitted from scratch on the mirrored
    upper triangle of the selected block, as fit does, and the norm is the
    quadratic form of rkhs_inner, so every value equals the from-scratch
    one bit for bit.
    """

    def __init__(self, kernel: KernelSpec, target: Surrogate, capacity: int):
        size = target.size + capacity
        self.kernel, self.coeffs = kernel, target.coeffs
        self.n0 = self.n = target.size
        self.centers = np.empty((size, target.dim))
        self.coords = np.empty(size, dtype=int)
        self.pairs = np.empty((size, size))
        self.upper = np.triu(np.ones((capacity, capacity), dtype=bool))
        self.centers[:self.n0], self.coords[:self.n0] = target.centers, target.coords
        self.pairs[:self.n0, :self.n0] = mixed2_pairs(kernel, target.centers, target.coords,
                                                      target.centers, target.coords)

    def _append(self, center, coord):
        k, X, a, C = self.n, self.centers, self.coords, self.pairs
        X[k], a[k] = center, coord
        C[k, :k + 1] = mixed2_pairs(self.kernel, X[:k + 1], a[:k + 1], X[k:k + 1], a[k:k + 1])[0]
        C[:k, k] = mixed2_pairs(self.kernel, X[k:k + 1], a[k:k + 1], X[:k], a[:k])[:, 0]
        self.n = k + 1

    def __call__(self, centers, coords, targets) -> float:
        """The error for the selection (centers, coords) with data targets.

        Each call's selection extends the previous call's; only the new
        functionals are evaluated against the stored ones.
        """
        for center, coord in zip(centers[self.n - self.n0:], coords[self.n - self.n0:]):
            self._append(center, coord)
        n0, n, coeffs = self.n0, self.n, self.coeffs
        if n > n0:
            G = _mirror_upper(self.pairs[n0:n, n0:n], self.upper[:n - n0, :n - n0])
            coeffs = np.concatenate([coeffs, -cholesky_solve(G, targets)])
        total = _quadratic_form(coeffs, self.pairs[:n, :n], coeffs)
        return float(np.sqrt(max(total, 0.0)))


def surrogate_to_dict(s: Surrogate, delta_t: float) -> dict:
    """Versioned plain-dict form of a trained surrogate (JSON-ready)."""
    return {
        "version": SERIAL_VERSION,
        "kernel": s.kernel.to_dict(),
        "dim": int(s.dim),
        "delta_T": float(delta_t),
        "functionals": [
            {"center": [float(v) for v in c], "coord": int(a)}
            for c, a in zip(s.centers, s.coords)
        ],
        "coeffs": [float(c) for c in s.coeffs],
    }


def surrogate_from_dict(doc) -> tuple[Surrogate, float]:
    """Inverse of surrogate_to_dict; returns (surrogate, delta_t).

    Model files come from outside the program, so the document is checked
    in full: whatever surrogate_to_dict could not have written raises
    InvalidModel.
    """
    keys = ("version", "kernel", "dim", "delta_T", "functionals", "coeffs")
    if not isinstance(doc, dict) or any(k not in doc for k in keys):
        raise InvalidModel(f"a model is a JSON object with the keys {', '.join(keys)}")
    if doc["version"] != SERIAL_VERSION:
        raise InvalidModel(f"unsupported model version {doc['version']!r}")
    dim, funcs = doc["dim"], doc["functionals"]
    if type(dim) is not int or dim < 1:
        raise InvalidModel(f"dim must be a positive integer, got {dim!r}")
    try:
        kernel = KernelSpec.from_dict(doc["kernel"])
        delta_t = float(doc["delta_T"])
        centers = np.array([f["center"] for f in funcs], dtype=float)
        if not funcs:
            centers = centers.reshape(0, dim)    # ValueError past numpy's size limit
        coords = [f["coord"] for f in funcs]
        coeffs = np.array(doc["coeffs"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidModel(f"malformed model entry: {type(exc).__name__}: {exc}") from None
    if funcs and centers.shape != (len(funcs), dim):
        raise InvalidModel(f"every center must be a list of dim={dim} numbers")
    if not all(type(a) is int and 0 <= a < dim for a in coords):
        raise InvalidModel(f"every coord must be an integer in [0, {dim})")
    if coeffs.shape != (len(funcs),):
        raise InvalidModel(f"{coeffs.size} coefficient(s) for {len(funcs)} functional(s)")
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(coeffs))):
        raise InvalidModel("centers and coefficients must be finite")
    if not (delta_t > 0 and np.isfinite(delta_t)):
        raise InvalidModel(f"delta_T must be positive and finite, got {delta_t}")
    coords = np.array(coords, dtype=int)
    return Surrogate(kernel, centers, coords, coeffs), delta_t
