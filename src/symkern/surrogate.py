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
    mixed2_pairs,
)
from .linalg import cholesky_solve

# No longer called here, kept importable under this name because
# perfbench/tracing.py wraps it here.
from .kernels import mixed2_field  # noqa: F401

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

    def gradient_precise(self, x):
        """Gradient with extended-precision accumulation.

        Worth its cost only where rounding noise matters: the implicit
        predictor solves and finite-difference structure checks.
        """
        x = self._check_point(x)
        centers, coeffs, index = self._precise_terms
        return mixed2_accumulate_precise(self.kernel, x, centers, self.coords, coeffs, index)

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


def rkhs_inner(kernel: KernelSpec, sa: Surrogate, sb: Surrogate) -> float:
    """Native-space inner product of two derivative expansions."""
    if sa.dim != sb.dim:
        raise DimensionMismatch(f"dimension mismatch: {sa.dim} vs {sb.dim}")
    if sa.kernel != sb.kernel:
        raise ValueError("surrogates must share one kernel")
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


def target_errors(kernel: KernelSpec, target: Surrogate, centers, coords, targets) -> list:
    """||u - s_m|| for a target expansion u and the minimum-norm interpolant
    s_m of u's data targets at the first m of the functionals (centers,
    coords), for every m below their count.

    One mixed2_pairs call gives the pair matrix C of u's functionals
    followed by the selected ones, C[j, i] the entry for point i and center
    j: O(m^2) kernel pairs in all, where a fresh rkhs_norm(kernel,
    u - fit(...)) per prefix would take O(m^3).  Both orientations are
    kept, because C[j, i] and C[i, j] round their product in a different
    order when the two coordinates differ.  Each s_m is refitted from
    scratch on the mirrored upper triangle of the selected block, as fit
    does, and the norm is the quadratic form of rkhs_inner, so every value
    equals the from-scratch one bit for bit.
    """
    n0, count = target.size, len(coords)
    X = np.concatenate([target.centers, centers])
    a = np.concatenate([target.coords, coords])
    C = mixed2_pairs(kernel, X, a, X, a)
    upper = np.triu(np.ones((count, count), dtype=bool))
    errors = []
    for m in range(count):
        coeffs = target.coeffs
        if m:
            G = _mirror_upper(C[n0:n0 + m, n0:n0 + m], upper[:m, :m])
            coeffs = np.concatenate([coeffs, -cholesky_solve(G, targets[:m])])
        total = _quadratic_form(coeffs, C[:n0 + m, :n0 + m], coeffs)
        errors.append(float(np.sqrt(max(total, 0.0))))
    return errors


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


def _object(doc, keys, what):
    """Raise InvalidModel unless doc is a JSON object with exactly these keys."""
    if not isinstance(doc, dict) or set(doc) != set(keys):
        raise InvalidModel(f"{what} is a JSON object with exactly the keys {', '.join(keys)}")


def surrogate_from_dict(doc) -> tuple[Surrogate, float]:
    """Inverse of surrogate_to_dict; returns (surrogate, delta_t).

    Model files come from outside the program, so the document is checked
    in full: whatever surrogate_to_dict could not have written (another key,
    a version other than the integer 1, a bool or a string for a number)
    raises InvalidModel.  The "system" object that experiments add is ignored.
    """
    if isinstance(doc, dict) and isinstance(doc.get("system"), dict):
        doc = {k: v for k, v in doc.items() if k != "system"}
    _object(doc, ("version", "kernel", "dim", "delta_T", "functionals", "coeffs"),
            "a model (besides an optional system object)")
    version, dim, funcs, kern = doc["version"], doc["dim"], doc["functionals"], doc["kernel"]
    if type(version) is not int or version != SERIAL_VERSION:
        raise InvalidModel(f"unsupported model version {version!r}")
    if type(dim) is not int or dim < 1:
        raise InvalidModel(f"dim must be a positive integer, got {dim!r}")
    _object(kern, ("family", "epsilon"), "kernel")
    if not isinstance(funcs, list):
        raise InvalidModel("functionals must be a list")
    for f in funcs:
        _object(f, ("center", "coord"), "every functional")
    lists = [doc["coeffs"], *(f["center"] for f in funcs)]
    if not all(isinstance(v, list) for v in lists) or not all(
            type(v) in (int, float)
            for v in [kern["epsilon"], doc["delta_T"], *(v for vs in lists for v in vs)]):
        raise InvalidModel("epsilon and delta_T must be numbers, coeffs and centers lists of them")
    try:
        kernel = KernelSpec(kern["family"], float(kern["epsilon"]))
        delta_t = float(doc["delta_T"])
        centers = np.array([f["center"] for f in funcs], dtype=float)
        if not funcs:
            centers = centers.reshape(0, dim)    # ValueError past numpy's size limit
        coeffs = np.array(doc["coeffs"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidModel(f"malformed model entry: {type(exc).__name__}: {exc}") from None
    if funcs and centers.shape != (len(funcs), dim):
        raise InvalidModel(f"every center must be a list of dim={dim} numbers")
    coords = [f["coord"] for f in funcs]
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
