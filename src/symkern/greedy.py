"""f-greedy selection over derivative-data functionals.

Each data point contributes one candidate functional per coordinate.  The
trainer keeps a Newton basis of the selected representers and updates all
candidate residuals and squared power values in O(pool * m) per iteration;
the selected-functional Gram matrix is never refactorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyDataset, InsufficientTrace
from .kernels import KernelSpec, mixed2_field, mixed2_self
from .linalg import _tri_solve_upper
from .surrogate import HBDataset, Surrogate, TargetErrorNorm
# The from-scratch forms of TargetErrorNorm, kept importable under these
# names because perfbench/tracing.py wraps them here.
from .surrogate import fit, rkhs_norm  # noqa: F401

# Selection stops once the power value of the best candidate drops below
# this; the Newton-basis extension divides by it.
POWER_CUTOFF = 1e-7


@dataclass
class GreedyConfig:
    max_centers: int
    residual_tolerance: float = 0.0

    def __post_init__(self):
        if self.max_centers < 1:
            raise ValueError("max_centers must be >= 1")
        if self.residual_tolerance < 0:
            raise ValueError("residual_tolerance must be nonnegative")


@dataclass
class GreedyTrace:
    """Per-iteration record of the selection process.

    Record m describes the m-center surrogate at the moment the (m+1)-th
    functional is picked: max_residual is E(m) over the pool, power_value
    the power function at the pick, val_residual the residual over the
    validation pool, rkhs_error the native-space error (synthetic targets
    only).  The residuals of the completed surrogate land in the final_*
    fields.  newton_coeffs holds c_m per pick and newton_factor the Newton
    triangular factor L = tril(Z[sel, :m]); with the picks and b_m
    (power_value) they are all a validation replay needs.  max_m is the
    fit's cap on the centers.
    """

    dim: int
    max_m: int
    point_index: list = field(default_factory=list)
    coord: list = field(default_factory=list)
    max_residual: list = field(default_factory=list)
    power_value: list = field(default_factory=list)
    rkhs_error: list = field(default_factory=list)
    val_residual: list = field(default_factory=list)
    final_train_residual: float | None = None
    final_val_residual: float | None = None
    newton_coeffs: list = field(default_factory=list)
    newton_factor: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __len__(self):
        return len(self.point_index)

    def rows(self):
        """Rows for CSV export: iter, selected_index, coord, max_residual,
        power_value, rkhs_error (blank in data mode)."""
        out = []
        for m in range(len(self)):
            err = self.rkhs_error[m] if m < len(self.rkhs_error) else None
            out.append((m, self.point_index[m], self.coord[m], self.max_residual[m],
                        self.power_value[m], "" if err is None else err))
        return out

    def convergence_rows(self):
        """Rows (centers, train residual, val residual) including the final
        surrogate; val entries are blank without a validation set."""
        out = []
        for m in range(len(self)):
            val = self.val_residual[m] if m < len(self.val_residual) else ""
            out.append((m, self.max_residual[m], val))
        if self.final_train_residual is not None:
            out.append((len(self), self.final_train_residual,
                        self.final_val_residual if self.final_val_residual is not None else ""))
        return out


def train_f_greedy(kernel: KernelSpec, data: HBDataset, cfg: GreedyConfig,
                   validation: HBDataset | None = None,
                   synthetic_target: Surrogate | None = None,
                   picks: tuple | None = None):
    """Greedy minimum-norm interpolation of the derivative data.

    At every iteration the functional with the largest residual is added
    (ties by lowest candidate index), the interpolant is extended through
    the Newton basis, and the trace is appended.  Selection ends at
    max_centers, when the residual drops below the tolerance, or when the
    best candidate's power value falls under POWER_CUTOFF.  The validation
    residuals are replayed over the picks once selection has ended.

    picks is the (surrogate, trace) of an earlier fit of this kernel to
    this data.  When that fit ran under the same cap on the centers and
    none of its residuals fell below cfg's tolerance, this fit would pick
    the same functionals, so its surrogate and trace are returned with
    the validation replayed onto a copy of the trace; otherwise picks is
    ignored and the fit runs.

    Returns (surrogate, trace).
    """
    if data.count == 0:
        raise EmptyDataset("training dataset is empty")
    max_m = min(cfg.max_centers, data.count * data.dim)
    # a fit under the same cap that no residual under the tolerance cut
    # short makes the same picks
    if (picks is not None and synthetic_target is None and picks[1].max_m == max_m
            and all(a >= cfg.residual_tolerance for a in picks[1].max_residual)):
        surr, trace = picks[0], replace(picks[1], val_residual=[])
    else:
        surr, trace = _select(kernel, data, max_m, cfg.residual_tolerance, synthetic_target)
    if validation is not None and validation.count > 0:
        _replay_validation(kernel, data.inputs, trace, validation)
    return surr, trace


def _select(kernel, data, max_m, tolerance, synthetic_target):
    """The greedy loop over the training pool; returns (surrogate, trace)."""
    X = data.inputs
    d = data.dim
    n_cand = X.shape[0] * d
    if synthetic_target is not None:
        Y = synthetic_target.gradient_many(X)
        error_norm = TargetErrorNorm(kernel, synthetic_target, max_m)
    else:
        Y = data.targets

    y_flat = Y.ravel()
    r = y_flat.copy()
    p2 = np.full(n_cand, mixed2_self(kernel))
    Z = np.empty((n_cand, max_m))
    available = np.ones(n_cand, dtype=bool)
    selected: list[int] = []
    trace = GreedyTrace(dim=d, max_m=max_m)

    for m in range(max_m):
        i_star = int(np.argmax(np.where(available, np.abs(r), -1.0)))
        a_m = float(np.abs(r[i_star]))
        if a_m < tolerance:
            break
        b_m = float(np.sqrt(max(p2[i_star], 0.0)))
        if b_m < POWER_CUTOFF:
            break
        if synthetic_target is not None:
            sel = np.asarray(selected, dtype=int)
            trace.rkhs_error.append(error_norm(X[sel // d], sel % d, y_flat[sel]))

        trace.max_residual.append(a_m)
        trace.power_value.append(b_m)

        j_star, a_star = divmod(i_star, d)
        col = mixed2_field(kernel, X, X[j_star], a_star).ravel()
        z = (col - Z[:, :m] @ Z[i_star, :m]) / b_m
        c_m = r[i_star] / b_m
        r -= c_m * z
        p2 -= z * z
        Z[:, m] = z

        available[i_star] = False
        selected.append(i_star)
        trace.newton_coeffs.append(float(c_m))
        trace.point_index.append(j_star)
        trace.coord.append(a_star)

    trace.final_train_residual = float(np.max(np.abs(r)))
    m_sel = len(selected)
    if m_sel == 0:
        return Surrogate.empty(kernel, d), trace
    sel = np.asarray(selected)
    # Newton triangular factor of the selected Gram: entries above the
    # diagonal are exact zeros of the orthogonalization, drop the roundoff.
    trace.newton_factor = np.tril(Z[sel, :m_sel])
    coeffs = _tri_solve_upper(trace.newton_factor.T, np.asarray(trace.newton_coeffs))
    surr = Surrogate(kernel, X[sel // d].copy(), (sel % d).astype(int), coeffs)
    return surr, trace


def _replay_validation(kernel, X, trace, validation):
    """Fill the trace's validation residuals from its picks alone.

    Pick m's validation column is orthogonalized with row m of the Newton
    factor, L[m, :m] = Z[pick, :m], and takes off c_m times itself: the
    operations the training loop runs on its own pool, on the same values,
    so the residuals match a validation pool carried through the loop bit
    for bit.  Zv keeps the loop's width max_m, and so its memory layout.
    """
    Xv = validation.inputs
    rv = validation.targets.ravel().copy()
    Zv = np.empty((rv.size, trace.max_m))
    L = trace.newton_factor
    for m, (j, a, b_m, c_m) in enumerate(zip(trace.point_index, trace.coord,
                                             trace.power_value, trace.newton_coeffs)):
        trace.val_residual.append(float(np.max(np.abs(rv))))
        col_v = mixed2_field(kernel, Xv, X[j], a).ravel()
        zv = (col_v - Zv[:, :m] @ L[m, :m]) / b_m
        rv -= c_m * zv
        Zv[:, m] = zv
    trace.final_val_residual = float(np.max(np.abs(rv)))


def residual_vector(s: Surrogate, data: HBDataset):
    """Residual matrix (points x coords): targets minus surrogate gradient."""
    return data.targets - s.gradient_many(data.inputs)


def max_residual_error(s: Surrogate, data: HBDataset) -> float:
    """Worst-case gradient mismatch over the dataset."""
    return float(np.max(np.abs(residual_vector(s, data))))


def verify_block_bound(trace: GreedyTrace, m: int):
    """Evaluate the block residual bound on a synthetic-target trace.

    Both sides carry the sqrt(dim) factor converting max-coordinate
    residuals to Euclidean gradient norms.  Returns (lhs, rhs, holds).
    """
    if m < 1:
        raise InsufficientTrace("m must be >= 1")
    if len(trace.rkhs_error) == 0:
        raise InsufficientTrace("trace has no native-space errors (data-mode run)")
    if len(trace) <= 2 * m:
        raise InsufficientTrace(f"need trace through iteration {2 * m}, have {len(trace)}")
    scale = np.sqrt(trace.dim)
    a = np.asarray(trace.max_residual[m + 1: 2 * m + 1])
    b = np.asarray(trace.power_value[m + 1: 2 * m + 1])
    lhs = scale * float(np.min(a))
    geo = float(np.exp(np.mean(np.log(b))))
    rhs = scale * m**-0.5 * trace.rkhs_error[m + 1] * geo
    return lhs, rhs, bool(lhs <= rhs + 1e-10)
