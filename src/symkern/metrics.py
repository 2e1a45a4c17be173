"""Error measures over rollouts: relative state error and energy error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .integrators import Trajectory, step_count
from .systems import HamiltonianSystem


@dataclass
class MetricSeries:
    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("series abscissae/values must be matching 1-d arrays")
        if self.x.size > 1 and not np.all(np.diff(self.x) > 0):
            raise ValueError("series abscissae must be strictly increasing")


def _macro_stride(macro: Trajectory, reference: Trajectory) -> int:
    K = step_count(macro.step, reference.step)
    if K is None:
        raise GridMismatch(f"macro step {macro.step} not on the reference grid {reference.step}")
    if macro.steps * K > reference.steps:
        raise GridMismatch("reference trajectory shorter than the macro rollout")
    return K


def relative_error(approx: Trajectory, reference: Trajectory, label: str) -> MetricSeries:
    """||x_approx - x_ref||_2 / ||x_ref||_2 at every macro time."""
    K = _macro_stride(approx, reference)
    ref = reference.states[:: K][: approx.states.shape[0]]
    num = np.linalg.norm(approx.states - ref, axis=1)
    den = np.linalg.norm(ref, axis=1)
    return MetricSeries(label, approx.times, num / den)


def energy_error(traj: Trajectory, sys: HamiltonianSystem, label: str,
                 stride: int = 1) -> MetricSeries:
    """|H(x0) - H(x(t))| along a trajectory, subsampled by stride."""
    states = traj.states[::stride]
    H = sys.energy_many(states)
    return MetricSeries(label, traj.times[::stride], np.abs(H - H[0]))


def compute_metrics(pred: Trajectory, baseline: Trajectory, reference: Trajectory,
                    sys: HamiltonianSystem) -> dict:
    """Standard series set for one test trajectory."""
    K = _macro_stride(pred, reference)
    return {
        "rel_pred": relative_error(pred, reference, "predictor"),
        "rel_baseline": relative_error(baseline, reference, "baseline"),
        "energy_pred": energy_error(pred, sys, "predictor"),
        "energy_baseline": energy_error(baseline, sys, "baseline"),
        "energy_reference": energy_error(reference, sys, "reference", stride=K),
    }


def mean_series(series_list, label: str) -> MetricSeries:
    """Pointwise mean of series sharing one abscissa grid."""
    if not series_list:
        raise ValueError("cannot average an empty series list")
    x0 = series_list[0].x
    for s in series_list[1:]:
        if s.x.shape != x0.shape or np.max(np.abs(s.x - x0), initial=0.0) > 1e-12:
            raise GridMismatch("series grids differ")
    return MetricSeries(label, x0, np.mean([s.y for s in series_list], axis=0))
