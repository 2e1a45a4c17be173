"""Error measures over rollouts: relative state error and energy error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def compute_metrics(pred, baseline, reference, sys: HamiltonianSystem) -> dict:
    """The five error arrays, each (ICs, times), of predictor, baseline and
    reference states stacked as (ICs, times, 2n) on one time grid:
    ||x - x_ref||_2 / ||x_ref||_2 and |H(x(0)) - H(x(t))|."""
    ref_norm = np.linalg.norm(reference, axis=-1)

    def energy(states):
        # one energy_many per trajectory keeps each row's bits
        H = np.stack([sys.energy_many(s) for s in states])
        return np.abs(H - H[:, :1])

    return {
        "rel_pred": np.linalg.norm(pred - reference, axis=-1) / ref_norm,
        "rel_baseline": np.linalg.norm(baseline - reference, axis=-1) / ref_norm,
        "energy_pred": energy(pred),
        "energy_baseline": energy(baseline),
        "energy_reference": energy(reference),
    }


def mean_series(values, t, label: str) -> MetricSeries:
    """Mean over the rows of an (ICs, times) error array, against times t."""
    return MetricSeries(label, t, np.mean(values, axis=0))
