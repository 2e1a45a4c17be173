import numpy as np
import pytest

from symkern.errors import EmptySeries, GridMismatch
from symkern.integrators import Trajectory
from symkern.metrics import MetricSeries, compute_metrics, mean_series, relative_error
from symkern.plots import emit_line_plot
from symkern.systems import Quadratic


def traj(states, step):
    states = np.asarray(states, dtype=float)
    return Trajectory(states=states, step=step)


def test_relative_error_hand_value():
    ref = traj([[1.0, 0.0], [0.8, 0.6]], 0.1)
    pred = traj([[1.0, 0.0], [1.0, 0.0]], 0.1)
    series = relative_error(pred, ref, "pred")
    assert series.y[0] == 0.0
    assert series.y[1] == pytest.approx(np.sqrt(0.4), rel=1e-12)


def test_relative_error_zero_for_identical():
    ref = traj(np.random.default_rng(0).standard_normal((11, 4)), 0.01)
    assert np.allclose(relative_error(ref, ref, "x").y, 0.0)


def test_energy_error_constant_trajectory():
    sys_ = Quadratic(np.eye(2))
    t = traj([[1.0, 0.0]] * 5, 0.1)
    mets = compute_metrics(t, t, traj([[1.0, 0.0]] * 41, 0.0125), sys_)
    assert np.allclose(mets["energy_pred"].y, 0.0)


def test_grid_mismatch_rejected():
    ref = traj(np.zeros((11, 2)), 0.013)
    pred = traj(np.zeros((3, 2)), 0.1)
    with pytest.raises(GridMismatch):
        relative_error(pred, ref, "x")


def test_reference_too_short_rejected():
    ref = traj(np.zeros((5, 2)), 0.1)
    pred = traj(np.zeros((11, 2)), 0.1)
    with pytest.raises(GridMismatch):
        relative_error(pred, ref, "x")


def test_mean_series():
    a = MetricSeries("a", [0.0, 1.0], [1.0, 3.0])
    b = MetricSeries("b", [0.0, 1.0], [3.0, 5.0])
    m = mean_series([a, b], "mean")
    assert np.allclose(m.y, [2.0, 4.0])
    with pytest.raises(GridMismatch):
        mean_series([a, MetricSeries("c", [0.0, 2.0], [0.0, 0.0])], "bad")


def test_series_must_increase():
    with pytest.raises(ValueError):
        MetricSeries("x", [0.0, 0.0], [1.0, 1.0])


def test_plot_single_series(tmp_path):
    path = tmp_path / "one.svg"
    emit_line_plot(path, [MetricSeries("s", [1.0, 2.0], [0.5, 0.25])],
                   xscale="linear", yscale="log")
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert "<svg" in text and "</svg>" in text


def test_plot_clamps_nonpositive_on_log_axis(tmp_path):
    path = tmp_path / "clamp.svg"
    emit_line_plot(path, [MetricSeries("s", [1.0, 2.0, 3.0], [1.0, 0.0, 0.5])],
                   xscale="linear", yscale="log")
    text = path.read_text()
    assert "clamped" in text


def test_plot_empty_series_rejected(tmp_path):
    with pytest.raises(EmptySeries):
        emit_line_plot(tmp_path / "x.svg", [], xscale="linear", yscale="log")


def test_plot_bytes_deterministic(tmp_path):
    series = [MetricSeries("a", [1.0, 2.0, 4.0], [1e-3, 1e-5, 1e-6]),
              MetricSeries("b", [1.0, 2.0, 4.0], [2e-3, 1e-4, 3e-6])]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_line_plot(p1, series, xscale="log", yscale="log", xlabel="m", ylabel="e")
    emit_line_plot(p2, series, xscale="log", yscale="log", xlabel="m", ylabel="e")
    assert p1.read_bytes() == p2.read_bytes()
