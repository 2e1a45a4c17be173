import numpy as np
import pytest

import kernel_reference as ref
from symkern.errors import EmptySeries
from symkern.integrators import Trajectory, midpoint_many, propagate, step_count
from symkern.metrics import MetricSeries, compute_metrics, mean_series
from symkern.plots import emit_line_plot
from symkern.systems import Chain, Pendulum, Quadratic


def test_relative_error_hand_value():
    path = np.array([[[1.0, 0.0], [0.8, 0.6]]])
    pred = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    rel = compute_metrics(pred, pred, path, Quadratic(np.eye(2)))["rel_pred"]
    assert rel[0, 0] == 0.0
    assert rel[0, 1] == pytest.approx(np.sqrt(0.4), rel=1e-12)


def test_relative_error_zero_for_identical():
    states = np.random.default_rng(0).standard_normal((1, 11, 4))
    assert np.allclose(compute_metrics(states, states, states,
                                       Quadratic(np.eye(4)))["rel_pred"], 0.0)


def test_energy_error_constant_trajectory():
    sys_ = Quadratic(np.eye(2))
    t = np.array([[[1.0, 0.0]] * 5])
    micro_path = np.array([[[1.0, 0.0]]] * 41)
    mets = compute_metrics(t, t, micro_path[: 4 * 8 + 1 : 8].swapaxes(0, 1), sys_)
    assert np.allclose(mets["energy_pred"], 0.0)


def test_mean_series():
    m = mean_series(np.array([[1.0, 3.0], [3.0, 5.0]]), [0.0, 1.0], "mean")
    assert np.allclose(m.y, [2.0, 4.0])
    assert m.label == "mean" and m.x.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("count", [3, 10])
@pytest.mark.parametrize("sys_", [
    Pendulum(), Chain(2), Chain(3),
    Quadratic(np.diag([1.0, 2.0, 3.0, 1.5, 0.5, 2.5]) + 0.1),
], ids=lambda s: f"{s.name}-d{s.dim}")
def test_array_metrics_match_per_trajectory_forms(sys_, count):
    # the experiment's layout: rollouts stacked per macro step, the micro
    # reference kept at the gcd stride and read through a strided,
    # axes-swapped view
    rng = np.random.default_rng(count)
    ics = rng.uniform(-0.5, 0.5, (count, sys_.dim))
    micro, gcd = 0.01, 2
    path = midpoint_many(sys_, ics, micro, 120, every=gcd)
    for dt in (0.04, 0.06):
        steps = step_count(1.2, dt)
        stride = step_count(dt, micro) // gcd
        base = [propagate(sys_, x0, dt, steps) for x0 in ics]
        pred = [Trajectory(b.states + 1e-3 * rng.standard_normal(b.states.shape), dt)
                for b in base]
        t = pred[0].times
        errors = compute_metrics(np.stack([p.states for p in pred]),
                                 np.stack([b.states for b in base]),
                                 path[: steps * stride + 1 : stride].swapaxes(0, 1), sys_)
        per_ic = [ref.trajectory_metrics(pred[i], base[i], Trajectory(path[:, i], micro * gcd),
                                         sys_) for i in range(count)]
        assert list(errors) == list(per_ic[0])
        for k, values in errors.items():
            assert values.shape == (count, steps + 1)
            assert np.array_equal(values, [m[k].y for m in per_ic]), k
            want = ref.mean_series([m[k] for m in per_ic], k)
            got = mean_series(values, t, k)
            assert np.array_equal(got.y, want.y), k
            if k != "energy_reference":
                assert np.array_equal(got.x, want.x), k


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
