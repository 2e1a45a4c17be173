import numpy as np
import pytest

import symkern.data as data_mod
from symkern.data import (
    SamplerSpec,
    build_hb_dataset,
    sample_states,
    separability_diagnostic,
    split_train_validation,
)
from symkern.errors import FilterTooTight, NotOneDOF, TooFewSamples
from symkern.integrators import propagate
from symkern.systems import Chain, Pendulum, Quadratic, Wave

PEND = Pendulum()
P_MAX = 2 * np.sqrt(9.81)
PEND_BOUNDS = [(-np.pi, np.pi), (-P_MAX, P_MAX)]


def test_strict_energy_cap_excludes_boundary():
    spec = SamplerSpec(PEND_BOUNDS, counts=[3, 3],
                       energy_cap=2 * 9.81, energy_strict=True)
    # the 3x3 grid contains (0, p_max) with H exactly 2g and (0, 0) with H=0
    states = sample_states(PEND, spec)
    H = PEND.energy_many(states)
    assert np.all(H < 2 * 9.81)
    assert any(np.allclose(s, [0.0, 0.0]) for s in states)
    assert not any(np.allclose(s, [0.0, P_MAX]) for s in states)


def test_inclusive_cap_keeps_boundary():
    spec = SamplerSpec(PEND_BOUNDS, counts=[3, 3],
                       energy_cap=2 * 9.81, energy_strict=False)
    states = sample_states(PEND, spec)
    assert any(np.allclose(s, [0.0, P_MAX]) for s in states)


def test_energy_filter_rejects_something():
    spec = SamplerSpec(PEND_BOUNDS, counts=[21, 21],
                       energy_cap=2 * 9.81, energy_strict=True)
    states = sample_states(PEND, spec)
    assert 0 < states.shape[0] < 21 * 21
    assert np.all(PEND.energy_many(states) < 2 * 9.81)


def test_halfspace_filter():
    spec = SamplerSpec(PEND_BOUNDS, counts=[11, 11],
                       energy_cap=2 * 9.81, energy_strict=True, halfspace=(1, +1))
    states = sample_states(PEND, spec)
    assert np.all(states[:, 1] <= 0.0)


def test_box_sampler_deterministic():
    chain = Chain()
    spec = SamplerSpec([(-0.5, 0.5)] * 6, target_count=50,
                       seed=42, energy_cap=0.5)
    a = sample_states(chain, spec)
    b = sample_states(chain, spec)
    assert np.array_equal(a, b)
    assert a.shape == (50, 6)
    assert np.all(chain.energy_many(a) <= 0.5)


def test_filter_too_tight(monkeypatch):
    monkeypatch.setattr(data_mod, "MAX_DRAWS", 20000)
    spec = SamplerSpec([(-0.5, 0.5)] * 2, target_count=10,
                       seed=0, energy_cap=-1.0)
    with pytest.raises(FilterTooTight):
        sample_states(PEND, spec)


def test_sine_mode_sampler():
    w = Wave(n_grid=30)
    states = w.sine_snapshots(2)
    assert states.shape == (4, 60)
    assert np.allclose(states[0][: w.n], w.sine_mode(1))
    assert np.allclose(states[3][w.n:], w.sine_mode(2))


def test_dataset_equilibrium():
    ds = build_hb_dataset(PEND, np.zeros((1, 2)), 0.1, 1e-3)
    assert np.allclose(ds.inputs[0], 0.0)
    assert np.allclose(ds.targets[0], 0.0, atol=1e-12)


def test_dataset_free_drift_hand_values():
    # H = p^2 / 2: the state drifts (0, 1) -> (0.1, 1) over dT = 0.1
    free = Quadratic(np.diag([0.0, 1.0]))
    ds = build_hb_dataset(free, np.array([[0.0, 1.0]]), 0.1, 1e-3)
    assert np.allclose(ds.inputs[0], [0.0, 1.0], atol=1e-12)
    assert np.allclose(ds.targets[0], [0.0, 1.0], atol=1e-10)


def test_dataset_short_step_approaches_vector_field():
    rng = np.random.default_rng(3)
    states = rng.uniform(-0.8, 0.8, (10, 2))
    ds = build_hb_dataset(PEND, states, 1e-3, 1e-3)
    grads = PEND.grad_many(states)
    err = np.max(np.abs(ds.targets - grads))
    assert err <= 1e-2 * (1 + np.max(np.abs(grads)))


def test_dataset_requires_divisible_steps():
    with pytest.raises(ValueError):
        build_hb_dataset(PEND, np.zeros((1, 2)), 0.1, 3e-4)


def test_momentum_reversal_mirror():
    # data built from (q, -p) equals the mirrored backward-time reference
    chain = Chain()
    rng = np.random.default_rng(5)
    dt, micro = 0.1, 1e-3
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, 6)
        flipped = np.concatenate([x[:3], -x[3:]])
        ds = build_hb_dataset(chain, flipped[None, :], dt, micro)
        back = propagate(chain, x, -micro, 100).states[-1]
        mirrored_xi = np.concatenate([x[:3], -back[3:]])
        assert np.max(np.abs(ds.inputs[0] - mirrored_xi)) <= 1e-6


def test_split_shapes_and_determinism():
    rng = np.random.default_rng(8)
    ds = build_hb_dataset(PEND, rng.uniform(-0.5, 0.5, (10, 2)), 0.1, 1e-2)
    a1, b1 = split_train_validation(ds, 0.8, seed=3)
    a2, b2 = split_train_validation(ds, 0.8, seed=3)
    assert a1.count == 8 and b1.count == 2
    assert np.array_equal(a1.inputs, a2.inputs) and np.array_equal(b1.inputs, b2.inputs)
    merged = np.vstack([a1.inputs, b1.inputs])
    assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.inputs, axis=0))


def test_split_too_few():
    ds = build_hb_dataset(PEND, np.zeros((1, 2)), 0.1, 1e-2)
    with pytest.raises(TooFewSamples):
        split_train_validation(ds, 0.5, seed=0)


def test_separability_tables_structure():
    ds = build_hb_dataset(PEND, np.zeros((3, 2)), 0.1, 1e-2)
    a, b = separability_diagnostic(ds)
    assert np.allclose(a["output"], 0.0, atol=1e-12)
    assert len(a["input"]) == 6
    assert np.allclose(b["y_q"], 0.0, atol=1e-12)


def test_separability_needs_one_dof():
    ds = build_hb_dataset(Chain(), np.zeros((2, 6)), 0.1, 1e-2)
    with pytest.raises(NotOneDOF):
        separability_diagnostic(ds)


def test_counts_pick_the_grid_and_their_absence_the_box():
    grid = sample_states(PEND, SamplerSpec(PEND_BOUNDS, counts=[3, 4], target_count=5, seed=1))
    axes = np.meshgrid(np.linspace(-np.pi, np.pi, 3), np.linspace(-P_MAX, P_MAX, 4),
                       indexing="ij")
    assert np.array_equal(grid, np.stack([a.ravel() for a in axes], axis=1))
    box = sample_states(PEND, SamplerSpec(PEND_BOUNDS, target_count=5, seed=1))
    lo, hi = np.array(PEND_BOUNDS).T
    draws = np.random.default_rng(1).uniform(lo, hi, size=(data_mod.BOX_CHUNK, 2))
    assert np.array_equal(box, draws[:5])
    with pytest.raises(ValueError, match="box sampler needs target_count"):
        sample_states(PEND, SamplerSpec(PEND_BOUNDS, seed=1))
