import numpy as np
import pytest

from symkern import experiment
from symkern.config import default_config
from symkern.errors import DimensionMismatch, RankDeficient, TooManySnapshots
from symkern.integrators import midpoint_many, propagate, step_count
from symkern.mor import csvd_basis, reduce_quadratic
from symkern.systems import Quadratic, Wave, jmat


def wave_snapshots(n_grid=200, modes=2):
    w = Wave(n_grid=n_grid)
    cols = []
    for a in range(1, modes + 1):
        for b in range(1, modes + 1):
            cols.append(np.concatenate([w.sine_mode(a), w.sine_mode(b)]))
    X = np.stack(cols, axis=1)
    return w, X[: w.n, :], X[w.n:, :]


def test_single_snapshot_hand_normalization():
    # y = e1 + i e2 in C^2 has norm sqrt(2); U = y / sqrt(2)
    Q = np.array([[1.0], [0.0]])
    P = np.array([[0.0], [1.0]])
    basis = csvd_basis(Q, P, 1)
    assert basis.v.shape == (4, 2)
    s = 1 / np.sqrt(2)
    assert np.allclose(basis.v[:, 0], [s, 0.0, 0.0, s])
    assert np.max(np.abs(basis.v.T @ jmat(2) @ basis.v - jmat(1))) <= 1e-12


def test_real_orthonormal_snapshots():
    basis = csvd_basis(np.eye(2), np.zeros((2, 2)), 2)
    assert np.max(np.abs(basis.v.T @ jmat(2) @ basis.v - jmat(2))) <= 1e-14
    assert np.max(np.abs(basis.v_plus @ basis.v - np.eye(4))) <= 1e-14


def test_wave_sine_mode_basis_symplectic():
    _, Q, P = wave_snapshots()
    for n_red in (1, 2, 3, 4):
        try:
            basis = csvd_basis(Q, P, n_red)
        except RankDeficient:
            # the four sine-mode snapshots span two complex modes, so the
            # higher ranks may legitimately be rejected
            assert n_red > 2
            continue
        assert basis.symplecticity_defect() <= 1e-10


def test_too_many_snapshots():
    with pytest.raises(TooManySnapshots):
        csvd_basis(np.ones((100, 65)), np.ones((100, 65)), 1)


def test_rank_deficient_detection():
    Q = np.zeros((4, 2))
    Q[:, 0] = [1.0, 0, 0, 0]
    Q[:, 1] = [1.0, 0, 0, 0]        # duplicate snapshot column
    with pytest.raises(RankDeficient):
        csvd_basis(Q, np.zeros((4, 2)), 2)


def test_restrict_lift_round_trips():
    _, Q, P = wave_snapshots(n_grid=50)
    basis = csvd_basis(Q, P, 2)
    rng = np.random.default_rng(4)
    assert np.allclose(basis.restrict(np.zeros(100)), 0.0)
    assert np.allclose(basis.lift(np.zeros(4)), 0.0)
    z = rng.standard_normal(4)
    assert np.max(np.abs(basis.restrict(basis.lift(z)) - z)) <= 1e-10
    x = basis.lift(rng.standard_normal(4))
    assert np.max(np.abs(basis.lift(basis.restrict(x)) - x)) <= 1e-9


def test_reduce_quadratic_identity_embedding():
    # distinct singular values pin U to the identity up to column signs,
    # which cancel for a diagonal quadratic form
    basis = csvd_basis(np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3)), 3)
    sys_ = Quadratic(np.diag([1.0, 2.0, 3.0, 1.0, 1.0, 1.0]))
    red = reduce_quadratic(basis, sys_)
    assert np.allclose(red.hmat, sys_.hmat)


def test_reduce_quadratic_matches_matrix_product():
    _, Q, P = wave_snapshots(n_grid=30)
    basis = csvd_basis(Q, P, 2)
    sys_ = Quadratic(np.eye(60))
    red = reduce_quadratic(basis, sys_)
    assert np.max(np.abs(red.hmat - basis.v.T @ basis.v)) <= 1e-12


def test_dimension_mismatch():
    basis = csvd_basis(np.eye(2), np.zeros((2, 2)), 1)
    with pytest.raises(DimensionMismatch):
        reduce_quadratic(basis, Quadratic(np.eye(6)))


def test_reduced_dynamics_are_canonical():
    w, Q, P = wave_snapshots(n_grid=20)
    basis = csvd_basis(Q, P, 2)
    red = reduce_quadratic(basis, w)
    rng = np.random.default_rng(8)
    z0 = rng.standard_normal(4)
    x0 = basis.lift(z0)
    dt = 0.05
    z1 = propagate(red, z0, dt, 1).states[-1]
    x1 = propagate(w, x0, dt, 1).states[-1]
    assert np.max(np.abs(z1 - basis.restrict(x1))) <= 1e-8


def test_reduced_midpoint_conserves_energy():
    w, Q, P = wave_snapshots()
    basis = csvd_basis(Q, P, 2)
    red = reduce_quadratic(basis, w)
    rng = np.random.default_rng(11)
    z0 = rng.uniform(-1, 1, 4)
    path = midpoint_many(red, z0[None, :], 0.05, 100, keep_path=True)[:, 0, :]
    H = red.energy_many(path)
    assert np.max(np.abs(H - H[0])) <= 1e-10 * max(1.0, abs(H[0]))


def test_basis_sizes_and_inverse_derive_from_v():
    # the values csvd_basis stored before they were derived from v
    w, Q, P = wave_snapshots(n_grid=30, modes=2)
    basis = csvd_basis(Q, P, 3)
    assert (basis.full_n, basis.reduced_n) == (30, 3)
    assert basis.v.shape == (60, 6)
    assert np.array_equal(basis.v_plus, jmat(3).T @ basis.v.T @ jmat(30))
    assert basis.v_plus is basis.v_plus
    assert np.array_equal(w.sine_snapshots(2).T, np.vstack([Q, P]))


def test_wave_reduction_is_exact_on_the_test_states():
    # the desk wave's basis spans sine modes 1 and 2, which the linear wave
    # maps onto themselves, so the reduced midpoint path lifted to the grid
    # is the full-order midpoint path from the lifted states up to roundoff.
    # At micro_dt 1e-3 the relative difference reads 9.7e-11 after 100 and
    # after 1000 steps and 1.3e-10 after 6000 (1.3e-12 at 1e-2 over 600
    # steps): it levels off where the full-order step rounds, so the bound
    # is 1e-9, not 1e-10.
    cfg = default_config("wave")
    cfg["test"].update(count=3, horizon=1.0)
    reduced, basis = experiment.build_system(cfg)
    s = cfg["system"]
    full = Wave(s["n_grid"], s["wave_speed"], s["length"])
    steps = step_count(cfg["test"]["horizon"], cfg["micro_dt"])
    # experiment.test_states: pytest would collect the bare name as a test
    z0 = experiment.test_states(cfg, reduced)
    lifted = basis.lift(midpoint_many(reduced, z0, cfg["micro_dt"], steps, keep_path=True))
    path = midpoint_many(full, basis.lift(z0), cfg["micro_dt"], steps, keep_path=True)
    rel = np.linalg.norm(lifted - path, axis=2) / np.linalg.norm(path, axis=2)
    assert path.shape == (steps + 1, 3, 2 * s["n_grid"])
    assert np.max(rel) <= 1e-9


def test_wave_manifest_records_the_reduction(tmp_path):
    # the test states are lifted from the reduced space, so projecting them
    # back onto the basis loses nothing but roundoff
    import json

    from test_trace_sites import _tiny

    cfg = _tiny("wave")
    experiment.run_experiment(cfg, str(tmp_path), rollouts=False)
    mor = json.loads((tmp_path / "MANIFEST.json").read_text())["mor"]
    assert set(mor) == {"full_dim", "reduced_dim", "symplecticity_defect", "projection_defect"}
    s = cfg["system"]
    assert mor["full_dim"] == 2 * s["n_grid"] and mor["reduced_dim"] == 2 * s["reduced_modes"]
    assert 0 <= mor["symplecticity_defect"] <= 1e-10
    assert 0 <= mor["projection_defect"] <= 1e-10


def test_only_the_wave_manifest_records_a_reduction(tmp_path):
    import json

    from test_trace_sites import _tiny

    experiment.run_experiment(_tiny("pendulum"), str(tmp_path), rollouts=False)
    assert "mor" not in json.loads((tmp_path / "MANIFEST.json").read_text())
