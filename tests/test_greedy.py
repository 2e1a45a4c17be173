import numpy as np
import pytest

import kernel_reference as ref
from symkern import greedy, kernels
from symkern.errors import EmptyDataset, InsufficientTrace
from symkern.greedy import (
    GreedyConfig,
    max_residual_error,
    train_f_greedy,
    verify_block_bound,
)
from symkern.kernels import FAMILIES, KernelSpec
from symkern.surrogate import DerivFunctional, HBDataset, Surrogate, target_errors

GAUSS = KernelSpec("gaussian", 1.0)


def make_dataset(inputs, targets, dt=0.1):
    return HBDataset(inputs=np.asarray(inputs, float), targets=np.asarray(targets, float),
                     delta_t=dt)


def synthetic_setup(seed=123, n_points=100, n_rep=10, box=4.0, include_reps=False):
    """Native-space target from random derivative representers, plus a pool.

    With include_reps the representers join the candidate pool, so the
    greedy eventually captures the target span exactly and the error
    collapses to the rounding floor.
    """
    rng = np.random.default_rng(seed)
    rep_pts = rng.uniform(-box, box, (n_rep, 2))
    rep_coords = rng.integers(0, 2, n_rep)
    u = Surrogate.from_functionals(
        GAUSS, [DerivFunctional(p, int(a)) for p, a in zip(rep_pts, rep_coords)],
        rng.standard_normal(n_rep))
    if include_reps:
        pool_pts = np.vstack([rep_pts, rng.uniform(-box, box, (n_points - n_rep, 2))])
    else:
        pool_pts = rng.uniform(-box, box, (n_points, 2))
    data = make_dataset(pool_pts, u.gradient_many(pool_pts))
    return u, data


def test_full_interpolation_single_point():
    data = make_dataset([[0.4, -0.2]], [[1.0, 2.0]])
    surr, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=2))
    assert surr.size == 2
    assert max_residual_error(surr, data) <= 1e-8
    assert len(trace) == 2


def test_zero_targets_give_zero_surrogate():
    data = make_dataset([[0.0, 0.0], [1.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]])
    surr, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=3))
    assert np.allclose(surr.coeffs, 0.0)
    assert np.allclose(trace.max_residual, 0.0)


def test_selected_residuals_vanish():
    rng = np.random.default_rng(2)
    data = make_dataset(rng.uniform(-2, 2, (30, 2)), rng.standard_normal((30, 2)))
    surr, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=20))
    res = data.targets - surr.gradient_many(data.inputs)
    for j, a in zip(trace.point_index, trace.coord):
        assert abs(res[j, a]) <= 1e-8


def test_residual_vector_cases():
    rng = np.random.default_rng(3)
    data = make_dataset(rng.uniform(-1, 1, (10, 2)), rng.standard_normal((10, 2)))
    empty = Surrogate.empty(GAUSS, 2)
    assert np.array_equal(data.targets - empty.gradient_many(data.inputs), data.targets)
    assert max_residual_error(empty, data) == np.max(np.abs(data.targets))

    single = make_dataset([[0.2, 0.1]], [[1.0, 0.0]])
    s = Surrogate.from_functionals(
        GAUSS, [DerivFunctional(np.array([0.2, 0.1]), 0)], [0.125])
    # one term with coefficient 0.125 has gradient 0.25 in its own coordinate
    r = single.targets - s.gradient_many(single.inputs)
    assert r[0, 0] == pytest.approx(0.75, abs=1e-12)
    assert max_residual_error(s, single) == pytest.approx(0.75, abs=1e-12)


def test_rkhs_error_nonincreasing_and_update_identity():
    u, data = synthetic_setup()
    surr, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=30),
                                 synthetic_target=u)
    e = np.asarray(trace.rkhs_error)
    assert np.all(np.diff(e) <= 1e-10 * e[0])
    for m in range(len(trace) - 1):
        a, b = trace.max_residual[m], trace.power_value[m]
        lhs = e[m + 1] ** 2 - e[m] ** 2 + (a / b) ** 2
        assert abs(lhs) <= 1e-8 * e[m] ** 2


def test_target_in_pool_is_captured():
    u, data = synthetic_setup(seed=123, include_reps=True)
    _, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=35),
                              synthetic_target=u)
    e = np.asarray(trace.rkhs_error)
    # the per-step identity holds down to the rounding floor, where the
    # error itself is pure noise and relative comparison stops being defined
    for m in range(len(trace) - 1):
        if e[m] < 1e-6 * e[0]:
            break
        a, b = trace.max_residual[m], trace.power_value[m]
        assert abs(e[m + 1] ** 2 - e[m] ** 2 + (a / b) ** 2) <= 1e-8 * e[m] ** 2
    # once every representer functional has been selected the target is
    # reproduced exactly
    assert e[-1] <= 1e-9 * e[0]


def test_amgm_block_inequality():
    u, data = synthetic_setup(seed=7)
    _, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=25),
                              synthetic_target=u)
    for m in (5, 10):
        a = np.asarray(trace.max_residual[m + 1: 2 * m + 1])
        b = np.asarray(trace.power_value[m + 1: 2 * m + 1])
        geo = np.exp(np.mean(np.log(a / b)))
        assert geo <= m**-0.5 * trace.rkhs_error[m + 1] + 1e-10


def test_verify_block_bound():
    u, data = synthetic_setup(seed=11)
    _, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=25),
                              synthetic_target=u)
    for m in (5, 10):
        lhs, rhs, holds = verify_block_bound(trace, m)
        assert holds and lhs <= rhs + 1e-10
    with pytest.raises(InsufficientTrace):
        verify_block_bound(trace, 15)


def test_block_bound_zero_target():
    data = make_dataset(np.random.default_rng(0).uniform(-1, 1, (30, 2)),
                        np.zeros((30, 2)))
    u = Surrogate.empty(GAUSS, 2)
    _, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=25),
                              synthetic_target=u)
    lhs, rhs, holds = verify_block_bound(trace, 5)
    assert holds and lhs == 0.0 and rhs == 0.0


def test_data_mode_has_no_rkhs_errors():
    rng = np.random.default_rng(5)
    data = make_dataset(rng.uniform(-1, 1, (20, 2)), rng.standard_normal((20, 2)))
    _, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=10))
    assert trace.rkhs_error == []
    with pytest.raises(InsufficientTrace):
        verify_block_bound(trace, 2)


def test_validation_tracking_aligns_with_training():
    rng = np.random.default_rng(6)
    data = make_dataset(rng.uniform(-2, 2, (40, 2)), rng.standard_normal((40, 2)))
    val = make_dataset(rng.uniform(-2, 2, (15, 2)), rng.standard_normal((15, 2)))
    surr, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=12),
                                 validation=val)
    assert len(trace.val_residual) == len(trace)
    # record 0 holds the zero-surrogate residuals on both pools
    assert trace.val_residual[0] == pytest.approx(np.max(np.abs(val.targets)))
    assert trace.max_residual[0] == pytest.approx(np.max(np.abs(data.targets)))
    # final fields describe the returned surrogate
    assert trace.final_train_residual == pytest.approx(max_residual_error(surr, data))
    assert trace.final_val_residual == pytest.approx(max_residual_error(surr, val))


def test_residual_tolerance_stops_early():
    u, data = synthetic_setup(seed=9, n_points=50)
    tol = 0.2 * float(np.max(np.abs(data.targets)))
    _, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=100,
                                                        residual_tolerance=tol))
    assert len(trace) < 100
    assert trace.final_train_residual < tol


def test_determinism():
    rng = np.random.default_rng(10)
    data = make_dataset(rng.uniform(-2, 2, (25, 2)), rng.standard_normal((25, 2)))
    s1, t1 = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=15))
    s2, t2 = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=15))
    assert t1.point_index == t2.point_index and t1.coord == t2.coord
    assert np.array_equal(s1.coeffs, s2.coeffs)


REPLAY_FIELDS = ("point_index", "coord", "max_residual", "power_value", "val_residual",
                 "final_train_residual", "final_val_residual")


def _train_val(seed, n_points, twins=False):
    """Training and validation sets; with twins every training point comes
    twice with the same target, so the power values of the second copies
    fall to the rounding floor and selection ends at POWER_CUTOFF."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, (n_points, 2))
    targets = rng.standard_normal((n_points, 2))
    if twins:
        pts, targets = np.vstack([pts, pts]), np.vstack([targets, targets])
    val_pts = rng.uniform(-1.5, 1.5, (7, 2))
    return make_dataset(pts, targets), make_dataset(val_pts, rng.standard_normal((7, 2)))


def _count_selections(monkeypatch):
    calls = []
    select = greedy._select
    monkeypatch.setattr(greedy, "_select", lambda *args: calls.append(1) or select(*args))
    return calls


def _assert_same_fit(fit, other):
    (s1, t1), (s2, t2) = fit, other
    for name in ("centers", "coords", "coeffs"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name)), name
    for name in REPLAY_FIELDS:
        assert getattr(t1, name) == getattr(t2, name), name


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("stop", ["cap", "power_cutoff"])
def test_budget_fit_replays_the_winners_picks(fam, stop, monkeypatch):
    # the budget fit on the winner's picks only replays the validation
    # pool, and matches both a full fit and the loop that carries
    # the validation pool through every pick, bit for bit
    train, val = _train_val(50, 6, twins=True) if stop == "power_cutoff" else _train_val(51, 9)
    spec = KernelSpec(fam, 1.0)
    cfg = GreedyConfig(max_centers=40 if stop == "power_cutoff" else 10)
    winner = train_f_greedy(spec, train, cfg)
    calls = _count_selections(monkeypatch)
    reused = train_f_greedy(spec, train, cfg, validation=val, picks=winner)
    assert calls == []
    full = train_f_greedy(spec, train, cfg, validation=val)
    assert calls == [1]
    _assert_same_fit(reused, full)
    # a fit drops the Newton factor once it has replayed a validation pool;
    # the selection fit keeps its own for the budget call
    assert reused[1].newton_factor is None and full[1].newton_factor is None
    assert winner[1].newton_factor is not None
    loop = ref.greedy_validation_in_loop(spec, train, cfg.max_centers, val)
    for name in REPLAY_FIELDS:
        assert getattr(reused[1], name) == loop[name], name
    # 24 candidates in the twin pool: with no tolerance only the power
    # cutoff ends selection before the cap
    assert len(reused[1]) == 10 if stop == "cap" else len(reused[1]) < 24
    assert winner[1].val_residual == [] and winner[1].final_val_residual is None


@pytest.mark.parametrize("case", ["m_star_below_budget", "tolerance_cuts", "tolerance_holds"])
def test_budget_fit_runs_unless_the_picks_repeat(case, monkeypatch):
    train, val = _train_val(52, 9)
    winner_cfg = GreedyConfig(max_centers=6 if case == "m_star_below_budget" else 12)
    winner = train_f_greedy(GAUSS, train, winner_cfg)
    residuals = winner[1].max_residual
    tol = {"m_star_below_budget": 0.0,
           "tolerance_cuts": float(np.nextafter(residuals[4], np.inf)),
           "tolerance_holds": 0.5 * min(residuals)}[case]
    cfg = GreedyConfig(max_centers=12, residual_tolerance=tol)
    calls = _count_selections(monkeypatch)
    budget = train_f_greedy(GAUSS, train, cfg, validation=val, picks=winner)
    assert calls == ([] if case == "tolerance_holds" else [1])
    _assert_same_fit(budget, train_f_greedy(GAUSS, train, cfg, validation=val))
    loop = ref.greedy_validation_in_loop(GAUSS, train, 12, val, tolerance=tol)
    for name in REPLAY_FIELDS:
        assert getattr(budget[1], name) == loop[name], name
    assert len(budget[1]) <= 4 if case == "tolerance_cuts" else len(budget[1]) == 12


def test_empty_dataset_rejected():
    data = HBDataset(inputs=np.zeros((0, 2)), targets=np.zeros((0, 2)), delta_t=0.1)
    with pytest.raises(EmptyDataset):
        train_f_greedy(GAUSS, data, GreedyConfig(max_centers=3))


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("block", [None, 1])
def test_rkhs_error_equals_refit_bitwise(fam, d, block, monkeypatch):
    _check_rkhs_error_refit(fam, d, block, "cap", monkeypatch)


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("stop", ["tolerance", "power_cutoff"])
def test_rkhs_error_equals_refit_bitwise_at_early_stop(fam, d, block, stop, monkeypatch):
    _check_rkhs_error_refit(fam, d, block, stop, monkeypatch)


def _check_rkhs_error_refit(fam, d, block, stop, monkeypatch):
    # block: BLOCK_FLOATS (None keeps the module default, 1 gives one
    # center per block).  The pool holds the target's representers, so the
    # error falls to the rounding floor; one target center carries two
    # coordinates.  Pairs of distinct points on different coordinates round
    # differently in the two orientations, which a cache that mirrors one
    # triangle of its pair matrix does not reproduce.  stop: the fit runs
    # to its cap, stops at a residual tolerance once the target's six
    # functionals are picked, or, with a target center twice in the pool
    # and no cap below the pool size, at POWER_CUTOFF; the errors follow
    # the trace's length either way.
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_FLOATS", block)
    rng = np.random.default_rng(40 + d)
    spec = KernelSpec(fam, 0.9)
    reps = rng.uniform(-2.0, 2.0, (6, d))
    coords = rng.integers(0, d, 6)
    reps[5], coords[5] = reps[2], (coords[2] + 1) % d
    target = Surrogate(spec, reps, coords, rng.standard_normal(6))
    pool = np.vstack([reps[:5], rng.uniform(-2.0, 2.0, (15, d))])
    if stop == "power_cutoff":
        pool = np.vstack([pool, reps[:1]])
    data = make_dataset(pool, target.gradient_many(pool))
    tol = 1e-3 * float(np.max(np.abs(data.targets))) if stop == "tolerance" else 0.0
    cfg = GreedyConfig(max_centers=200 if stop == "power_cutoff" else 30,
                       residual_tolerance=tol)
    _, trace = train_f_greedy(spec, data, cfg, synthetic_target=target)
    sel = np.array(trace.point_index, dtype=int) * d + np.array(trace.coord, dtype=int)
    y = data.targets.ravel()
    assert len(trace.rkhs_error) == len(trace) >= 6
    for m, err in enumerate(trace.rkhs_error):
        s = sel[:m]
        assert np.array_equal(err, ref.synthetic_error_norm(spec, target, pool[s // d],
                                                            s % d, y[s])), m
    if stop == "tolerance":
        assert len(trace) == 6 and trace.final_train_residual < tol
    else:
        assert len(trace) == 30 if stop == "cap" else 6 < len(trace) < trace.max_m
        assert trace.rkhs_error[-1] <= 1e-6 * trace.rkhs_error[0]


def test_target_errors_of_an_empty_selection():
    target = Surrogate(GAUSS, np.array([[0.5, -0.5]]), np.array([1]), np.array([2.0]))
    assert target_errors(GAUSS, target, np.zeros((0, 2)), np.zeros(0, dtype=int),
                         np.zeros(0)) == []
    # a fit that picks nothing has no errors, and blank rkhs_error cells
    data = make_dataset([[0.0, 0.0]], target.gradient_many(np.zeros((1, 2))))
    _, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=2, residual_tolerance=1e9),
                              synthetic_target=target)
    assert len(trace) == 0 and trace.rkhs_error == [] and trace.rows() == []


def test_an_empty_selection_is_the_empty_surrogate():
    # a tolerance above every target stops before the first pick; the
    # selection's general path then builds the arrays of Surrogate.empty
    rng = np.random.default_rng(8)
    data = make_dataset(rng.uniform(-1, 1, (6, 2)), rng.standard_normal((6, 2)))
    val = make_dataset(rng.uniform(-1, 1, (4, 2)), rng.standard_normal((4, 2)))
    surr, trace = train_f_greedy(GAUSS, data, GreedyConfig(max_centers=5, residual_tolerance=1e9),
                                 validation=val)
    empty = Surrogate.empty(GAUSS, 2)
    for name in ("centers", "coords", "coeffs"):
        got, want = getattr(surr, name), getattr(empty, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
    assert len(trace) == 0 and trace.val_residual == [] and trace.newton_factor is None
    assert trace.final_train_residual == np.max(np.abs(data.targets))
    assert trace.final_val_residual == np.max(np.abs(val.targets))
    assert trace.convergence_rows() == [(0, trace.final_train_residual,
                                         trace.final_val_residual)]
