import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from symkern.data import build_hb_dataset
from symkern.errors import NoConvergence
from symkern.greedy import GreedyConfig, train_f_greedy
from symkern import predictor
from symkern.kernels import FAMILIES, KernelSpec
from symkern.predictor import (
    PredictorModel,
    contraction_margin,
    predict_step,
    rollout,
    symplecticity_defect,
)
from symkern.surrogate import DerivFunctional, Surrogate
from symkern.systems import Pendulum, Quadratic, apply_j, apply_jt

HARMONIC = Quadratic(np.eye(2))


def harmonic_model(seed=1, m=60, dt=0.1):
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.5, 1.5, (200, 2))
    data = build_hb_dataset(HARMONIC, states, dt, 1e-3)
    surr, trace = train_f_greedy(KernelSpec("gaussian", 1.0), data,
                                 GreedyConfig(max_centers=m))
    return PredictorModel(surr, dt), data, trace


def test_empty_surrogate_is_identity():
    model = PredictorModel(Surrogate.empty(KernelSpec("gaussian", 1.0), 2), 0.1)
    x = np.array([0.3, -0.7])
    y, rep = predict_step(model, x)
    assert np.array_equal(y, x)
    traj = rollout(model, x, 5)
    assert np.allclose(traj.states, x)
    assert symplecticity_defect(model, x) <= 1e-12


def test_trained_harmonic_reproduces_flow_on_training_points():
    model, data, trace = harmonic_model()
    resid = trace.final_train_residual
    # recover initial and propagated states from the difference quotients:
    # J y = (x_T - x0) / dT and the inputs carry (q0, p_T)
    flow = model.delta_t * apply_j(data.targets)
    p0 = data.inputs[:, 1] - flow[:, 1]
    x0 = np.stack([data.inputs[:, 0], p0], axis=1)
    x_t = x0 + flow
    assert np.max(np.abs(x_t[:, 1] - data.inputs[:, 1])) <= 1e-12   # p_T consistency
    worst = 0.0
    for i in range(0, data.count, 10):
        pred, _ = predict_step(model, x0[i])
        worst = max(worst, np.max(np.abs(pred - x_t[i])))
    assert worst <= 10 * max(resid * model.delta_t, 1e-12)


def test_prediction_satisfies_update_identity():
    model, data, _ = harmonic_model(m=25)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x0 = rng.uniform(-1, 1, 2)
        pred, _ = predict_step(model, x0)
        xi = np.array([x0[0], pred[1]])
        lhs = apply_jt(pred - x0) / model.delta_t
        assert np.max(np.abs(lhs - ref.gradient(model.surrogate, xi))) <= 1e-9


def test_rollout_shapes_and_iterations():
    model, _, _ = harmonic_model(m=25)
    traj = rollout(model, np.array([1.0, 0.0]), 7)
    assert traj.states.shape == (8, 2)
    assert traj.solver_iterations.shape == (8,)
    assert traj.solver_iterations[0] == 0 and np.all(traj.solver_iterations[1:] > 0)
    assert np.allclose(traj.times, 0.1 * np.arange(8))


def test_symplecticity_defect_trained_and_undertrained():
    rng = np.random.default_rng(3)
    for m in (5, 60):
        model, _, _ = harmonic_model(m=m)
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            assert symplecticity_defect(model, x) <= 1e-5


def test_symplecticity_defect_pendulum_model():
    rng = np.random.default_rng(11)
    states = rng.uniform(-1.0, 1.0, (150, 2))
    data = build_hb_dataset(Pendulum(), states, 0.1, 1e-3)
    surr, _ = train_f_greedy(KernelSpec("matern52", 1.0), data,
                             GreedyConfig(max_centers=5))
    model = PredictorModel(surr, 0.1)
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, 2)
        assert symplecticity_defect(model, x) <= 1e-5


@st.composite
def small_models(draw):
    """1-5 random centers in d = 2 or 4 with a macro step and a start state."""
    d = draw(st.sampled_from([2, 4]))
    m = draw(st.integers(1, 5))
    unit = st.floats(-1.0, 1.0)
    centers = np.array(draw(st.lists(st.lists(unit, min_size=d, max_size=d),
                                     min_size=m, max_size=m)))
    coords = np.array(draw(st.lists(st.integers(0, d - 1), min_size=m, max_size=m)))
    coeffs = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
    kernel = KernelSpec(draw(st.sampled_from(FAMILIES)), draw(st.floats(0.5, 2.0)))
    surr = Surrogate(kernel, centers, coords, coeffs)
    x0 = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
    return PredictorModel(surr, draw(st.floats(0.01, 0.1))), x0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_models())
def test_symplecticity_defect_random_small_surrogate(case):
    # where the fixed-point map is certified contractive, every macro step
    # of any surrogate is symplectic up to finite-difference error
    model, x0 = case
    assume(contraction_margin(model, [x0]) < 0.5)
    assert symplecticity_defect(model, x0) <= 1e-5


def test_determinism():
    model, _, _ = harmonic_model(m=30)
    x = np.array([0.4, 0.3])
    a, _ = predict_step(model, x)
    b, _ = predict_step(model, x)
    assert np.array_equal(a, b)


def test_contraction_margin_hand_value():
    surr = Surrogate.from_functionals(
        KernelSpec("gaussian", 1.0), [DerivFunctional(np.zeros(2), 0)], [1.0])
    model = PredictorModel(surr, 0.1)
    t = 0.7
    margin = contraction_margin(model, [np.array([0.0, t])])
    expected = 0.1 * 4 * t * np.exp(-t * t)
    assert margin == pytest.approx(expected, rel=1e-5)


def test_contraction_margin_empty_surrogate():
    model = PredictorModel(Surrogate.empty(KernelSpec("gaussian", 1.0), 2), 0.1)
    assert contraction_margin(model, [np.zeros(2)]) == 0.0


def test_contraction_margin_trained_model():
    model, data, _ = harmonic_model(m=40)
    sample = data.inputs[::20]
    assert contraction_margin(model, sample) < 1.0


def steep_model(seed):
    """1-3 gaussian centers in the plane with coefficients of order 10 and a
    macro step in [0.16, 1.4]: steep enough that the fixed-point sweep
    stalls on many seeds."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    eps = float(rng.choice([0.5, 1.0, 2.0]))
    centers = rng.uniform(-1, 1, (m, 2))
    coords = rng.integers(0, 2, m)
    coeffs = rng.standard_normal(m) * 10
    dt = float(rng.uniform(0.16, 1.4))
    x0 = rng.uniform(-1, 1, 2)
    surr = Surrogate(KernelSpec("gaussian", eps), centers, coords, coeffs)
    return PredictorModel(surr, dt), x0


@pytest.fixture
def solver_spies(monkeypatch):
    """Record the start of every momentum solve and count linear solves
    (only the Newton fallback solves a linear system)."""
    seen = {"starts": [], "linear_solves": 0}
    solve_momentum, linalg_solve = predictor._solve_momentum, np.linalg.solve

    def spy_momentum(model, q0, p0, p_start, tol):
        seen["starts"].append(p_start.copy())
        return solve_momentum(model, q0, p0, p_start, tol)

    def spy_solve(*args, **kwargs):
        seen["linear_solves"] += 1
        return linalg_solve(*args, **kwargs)

    monkeypatch.setattr(predictor, "_solve_momentum", spy_momentum)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    return seen


def assert_solves_update(model, x0, x1):
    """P = p0 - dT ds/dq(q0, P) within the solve's effective tolerance, and
    Q = q0 + dT ds/dp(q0, P)."""
    n, dt = model.n, model.delta_t
    q0, p0, P = x0[:n], x0[n:], x1[n:]
    tol = predictor.DEFAULT_TOL_FACTOR * (1.0 + np.max(np.abs(p0)))
    tol_eff = max(tol, dt * model.gradient_noise_floor)
    g = model.surrogate.gradient_precise(np.concatenate([q0, P]))
    assert np.max(np.abs(P - (p0 - dt * g[:n]))) <= tol_eff
    assert np.array_equal(x1[:n], q0 + dt * g[n:])


def test_newton_fallback_converges(solver_spies):
    model, x0 = steep_model(0)
    x1, _ = predict_step(model, x0)
    assert len(solver_spies["starts"]) == 1             # no restart
    assert solver_spies["linear_solves"] >= 1            # Newton was entered
    assert_solves_update(model, x0, x1)


def test_restart_from_explicit_guess(solver_spies):
    model, x0 = steep_model(47)
    x1, _ = predict_step(model, x0)
    n = model.n
    first, second = solver_spies["starts"]
    assert np.array_equal(first, x0[n:])
    g0 = model.surrogate.gradient_precise(x0)
    assert np.array_equal(second, x0[n:] - model.delta_t * g0[:n])
    assert solver_spies["linear_solves"] >= 1
    assert_solves_update(model, x0, x1)


@pytest.mark.parametrize("seed", [0, 47])
def test_iterations_count_every_gradient_evaluation(seed, monkeypatch):
    # seed 47 stalls and restarts: the stalled attempt's evaluations count
    model, x0 = steep_model(seed)
    calls = []
    precise = Surrogate.gradient_precise
    monkeypatch.setattr(Surrogate, "gradient_precise",
                        lambda self, x: calls.append(1) or precise(self, x))
    _, report = predict_step(model, x0)
    assert report.iterations == len(calls) > 0


def test_rollout_times_are_step_multiples():
    model, _, _ = harmonic_model(m=25, dt=0.05)
    traj = rollout(model, np.array([0.5, 0.0]), 9)
    assert traj.times.tobytes() == (np.arange(10) * 0.05).tobytes()


def test_solve_equals_best_iterate_reference():
    # the solve that kept a copy of its best iterate returned the last one
    # whenever it converged: every iterate before the last is followed by a
    # convergence check.  Seed 0 enters Newton and seed 47 restarts.
    stalled = 0
    for seed in range(300):
        model, x0 = steep_model(seed)
        try:
            want, want_report = ref.predict_step(model, x0)
        except NoConvergence:
            stalled += 1
            with pytest.raises(NoConvergence, match="momentum solve stalled"):
                predict_step(model, x0)
            continue
        got, report = predict_step(model, x0)
        assert got.tobytes() == want.tobytes()
        assert report.iterations == want_report.iterations
        assert report.final_residual_norm == want_report.final_residual_norm
    assert 0 < stalled < 300


def test_nan_residual_is_a_stall():
    # a NaN gradient gives a NaN residual, which is not above any tolerance
    model, _ = steep_model(0)
    with pytest.raises(NoConvergence, match="residual nan"):
        predict_step(model, np.array([np.nan, 0.1]))
