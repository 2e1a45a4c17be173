import numpy as np
import pytest

import kernel_reference as ref
from symkern import integrators
from symkern.errors import NoConvergence
from symkern.integrators import (
    Trajectory,
    implicit_midpoint_step,
    midpoint_many,
    propagate,
    step_count,
)
from symkern.metrics import compute_metrics
from symkern.systems import Chain, Pendulum, Quadratic, jmat

HARMONIC = Quadratic(np.eye(2))


def fd_jacobian(step, x, h=1e-6):
    d = x.size
    D = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        D[:, j] = (step(x + e) - step(x - e)) / (2 * h)
    return D


def test_midpoint_fixed_point():
    x, _ = implicit_midpoint_step(Pendulum(), np.zeros(2), 1e-2)
    assert np.allclose(x, 0.0)


def test_midpoint_conserves_quadratic_invariants():
    x = np.array([1.0, 0.0])
    for dt in (0.1, 0.5, 1.0):
        y, _ = implicit_midpoint_step(HARMONIC, x, dt)
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)


def test_midpoint_symmetric():
    rng = np.random.default_rng(1)
    for sys_ in (Pendulum(), Chain()):
        x = rng.uniform(-0.5, 0.5, sys_.dim)
        y, _ = implicit_midpoint_step(sys_, x, 0.05)
        back, _ = implicit_midpoint_step(sys_, y, -0.05)
        assert np.max(np.abs(back - x)) <= 1e-10


def test_midpoint_energy_drift_short():
    # final-time energy mismatch after 1000 micro steps from (1, 0)
    sys_ = Pendulum()
    x = np.array([1.0, 0.0])
    H0 = sys_.energy(x)
    for _ in range(1000):
        x, _ = implicit_midpoint_step(sys_, x, 1e-3)
    assert abs(sys_.energy(x) - H0) <= 1e-8


def test_midpoint_energy_drift_long():
    # over T = 6 the oscillatory energy error of the micro reference stays
    # bounded; halving the step shrinks it fourfold (second order), which
    # pins the measured ceiling used here
    sys_ = Pendulum()
    for dt, cap in ((1e-3, 1e-6), (5e-4, 2.5e-7)):
        x = np.array([1.0, 0.0])
        H0 = sys_.energy(x)
        worst = 0.0
        for _ in range(int(round(6.0 / dt))):
            x, _ = implicit_midpoint_step(sys_, x, dt)
            worst = max(worst, abs(sys_.energy(x) - H0))
        assert worst <= cap


@pytest.mark.parametrize("sys_", [Pendulum(), Chain(), HARMONIC],
                         ids=lambda s: s.name)
def test_stepper_symplecticity(sys_):
    rng = np.random.default_rng(5)
    J = jmat(sys_.n)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, sys_.dim)
        D = fd_jacobian(lambda z: implicit_midpoint_step(sys_, z, 0.05)[0], x)
        assert np.max(np.abs(D.T @ J @ D - J)) <= 1e-5


def test_propagate_zero_steps():
    traj = propagate(Pendulum(), np.array([0.3, 0.1]), 1e-3, 0)
    assert traj.states.shape == (1, 2)
    assert np.allclose(traj.states[0], [0.3, 0.1])


def test_propagate_matches_composition():
    sys_ = Pendulum()
    x = np.array([0.7, -0.2])
    traj = propagate(sys_, x, 1e-3, 100)
    y = x.copy()
    for _ in range(100):
        y, _ = implicit_midpoint_step(sys_, y, 1e-3)
    assert np.max(np.abs(traj.states[-1] - y)) <= 1e-14
    assert np.max(np.abs(traj.times - np.arange(101) * 1e-3)) <= 1e-12


def test_macro_step_is_micro_composition():
    sys_ = Pendulum()
    x = np.array([1.2, 0.4])
    macro = propagate(sys_, x, 1e-3, 100).states[-1]
    # one 0.1 macro reference = 100 micro steps of 1e-3 by definition
    batch = midpoint_many(sys_, x[None, :], 1e-3, 100)[0]
    assert np.max(np.abs(macro - batch)) <= 1e-12


def test_midpoint_many_matches_scalar_path():
    rng = np.random.default_rng(9)
    for sys_ in (Pendulum(), Chain(), HARMONIC):
        X = rng.uniform(-0.5, 0.5, (7, sys_.dim))
        got = midpoint_many(sys_, X, 1e-2, 25)
        for i in range(7):
            want = propagate(sys_, X[i], 1e-2, 25).states[-1]
            assert np.max(np.abs(got[i] - want)) <= 1e-11


def test_midpoint_many_keep_path():
    X = np.array([[0.5, 0.0], [0.2, 0.1]])
    path = midpoint_many(Pendulum(), X, 1e-2, 10, keep_path=True)
    assert path.shape == (11, 2, 2)
    assert np.allclose(path[0], X)


def test_baseline_error_decreases_with_macro_step():
    # macro implicit midpoint gets uniformly better as the step shrinks
    sys_ = Pendulum()
    x = np.array([1.0, 0.0])
    ref = propagate(sys_, x, 1e-3, 6000).states
    finals = []
    for dt in (0.1, 0.05, 0.025):
        steps = int(round(6.0 / dt))
        stride = step_count(dt, 1e-3)
        base = propagate(sys_, x, dt, steps).states[None]
        mets = compute_metrics(base, base, ref[: steps * stride + 1 : stride][None], sys_)
        finals.append(mets["rel_baseline"][0, -1])
    assert finals[0] > finals[1] > finals[2]


@pytest.mark.parametrize("sys_", [Pendulum(), Chain()], ids=lambda s: s.name)
def test_scalar_step_is_the_one_row_batch(sys_):
    # one Newton serves both paths, so the scalar step is the batched step
    # of a one-row batch bit for bit
    rng = np.random.default_rng(3)
    for dt in (0.1, -0.1, 0.025, -0.3):
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, sys_.dim)
            got, _ = implicit_midpoint_step(sys_, x, dt)
            assert got.tobytes() == midpoint_many(sys_, x[None], dt, 1)[0].tobytes()


@pytest.mark.parametrize("sys_", [Pendulum(), Chain()], ids=lambda s: s.name)
@pytest.mark.parametrize("rows", [1, 2000])
def test_newton_row_swap_equals_einsum_bitwise(sys_, rows):
    # J H as H's row blocks swapped and one negated: J is a signed
    # permutation, so the Newton matrix, and every iterate, keeps its bits
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.5, 1.5, (rows, sys_.dim))
    tol = 1e-12 * (1.0 + np.max(np.abs(X), axis=1))
    for dt in (0.1, -0.3, 1e-3):
        got = integrators._midpoint_newton(sys_, X, dt, tol)
        want = ref.midpoint_newton(sys_, X, dt, tol)
        assert got[1] == want[1]
        assert got[0].tobytes() == want[0].tobytes()
        assert got[2].tobytes() == want[2].tobytes()


class FlatHessian(Pendulum):
    """A pendulum whose Newton sees a zero Hessian: plain fixed-point
    iteration, which does not converge at a large step."""

    def hess_many(self, X):
        return np.zeros((X.shape[0], self.dim, self.dim))


def test_newton_failure_names_the_step():
    x = np.array([1.0, 0.0])
    with pytest.raises(NoConvergence, match=r"^step 0: .*row 0 at residual"):
        propagate(FlatHessian(), x, 2.0, 3)
    with pytest.raises(NoConvergence, match=r"^step 0: .*row 1 at residual"):
        midpoint_many(FlatHessian(), np.stack([np.zeros(2), x]), 2.0, 3)


def test_propagate_records_solver_iterations():
    traj = propagate(Pendulum(), np.array([0.7, -0.2]), 0.05, 6)
    assert traj.solver_iterations.shape == (7,)
    assert traj.solver_iterations[0] == 0 and np.all(traj.solver_iterations[1:] > 0)


def test_step_count():
    assert step_count(6.0, 0.1) == 60
    assert step_count(0.1, 1e-3) == 100
    assert step_count(6, 2) == 3
    for span, step in ((0.15, 0.1), (0.0, 0.1), (-0.2, 0.1), (0.1, 5e-324), (1.0, 3.0)):
        assert step_count(span, step) is None


def test_trajectory_times_are_step_multiples():
    traj = propagate(Pendulum(), np.array([0.3, 0.0]), 0.05, 6)
    assert traj.times.tobytes() == (np.arange(7) * 0.05).tobytes()
    # a reference trajectory cut from a batched path, as the experiment does
    path = midpoint_many(Pendulum(), np.array([[0.3, 0.0], [0.1, 0.2]]), 1e-3, 40,
                         keep_path=True)
    ref = Trajectory(path[:, 1, :], 1e-3)
    assert ref.times.tobytes() == (np.arange(41) * 1e-3).tobytes()
    assert ref.states.shape[0] - 1 == 40


def test_step_count_applies_both_tolerances():
    # the span check alone accepts this micro step; its ratio is 5e-9 off 100
    assert step_count(0.1, 0.00100000000005) is None
    assert step_count(0.1, 0.001000000000005) == 100
    assert step_count(6.0, 0.001000000000005) is None
