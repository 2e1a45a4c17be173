import numpy as np
import pytest

from symkern.errors import EmptySample, NotQuadratic
from symkern.linalg import sym_eigen
from symkern.systems import (
    Chain,
    Pendulum,
    Quadratic,
    Wave,
    apply_j,
    chain_elongation_matrix,
    jmat,
    resonance_check,
    step_size_bound,
)

SYSTEMS = [
    Pendulum(),
    Chain(n=3, alpha=1.0, beta=0.25),
    Wave(n_grid=12),
    Quadratic(np.diag([2.0, 0.5, 1.0, 1.0])),
]


def fd_grad(sys, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (sys.energy(x + e) - sys.energy(x - e)) / (2 * h)
    return out


def fd_hess(sys, x, h=1e-6):
    out = np.zeros((x.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[:, i] = (sys.grad(x + e) - sys.grad(x - e)) / (2 * h)
    return out


def test_j_conventions():
    J = jmat(2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4)
    assert np.allclose(apply_j(x), J @ x)
    assert np.allclose(-apply_j(x), J.T @ x)
    # negation is exact, so -J x is (q, p) -> (-p, q) with every zero's sign
    X = np.array([[0.0, -0.0, 1.5, -0.0], [-2.0, 0.0, 0.0, -3.0]])
    want = np.concatenate([-X[:, 2:], X[:, :2]], axis=1)
    assert (-apply_j(X)).tobytes() == want.tobytes()


def test_pendulum_energies():
    p = Pendulum()
    assert p.energy(np.array([0.0, 0.0])) == 0.0
    assert p.energy(np.array([np.pi, 0.0])) == pytest.approx(2 * 9.81, rel=1e-12)


def test_pendulum_gradients():
    p = Pendulum()
    assert np.allclose(p.grad(np.array([0.0, 0.0])), [0.0, 0.0])
    assert np.allclose(p.grad(np.array([np.pi / 2, 1.0])), [9.81, 1.0])
    assert np.allclose(p.hess(np.array([0.0, 0.0])), np.diag([9.81, 1.0]))


def test_chain_energy_hand_value():
    c = Chain(n=3, alpha=1.0, beta=0.25)
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    d = c.B @ x[:3]
    assert np.allclose(d, [1.0, -1.0, 0.0, 0.0])
    assert c.energy(x) == pytest.approx(1.125, rel=1e-14)


def test_chain_b_matrix_spectrum():
    for n in (2, 3, 6):
        B = chain_elongation_matrix(n)
        w, _ = sym_eigen(B.T @ B)
        assert w[0] <= 4.0 + 1e-12


@pytest.mark.parametrize("sys_", SYSTEMS, ids=lambda s: s.name)
def test_grad_hess_match_finite_differences(sys_):
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, sys_.dim)
        g, gfd = sys_.grad(x), fd_grad(sys_, x)
        assert np.linalg.norm(g - gfd) <= 1e-6 * (1 + np.linalg.norm(g))
        H, Hfd = sys_.hess(x), fd_hess(sys_, x)
        assert np.max(np.abs(H - Hfd)) <= 1e-6 * (1 + np.max(np.abs(H)))


def test_constant_hessian_variants():
    rng = np.random.default_rng(3)
    for sys_ in (Chain(n=3, alpha=1.0, beta=0.0), Wave(n_grid=8),
                 Quadratic(np.eye(4))):
        x1, x2 = rng.uniform(-1, 1, (2, sys_.dim))
        assert np.allclose(sys_.hess(x1), sys_.hess(x2))


def test_step_size_bound_pendulum():
    bound = step_size_bound(Pendulum(), [np.zeros(2)], horizon=6.0)
    assert bound == pytest.approx(np.log(2) / 9.81, rel=1e-12)
    assert abs(bound - 7.07e-2) <= 5e-5          # three significant digits


def test_step_size_bound_chain_box():
    c = Chain(n=3, alpha=1.0, beta=0.25)
    corners = np.array([[-0.5] * 6, [0.5] * 6])
    bound = step_size_bound(c, corners, horizon=10.0)
    assert bound == pytest.approx(np.log(2) / 7.0, rel=1e-12)
    assert abs(bound - 9.90e-2) <= 5e-5


def test_step_size_bound_free_drift_caps_at_horizon():
    sys_ = Quadratic(np.zeros((2, 2)))
    assert step_size_bound(sys_, [np.zeros(2)], horizon=4.0) == 4.0


def test_step_size_bound_empty_sample():
    with pytest.raises(EmptySample):
        step_size_bound(Pendulum(), np.zeros((0, 2)), horizon=1.0)


def test_resonance_harmonic_oscillator():
    sys_ = Quadratic(np.eye(2))
    det0, res0 = resonance_check(sys_, 0.0)
    assert det0 == pytest.approx(1.0, abs=1e-12) and not res0
    det1, res1 = resonance_check(sys_, np.pi / 4)
    assert det1 == pytest.approx(np.sqrt(2) / 2, abs=1e-10) and not res1
    det2, res2 = resonance_check(sys_, np.pi / 2)
    assert abs(det2) <= 1e-10 and res2


def test_resonance_requires_quadratic():
    with pytest.raises(NotQuadratic):
        resonance_check(Pendulum(), 0.1)


def test_wave_laplacian_is_spd():
    w = Wave(n_grid=10)
    eig, _ = sym_eigen(w.d_xx)
    assert np.all(eig > 0)
    # continuum limit of the lowest mode: (pi / L)^2
    assert eig[-1] == pytest.approx(np.pi**2, rel=1e-2)
