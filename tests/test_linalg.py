import numpy as np
import pytest

import kernel_reference as ref
from symkern.errors import DimensionMismatch, NotPositiveDefinite, Overflow
from symkern.linalg import (
    _tri_solve_lower,
    _tri_solve_upper,
    cholesky_solve,
    expm,
    max_abs,
    sym_eigen,
)


def test_cholesky_identity():
    assert np.allclose(cholesky_solve(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_cholesky_scalar():
    assert np.allclose(cholesky_solve([[4.0]], [8.0]), [2.0])


def test_cholesky_hand_2x2():
    # 2x + y = 3, x + 2y = 3  =>  x = y = 1
    x = cholesky_solve([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_cholesky_residual_well_conditioned():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = rng.integers(2, 30)
        A = rng.standard_normal((n, n))
        A = A @ A.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = cholesky_solve(A, b)
        assert max_abs(A @ x - b) <= 1e-10 * (1 + max_abs(b))


def test_cholesky_jitter_rescues_semidefinite():
    A = np.ones((3, 3))            # PSD, rank 1
    b = np.array([1.0, 1.0, 1.0])
    x = cholesky_solve(A, b)
    assert np.all(np.isfinite(x))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_solve([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0])


def test_cholesky_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cholesky_solve(np.eye(3), [1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="b: expected 1-d array, got ndim=2"):
        cholesky_solve(np.eye(2), [[1.0, 2.0]])
    with pytest.raises(ValueError, match="b: non-finite entries rejected"):
        cholesky_solve(np.eye(2), [1.0, np.nan])
    with pytest.raises(DimensionMismatch, match="b: expected length 3, got 2"):
        cholesky_solve(np.eye(3), [1.0, 2.0])


def test_triangular_solves_equal_row_loops_bitwise():
    # forward substitution dots the contiguous rows of L, back substitution
    # the strided rows of the view L.T; each must round as the reference
    # loops do (tobytes also tells -0.0 from 0.0)
    rng = np.random.default_rng(19)
    for n in range(1, 301):
        L = np.tril(rng.uniform(-1.0, 1.0, (n, n))) / n + np.eye(n)
        b = rng.standard_normal(n)
        y = _tri_solve_lower(L, b)
        assert y.tobytes() == ref.tri_solve_lower(L, b).tobytes(), n
        x = _tri_solve_upper(L.T, y)
        assert x.tobytes() == ref.tri_solve_upper(L.T, y).tobytes(), n


def test_sym_eigen_diagonal():
    w, V = sym_eigen(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(np.abs(V), np.eye(2))


def test_sym_eigen_offdiag():
    w, _ = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(w, [1.0, -1.0])


def test_sym_eigen_identity():
    w, _ = sym_eigen(np.eye(4))
    assert np.allclose(w, np.ones(4))


def test_sym_eigen_reconstruction():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((12, 12))
    A = A + A.T
    w, V = sym_eigen(A)
    assert max_abs(A - V @ np.diag(w) @ V.T) <= 1e-9 * max_abs(A)
    assert max_abs(V.T @ V - np.eye(12)) <= 1e-10
    assert np.all(np.diff(w) <= 1e-12)


def test_herm_eigen_identity():
    w, _ = sym_eigen(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])


def test_herm_eigen_pauli_y():
    w, V = sym_eigen(np.array([[0.0, -1j], [1j, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])
    assert max_abs(np.abs(V.conj().T @ V - np.eye(2))) <= 1e-12


def test_herm_eigen_real_diagonal():
    w, _ = sym_eigen(np.diag([5.0, 2.0]).astype(complex))
    assert np.allclose(w, [5.0, 2.0])


def test_expm_zero():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_scalar():
    assert np.allclose(expm([[1.0]]), [[np.e]], rtol=1e-12)


def test_expm_planar_rotation():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    R = expm((np.pi / 2) * J)
    assert max_abs(R - np.array([[0.0, 1.0], [-1.0, 0.0]])) <= 1e-12


def test_expm_against_symmetric_eigen_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        A = rng.standard_normal((6, 6))
        A = A + A.T
        A *= 10.0 / max(1.0, np.linalg.norm(A, 2))
        w, V = sym_eigen(A)
        expected = V @ np.diag(np.exp(w)) @ V.T
        got = expm(A)
        assert max_abs(got - expected) <= 1e-10 * max_abs(expected)


def test_expm_inverse_property():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.standard_normal((5, 5))
        A *= 5.0 / max(1.0, np.linalg.norm(A, 2))
        assert max_abs(expm(A) @ expm(-A) - np.eye(5)) <= 1e-9


def test_expm_overflow():
    with pytest.raises(Overflow):
        expm(np.diag([1000.0, 1000.0]))
