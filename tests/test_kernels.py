import numpy as np
import pytest

import kernel_reference as ref
from symkern import kernels
from symkern.errors import DimensionMismatch
from symkern.kernels import (
    FAMILIES,
    KernelSpec,
    coord_index,
    mixed2_accumulate,
    mixed2_accumulate_precise,
    mixed2_field,
    mixed2_pairs,
    mixed2_self,
)


def fd_grad2(spec, x, y, h=1e-5):
    out = np.zeros_like(y, dtype=float)
    for b in range(y.size):
        e = np.zeros_like(y)
        e[b] = h
        out[b] = (ref.kernel_eval(spec, x, y + e) - ref.kernel_eval(spec, x, y - e)) / (2 * h)
    return out


def fd_mixed2(spec, x, y, a, b, h=1e-5):
    ea = np.zeros_like(x)
    eb = np.zeros_like(y)
    ea[a] = h
    eb[b] = h
    return (
        ref.kernel_eval(spec, x + ea, y + eb)
        - ref.kernel_eval(spec, x + ea, y - eb)
        - ref.kernel_eval(spec, x - ea, y + eb)
        + ref.kernel_eval(spec, x - ea, y - eb)
    ) / (4 * h * h)


def test_value_at_coincidence_is_one():
    for fam in FAMILIES:
        spec = KernelSpec(fam, 1.7)
        x = np.array([0.3, -1.2])
        assert ref.kernel_eval(spec, x, x) == pytest.approx(1.0)


def test_imq_unit_distance():
    spec = KernelSpec("imq", 1.0)
    assert ref.kernel_eval(spec, np.array([1.0]), np.array([0.0])) == pytest.approx(
        1 / np.sqrt(2), abs=1e-12
    )


def test_matern32_origin():
    spec = KernelSpec("matern32", 2.0)
    assert ref.kernel_eval(spec, np.zeros(3), np.zeros(3)) == pytest.approx(1.0)


def test_grad2_zero_at_coincidence():
    for fam in FAMILIES:
        spec = KernelSpec(fam, 1.3)
        x = np.array([0.5, 2.0])
        assert np.allclose(ref.kernel_grad2(spec, x, x), 0.0)


def test_grad2_gaussian_example():
    spec = KernelSpec("gaussian", 1.0)
    g = ref.kernel_grad2(spec, np.array([1.0]), np.array([0.0]))
    assert g[0] == pytest.approx(2 * np.exp(-1.0), rel=1e-12)


def test_grad2_imq_example():
    spec = KernelSpec("imq", 1.0)
    g = ref.kernel_grad2(spec, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert g[0] == pytest.approx(-(2.0 ** -1.5), rel=1e-12)
    assert g[1] == 0.0


def test_mixed2_coincident_values():
    assert ref.kernel_mixed2(KernelSpec("gaussian", 1.0), np.zeros(2), np.zeros(2), 0, 0) \
        == pytest.approx(2.0)
    assert ref.kernel_mixed2(KernelSpec("matern32", 3.0), np.zeros(2), np.zeros(2), 1, 1) \
        == pytest.approx(9.0)
    assert ref.kernel_mixed2(KernelSpec("gaussian", 1.0), np.zeros(2), np.zeros(2), 0, 1) == 0.0


def test_mixed2_offdiagonal_orthogonal_displacement():
    spec = KernelSpec("gaussian", 1.0)
    val = ref.kernel_mixed2(spec, np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0, 1)
    assert val == pytest.approx(0.0, abs=1e-15)


def test_kernel_symmetry():
    rng = np.random.default_rng(2)
    for fam in FAMILIES:
        spec = KernelSpec(fam, 1.5)
        for _ in range(20):
            x, y = rng.standard_normal((2, 3))
            assert ref.kernel_eval(spec, x, y) == ref.kernel_eval(spec, y, x)
            a, b = rng.integers(0, 3, 2)
            lhs = ref.kernel_mixed2(spec, x, y, int(a), int(b))
            rhs = ref.kernel_mixed2(spec, y, x, int(b), int(a))
            assert lhs == pytest.approx(rhs, abs=1e-14)


@pytest.mark.parametrize("fam", FAMILIES)
def test_fd_consistency(fam):
    rng = np.random.default_rng(42)
    spec = KernelSpec(fam, 1.5)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        x = rng.uniform(-2, 2, d)
        u = rng.standard_normal(d)
        r = rng.uniform(0.1, 5.0 / spec.epsilon)
        y = x + r * u / np.linalg.norm(u)
        g = ref.kernel_grad2(spec, x, y)
        g_fd = fd_grad2(spec, x, y)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g)
        a, b = int(rng.integers(0, d)), int(rng.integers(0, d))
        m = ref.kernel_mixed2(spec, x, y, a, b)
        m_fd = fd_mixed2(spec, x, y, a, b)
        assert abs(m - m_fd) <= 1e-4 * max(abs(m), mixed2_self(spec))


def test_matern32_near_coincident_limit():
    for eps in (0.5, 1.0, 3.0):
        spec = KernelSpec("matern32", eps)
        x = np.zeros(2)
        y = np.array([1e-8, 0.0])
        for a in range(2):
            for b in range(2):
                limit = eps**2 if a == b else 0.0
                got = ref.kernel_mixed2(spec, x, y, a, b)
                assert abs(got - limit) <= 1e-6 * eps**2


def test_plain_gramian_positive_semidefinite():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-3, 3, (20, 4))
    for fam in FAMILIES:
        spec = KernelSpec(fam, 1.0)
        K = np.array([[ref.kernel_eval(spec, a, b) for b in pts] for a in pts])
        assert np.min(np.linalg.eigvalsh(K)) > -1e-10


def test_mixed2_field_matches_scalar():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, (15, 3))
    X[3] = X[7]                     # force a coincident pair
    for fam in FAMILIES:
        spec = KernelSpec(fam, 2.0)
        F = mixed2_field(spec, X, X[7], 1)
        for i in range(X.shape[0]):
            for b in range(3):
                assert F[i, b] == pytest.approx(
                    ref.kernel_mixed2(spec, X[i], X[7], b, 1), abs=1e-14
                )


def test_accumulators_match_scalar_sums():
    rng = np.random.default_rng(6)
    centers = rng.uniform(-1, 1, (8, 2))
    alphas = rng.integers(0, 2, 8)
    coeffs = rng.standard_normal(8)
    X = rng.uniform(-1, 1, (10, 2))
    X[0] = centers[2]
    for fam in FAMILIES:
        spec = KernelSpec(fam, 1.2)
        vals = ref.grad2_accumulate(spec, X, centers, alphas, coeffs)
        grads = mixed2_accumulate(spec, X, centers, alphas, coeffs)
        for i, x in enumerate(X):
            v = sum(c * ref.kernel_grad2(spec, x, ctr)[a]
                    for c, ctr, a in zip(coeffs, centers, alphas))
            assert vals[i] == pytest.approx(v, abs=1e-12)
            for b in range(2):
                g = sum(c * ref.kernel_mixed2(spec, x, ctr, b, int(a))
                        for c, ctr, a in zip(coeffs, centers, alphas))
                assert grads[i, b] == pytest.approx(g, abs=1e-12)


def test_dimension_mismatch():
    spec = KernelSpec("gaussian", 1.0)
    with pytest.raises(DimensionMismatch):
        ref.kernel_eval(spec, np.zeros(2), np.zeros(3))


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        KernelSpec("cubic", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", -1.0)


def pair_case(d, seed=11):
    """Points and centers with exact and near coincidences, with equal and
    with different coordinates on the two sides."""
    rng = np.random.default_rng(seed + d)
    X = rng.uniform(-1.5, 1.5, (13, d))
    coords = rng.integers(0, d, 13)
    centers = rng.uniform(-1.5, 1.5, (9, d))
    alphas = rng.integers(0, d, 9)
    centers[2], alphas[2] = X[4], coords[4]                  # coincident, same coord
    centers[5], alphas[5] = X[7], (coords[7] + 1) % d        # coincident, other coord
    centers[6] = X[9] + 1e-9                                  # under COINCIDENT_R2
    centers[8] = centers[2]                                   # repeated center
    coeffs = rng.standard_normal(9)
    return X, coords, centers, alphas, coeffs


# block sizes: one center per block, blocks of 4 that split the 9 centers
# mid-way, and the module default (all centers in one block)
BLOCKINGS = [lambda M, d: 1, lambda M, d: 4 * M * d, lambda M, d: kernels.BLOCK_FLOATS]


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("blocking", BLOCKINGS)
def test_mixed2_pairs_equals_field_loop_bitwise(fam, d, blocking, monkeypatch):
    X, coords, centers, alphas, _ = pair_case(d)
    monkeypatch.setattr(kernels, "BLOCK_FLOATS", blocking(X.shape[0], d))
    spec = KernelSpec(fam, 1.3)
    K = mixed2_pairs(spec, X, coords, centers, alphas)
    assert np.array_equal(K, ref.mixed2_pairs(spec, X, coords, centers, alphas))
    idx = np.arange(X.shape[0])
    for j in range(centers.shape[0]):
        F = mixed2_field(spec, X, centers[j], int(alphas[j]))
        assert np.array_equal(F, ref.mixed2_field(spec, X, centers[j], int(alphas[j])))
        assert np.array_equal(K[j], F[idx, coords])


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("blocking", BLOCKINGS)
def test_mixed2_accumulate_equals_center_loop_bitwise(fam, d, blocking, monkeypatch):
    X, _, centers, alphas, coeffs = pair_case(d)
    monkeypatch.setattr(kernels, "BLOCK_FLOATS", blocking(X.shape[0], d))
    spec = KernelSpec(fam, 0.8)
    G = mixed2_accumulate(spec, X, centers, alphas, coeffs)
    assert np.array_equal(G, ref.mixed2_accumulate(spec, X, centers, alphas, coeffs))


@pytest.mark.parametrize("fam", FAMILIES)
def test_precise_branches_match_float64(fam):
    # the longdouble profiles of every family, including the matern32
    # coincident branch, against the float64 path and the reference loop
    X, _, centers, alphas, coeffs = pair_case(4)
    spec = KernelSpec(fam, 1.7)
    scale = np.sum(np.abs(coeffs)) * mixed2_self(spec)
    for x in X:
        g = mixed2_accumulate_precise(spec, x, centers, alphas, coeffs,
                                      coord_index(alphas, x.size))
        g64 = mixed2_accumulate(spec, x[None, :], centers, alphas, coeffs)[0]
        assert np.max(np.abs(g - g64)) <= 1e-13 * scale
        assert np.array_equal(g, ref.mixed2_accumulate_precise(spec, x, centers, alphas, coeffs))


@pytest.mark.parametrize("d", range(1, 8))
def test_sq_norms_rounds_like_einsum_bitwise(d):
    # even coordinates, odd coordinates, then the two sums: the order in
    # which einsum("ij,ij->i") rounds rows of up to seven entries
    rng = np.random.default_rng(d)
    R = rng.standard_normal((20000, d)) * rng.uniform(0.1, 10.0, (20000, 1))
    want = np.einsum("ij,ij->i", R, R)
    assert np.array_equal(kernels._sq_norms(np.ascontiguousarray(R.T)), want)
    blocks = np.ascontiguousarray(R.reshape(40, 500, d).transpose(0, 2, 1))
    assert np.array_equal(kernels._sq_norms(blocks), want.reshape(40, 500))


@pytest.mark.parametrize("d", [8, 12, 16])
def test_sq_norms_within_ulps_of_einsum(d):
    # from eight entries on einsum unrolls wider and rounds in another order
    rng = np.random.default_rng(d)
    R = rng.standard_normal((20000, d))
    want = np.einsum("ij,ij->i", R, R)
    got = kernels._sq_norms(np.ascontiguousarray(R.T))
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


@pytest.mark.parametrize("fam", FAMILIES)
def test_profile_d1_zero_equals_family_table_bitwise(fam):
    rng = np.random.default_rng(5)
    epsilons = np.concatenate([np.geomspace(1e-30, 1e19, 4001), 10.0 ** rng.uniform(-30, 19, 4000),
                               [0.5, 1.0, 2.0, 1e-300, 1e77]])
    for eps in epsilons:
        spec = KernelSpec(fam, float(eps))
        got = kernels.profile_d1_zero(spec)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(ref.profile_d1_zero_table(spec)).tobytes()
