import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from symkern import kernels
from symkern.errors import DimensionMismatch, DuplicateFunctional, InvalidModel
from symkern.kernels import FAMILIES, KernelSpec, mixed2_accumulate_precise
from symkern.surrogate import (
    DerivFunctional,
    Surrogate,
    _mirror_upper,
    _quadratic_form,
    fit,
    gram_matrix,
    rkhs_inner,
    rkhs_norm,
    surrogate_from_dict,
    surrogate_to_dict,
)

GAUSS = KernelSpec("gaussian", 1.0)


def random_functionals(rng, count, dim, lo=-2.0, hi=2.0):
    pts = rng.uniform(lo, hi, (count, dim))
    coords = rng.integers(0, dim, count)
    return [DerivFunctional(p, int(a)) for p, a in zip(pts, coords)]


def test_gram_single_functional():
    G = gram_matrix(GAUSS, [DerivFunctional(np.zeros(1), 0)])
    assert G.shape == (1, 1) and G[0, 0] == pytest.approx(2.0)


def test_gram_same_center_different_coords():
    f = [DerivFunctional(np.zeros(2), 0), DerivFunctional(np.zeros(2), 1)]
    G = gram_matrix(GAUSS, f)
    assert G[0, 1] == 0.0 and G[1, 0] == 0.0
    assert np.allclose(np.diag(G), 2.0)


def test_gram_far_centers_decay():
    f = [DerivFunctional(np.array([0.0]), 0), DerivFunctional(np.array([10.0]), 0)]
    G = gram_matrix(GAUSS, f)
    assert abs(G[0, 1]) < 1e-40
    assert np.allclose(np.diag(G), 2.0)


def test_gram_exactly_symmetric_and_near_psd():
    rng = np.random.default_rng(12)
    for fam in FAMILIES:
        spec = KernelSpec(fam, 1.1)
        funcs = random_functionals(rng, 20, int(rng.integers(2, 7)))
        G = gram_matrix(spec, funcs)
        assert np.max(np.abs(G - G.T)) == 0.0
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-9


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("block", [1, 5, None])
def test_gram_and_rkhs_inner_equal_row_loops(fam, d, block, monkeypatch):
    # block: centers per evaluator block (None keeps the module default)
    rng = np.random.default_rng(d)
    funcs = random_functionals(rng, 12, d)
    funcs[7] = DerivFunctional(funcs[3].center, (funcs[3].coord + 1) % d)
    funcs[9] = DerivFunctional(funcs[3].center + 1e-9, funcs[3].coord)
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_FLOATS", block * 12 * d)
    spec = KernelSpec(fam, 0.9)
    centers = np.stack([f.center for f in funcs])
    coords = np.array([f.coord for f in funcs])
    assert np.array_equal(gram_matrix(spec, funcs), ref.gram_matrix(spec, centers, coords))
    sa = Surrogate.from_functionals(spec, funcs, rng.standard_normal(12))
    sb = Surrogate.from_functionals(spec, funcs[::2], rng.standard_normal(6))
    assert rkhs_inner(spec, sa, sb) == ref.rkhs_inner(spec, sa, sb)
    assert rkhs_inner(spec, sb, sa) == ref.rkhs_inner(spec, sb, sa)


def row_cases():
    """(n, a, K, b) for n = 1..300, K once C-contiguous and once a view
    with a longer row stride, as target_errors passes its pair matrix."""
    rng = np.random.default_rng(23)
    for n in range(1, 301):
        big = rng.standard_normal((n + 2, n + 3))
        a, b = rng.standard_normal((2, n))
        yield n, a, big[:n, :n].copy(), b
        yield n, a, big[:n, :n], b


def test_vecdot_rows_equal_per_row_dots_bitwise():
    # _quadratic_form relies on this; a NumPy or BLAS upgrade that breaks it
    # fails here instead of moving the benchmark digests
    for n, a, K, _ in row_cases():
        rows = np.array([a @ K[j] for j in range(n)])
        assert np.vecdot(K, a).tobytes() == rows.tobytes(), n


def test_quadratic_form_equals_center_loop_bitwise():
    for n, a, K, b in row_cases():
        assert np.float64(_quadratic_form(a, K, b)).tobytes() == \
            np.float64(ref.quadratic_form(a, K, b)).tobytes(), n


def test_mirror_equals_triu_sum_bitwise():
    # entries seeded with +0.0 and -0.0 in both triangles; tobytes tells
    # -0.0 from 0.0, which np.array_equal does not
    rng = np.random.default_rng(29)
    for n in range(1, 301):
        big = rng.standard_normal((n + 1, n + 2))
        zeros = rng.random((2, n + 1, n + 2)) < 0.2
        big[zeros[0]], big[zeros[1]] = 0.0, -0.0
        upper = np.triu(np.ones((n, n), dtype=bool))
        for S in (big[:n, :n].copy(), big[:n, :n]):
            assert _mirror_upper(S, upper).tobytes() == ref.mirror_upper(S).tobytes(), n


@st.composite
def kernel_and_functionals(draw):
    spec = KernelSpec(draw(st.sampled_from(FAMILIES)), draw(st.floats(0.2, 4.0)))
    dim = draw(st.integers(1, 4))
    point = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    count = draw(st.integers(1, 10))
    funcs = [DerivFunctional(np.array(draw(point)), draw(st.integers(0, dim - 1)))
             for _ in range(count)]
    return spec, funcs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kernel_and_functionals())
def test_gram_property_symmetric_and_equal_to_row_loop(case):
    spec, funcs = case
    G = gram_matrix(spec, funcs)
    assert np.array_equal(G, G.T)
    centers = np.stack([f.center for f in funcs])
    coords = np.array([f.coord for f in funcs])
    assert np.array_equal(G, ref.gram_matrix(spec, centers, coords))


def test_gradient_precise_equals_uncached_evaluation():
    rng = np.random.default_rng(44)
    funcs = random_functionals(rng, 15, 4)
    s = Surrogate.from_functionals(KernelSpec("matern32", 1.4), funcs, rng.standard_normal(15))
    for x in [funcs[2].center, *rng.uniform(-2, 2, (3, 4))]:
        g = s.gradient_precise(x)
        assert np.array_equal(g, mixed2_accumulate_precise(s.kernel, x, s.centers, s.coords,
                                                           s.coeffs))
        assert np.array_equal(g, ref.mixed2_accumulate_precise(s.kernel, x, s.centers,
                                                               s.coords, s.coeffs))


def test_fit_zero_target():
    s = fit(GAUSS, [DerivFunctional(np.zeros(1), 0)], [0.0])
    assert np.allclose(s.coeffs, 0.0)
    assert ref.surrogate_value(s, np.array([0.3])) == 0.0


def test_fit_single_functional_solve():
    s = fit(GAUSS, [DerivFunctional(np.zeros(1), 0)], [2.0])
    assert s.coeffs[0] == pytest.approx(1.0)


def test_fit_interpolates():
    rng = np.random.default_rng(3)
    funcs = random_functionals(rng, 25, 3)
    y = rng.standard_normal(25)
    s = fit(KernelSpec("matern52", 1.5), funcs, y)
    worst = max(abs(ref.gradient(s, f.center)[f.coord] - yi) for f, yi in zip(funcs, y))
    assert worst <= 1e-8 * (1 + np.max(np.abs(y)))


def test_fit_rejects_duplicates():
    f = DerivFunctional(np.zeros(2), 1)
    with pytest.raises(DuplicateFunctional):
        fit(GAUSS, [f, DerivFunctional(np.zeros(2), 1)], [1.0, 2.0])


def test_value_empty_surrogate():
    s = Surrogate.empty(GAUSS, 2)
    assert ref.surrogate_value(s, np.zeros(2)) == 0.0
    assert np.allclose(ref.gradient(s, np.zeros(2)), 0.0)


def test_value_single_term():
    s = Surrogate.from_functionals(GAUSS, [DerivFunctional(np.zeros(1), 0)], [1.0])
    assert ref.surrogate_value(s, np.zeros(1)) == 0.0
    assert ref.surrogate_value(s, np.array([1.0])) == pytest.approx(2 * np.exp(-1.0),
                                                                    rel=1e-12)


def test_gradient_matches_interpolation_constraint():
    s = fit(GAUSS, [DerivFunctional(np.zeros(1), 0)], [2.0])
    assert ref.gradient(s, np.zeros(1))[0] == pytest.approx(2.0, abs=1e-12)


def test_gradient_fd_consistency():
    rng = np.random.default_rng(8)
    funcs = random_functionals(rng, 12, 2)
    s = Surrogate.from_functionals(KernelSpec("imq", 2.0), funcs, rng.standard_normal(12))
    h = 1e-5
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        g = ref.gradient(s, x)
        fd = np.array([
            (ref.surrogate_value(s, x + h * e) - ref.surrogate_value(s, x - h * e)) / (2 * h)
            for e in np.eye(2)
        ])
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_power_function_empty_selection():
    q = DerivFunctional(np.zeros(2), 0)
    assert ref.power_function(GAUSS, [], q) == pytest.approx(np.sqrt(2.0))


def test_power_function_vanishes_on_selected():
    rng = np.random.default_rng(5)
    funcs = random_functionals(rng, 8, 2)
    assert ref.power_function(GAUSS, funcs, funcs[3]) <= 1e-7


def test_power_function_far_selection():
    sel = [DerivFunctional(np.array([10.0, 10.0]), 0)]
    q = DerivFunctional(np.zeros(2), 1)
    assert ref.power_function(GAUSS, sel, q) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_rkhs_inner_basic():
    empty = Surrogate.empty(GAUSS, 1)
    assert rkhs_inner(GAUSS, empty, empty) == 0.0
    s = Surrogate.from_functionals(GAUSS, [DerivFunctional(np.zeros(1), 0)], [1.0])
    assert rkhs_inner(GAUSS, s, s) == pytest.approx(2.0)


def test_rkhs_inner_symmetric():
    rng = np.random.default_rng(17)
    sa = Surrogate.from_functionals(GAUSS, random_functionals(rng, 6, 2),
                                    rng.standard_normal(6))
    sb = Surrogate.from_functionals(GAUSS, random_functionals(rng, 9, 2),
                                    rng.standard_normal(9))
    assert rkhs_inner(GAUSS, sa, sb) == pytest.approx(rkhs_inner(GAUSS, sb, sa), rel=1e-12)


def test_projection_contracts_norm():
    rng = np.random.default_rng(21)
    sup = random_functionals(rng, 15, 2)
    u = Surrogate.from_functionals(GAUSS, sup, rng.standard_normal(15))
    sub = sup[:6]
    targets = [ref.gradient(u, f.center)[f.coord] for f in sub]
    s_m = fit(GAUSS, sub, targets)
    assert rkhs_norm(GAUSS, s_m) <= rkhs_norm(GAUSS, u) * (1 + 1e-10)


def test_pointwise_error_bounded_by_power_function():
    rng = np.random.default_rng(30)
    sup = random_functionals(rng, 12, 2)
    u = Surrogate.from_functionals(GAUSS, sup, rng.standard_normal(12))
    sub = sup[:5]
    s_m = fit(GAUSS, sub, [ref.gradient(u, f.center)[f.coord] for f in sub])
    err = Surrogate(GAUSS, np.vstack([u.centers, s_m.centers]),
                    np.concatenate([u.coords, s_m.coords]),
                    np.concatenate([u.coeffs, -s_m.coeffs]))
    e_norm = rkhs_norm(GAUSS, err)
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        ell = int(rng.integers(0, 2))
        lhs = abs(ref.gradient(err, x)[ell])
        rhs = e_norm * ref.power_function(GAUSS, sub, DerivFunctional(x, ell))
        assert lhs <= rhs + 1e-8


def test_serialization_round_trip():
    rng = np.random.default_rng(41)
    funcs = random_functionals(rng, 7, 3)
    s = Surrogate.from_functionals(KernelSpec("matern32", 0.7), funcs,
                                   rng.standard_normal(7))
    doc = json.loads(json.dumps(surrogate_to_dict(s, 0.05)))
    s2, dt = surrogate_from_dict(doc)
    assert dt == 0.05
    assert s2.kernel == s.kernel
    assert np.array_equal(s2.centers, s.centers)
    assert np.array_equal(s2.coords, s.coords)
    assert np.array_equal(s2.coeffs, s.coeffs)
    x = rng.uniform(-1, 1, 3)
    assert ref.surrogate_value(s2, x) == ref.surrogate_value(s, x)


def _edited(edit):
    """What surrogate_to_dict writes for a two-functional model, edited."""
    s = Surrogate.from_functionals(GAUSS, [DerivFunctional(np.array([0.1, 0.2]), 0),
                                           DerivFunctional(np.array([-0.3, 0.4]), 1)],
                                   [0.5, -0.25])
    doc = json.loads(json.dumps(surrogate_to_dict(s, 0.1)))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["kernel"].update(epsilon=True), "must be numbers"),
    (lambda d: d.update(delta_T="0.1"), "must be numbers"),
    (lambda d: d["functionals"][0]["center"].__setitem__(0, "0.1"), "must be numbers"),
    (lambda d: d["functionals"][1]["center"].__setitem__(1, False), "must be numbers"),
    (lambda d: d.update(coeffs=["1e3", -0.25]), "must be numbers"),
    (lambda d: d.update(coeffs=[True, -0.25]), "must be numbers"),
    (lambda d: d["functionals"][0].update(center="0.1"), "coeffs and centers lists"),
    (lambda d: d.update(coeffs={"0": 0.5}), "coeffs and centers lists"),
    (lambda d: d.update(version=True), "unsupported model version True"),
    (lambda d: d.update(version=1.0), "unsupported model version 1.0"),
    (lambda d: d.update(extra=None), "exactly the keys version, kernel"),
    (lambda d: d.update(system="pendulum"), "exactly the keys version, kernel"),
    (lambda d: d["kernel"].update(scale=1.0), "kernel is a JSON object with exactly"),
    (lambda d: d["functionals"][1].update(weight=1.0), "every functional is a JSON object"),
    (lambda d: d["functionals"][1].pop("coord"), "every functional is a JSON object"),
], ids=["epsilon-bool", "delta-T-string", "center-string", "center-bool", "coeff-string",
        "coeff-bool", "center-not-list", "coeffs-not-list", "version-bool", "version-float",
        "unknown-key", "system-not-object", "unknown-kernel-key", "unknown-functional-key",
        "missing-coord"])
def test_model_document_is_exactly_what_to_dict_writes(edit, message):
    # surrogate_from_dict coerces nothing: a string or bool where
    # surrogate_to_dict writes a number, another version, or a key it does
    # not write is an InvalidModel
    with pytest.raises(InvalidModel, match=message):
        surrogate_from_dict(_edited(edit))


def test_model_document_may_name_its_system():
    # experiment model files carry a "system" object beside the surrogate
    assert surrogate_from_dict(_edited(lambda d: None))[1] == 0.1
    assert surrogate_from_dict(_edited(lambda d: d.update(system={"experiment": "x"})))[1] == 0.1


def test_dimension_checks():
    s = Surrogate.empty(GAUSS, 2)
    with pytest.raises(DimensionMismatch):
        ref.surrogate_value(s, np.zeros(3))


def test_dim_is_the_center_width():
    assert Surrogate.empty(GAUSS, 5).dim == 5
    rng = np.random.default_rng(42)
    s = Surrogate.from_functionals(GAUSS, random_functionals(rng, 3, 4), rng.standard_normal(3))
    assert s.dim == 4
    loaded, _ = surrogate_from_dict(json.loads(json.dumps(surrogate_to_dict(s, 0.1))))
    assert loaded.dim == 4
    empty, _ = surrogate_from_dict(surrogate_to_dict(Surrogate.empty(GAUSS, 6), 0.1))
    assert empty.dim == 6 and empty.size == 0
