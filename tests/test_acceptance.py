"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (visible with -s or on
failure).  The benchmark fixtures run the real experiment pipelines at
desk scale and the criteria read back the emitted artifacts.
"""

import json
import time

import numpy as np
import pytest

import kernel_reference as ref
from symkern.config import default_config
from symkern.data import SamplerSpec, build_hb_dataset, sample_states
from symkern.experiment import build_system, run_experiment, sampler_for
from symkern.greedy import GreedyConfig, train_f_greedy, verify_block_bound
from symkern.kernels import FAMILIES, KernelSpec, mixed2_self
from symkern.predictor import PredictorModel, symplecticity_defect
from symkern.surrogate import DerivFunctional, HBDataset, Surrogate, surrogate_from_dict
from symkern.systems import Chain, Pendulum, Quadratic, resonance_check, step_size_bound

from test_kernels import fd_grad2, fd_mixed2


def check(num, description, condition):
    status = "PASS" if condition else "FAIL"
    print(f"criterion {num:2d} {status}: {description}")
    assert condition, f"criterion {num} failed: {description}"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture(scope="module")
def pendulum_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pendulum")
    cfg = default_config("pendulum", "desk")
    cfg["delta_t_list"] = [0.1]
    cfg["emit_datasets"] = True
    start = time.monotonic()
    summary = run_experiment(cfg, str(out))
    elapsed = time.monotonic() - start
    return cfg, out, summary, elapsed


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain")
    cfg = default_config("chain", "desk")
    summary = run_experiment(cfg, str(out))
    return cfg, out, summary


@pytest.fixture(scope="module")
def wave_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("wave")
    cfg = default_config("wave", "desk")
    summary = run_experiment(cfg, str(out))
    return cfg, out, summary


@pytest.fixture(scope="module")
def synthetic_trace():
    rng = np.random.default_rng(123)
    reps = rng.uniform(-4.0, 4.0, (10, 2))
    coords = rng.integers(0, 2, 10)
    kernel = KernelSpec("gaussian", 1.0)
    target = Surrogate.from_functionals(
        kernel, [DerivFunctional(p, int(a)) for p, a in zip(reps, coords)],
        rng.standard_normal(10))
    pool = rng.uniform(-4.0, 4.0, (100, 2))
    data = HBDataset(pool, target.gradient_many(pool), 0.1)
    _, trace = train_f_greedy(kernel, data, GreedyConfig(max_centers=55),
                              synthetic_target=target)
    return trace


def test_criterion_01_greedy_convergence(pendulum_run):
    _, out, _, elapsed = pendulum_run
    _, rows = read_csv(out / "convergence_dt0.1.csv")
    centers = np.array([int(r[0]) for r in rows])
    train = np.array([float(r[1]) for r in rows])
    val = np.array([float(r[2]) for r in rows])
    hit = centers[train < 1e-4]
    ratio_ok = bool(np.all(val <= 10.0 * train))
    check(1, "pendulum training E below 1e-4 within 300 centers, validation "
             "within 10x of training at every m, runtime under 5 min",
          hit.size > 0 and hit[0] <= 300 and ratio_ok and elapsed <= 300.0)


def test_criterion_02_long_horizon_gap(pendulum_run):
    _, out, _, _ = pendulum_run
    _, rows = read_csv(out / "rel_error.csv")
    finals = [r for r in rows if r[0] == "0.1" and float(r[1]) == 6.0]
    pred, base = float(finals[0][2]), float(finals[0][3])
    check(2, f"pendulum mean rel error at T=6: predictor {pred:.2e} <= 1e-3 "
             f"and <= 0.1 x baseline {base:.2e}",
          pred <= 1e-3 and pred <= 0.1 * base)


def in_domain_states(system, cfg, count, seed):
    if isinstance(system, Pendulum):
        bounds = [(-np.pi, np.pi), (-2 * np.sqrt(9.81), 2 * np.sqrt(9.81))]
        spec = SamplerSpec(bounds, target_count=count,
                           seed=seed, energy_cap=2 * 9.81, energy_strict=True)
    else:
        s = cfg["system"]
        bounds = [(-s["q_max"], s["q_max"])] * 3 + [(-s["p_max"], s["p_max"])] * 3
        spec = SamplerSpec(bounds, target_count=count,
                           seed=seed, energy_cap=s["energy_cap"])
    return sample_states(system, spec)


def test_criterion_03_symplecticity_by_construction(pendulum_run, chain_run):
    worst = 0.0
    for (cfg, out, _, _), system in ((pendulum_run, Pendulum()),):
        surr, dt = surrogate_from_dict(json.loads((out / "model_dt0.1.json").read_text()))
        model = PredictorModel(surr, dt)
        for x in in_domain_states(system, cfg, 10, seed=901):
            worst = max(worst, symplecticity_defect(model, x))
    cfg_c, out_c, _ = chain_run
    surr, dt = surrogate_from_dict(json.loads((out_c / "model_dt0.1.json").read_text()))
    model = PredictorModel(surr, dt)
    for x in in_domain_states(Chain(), cfg_c, 10, seed=902):
        worst = max(worst, symplecticity_defect(model, x))
    # deliberately under-trained pendulum model (5 centers)
    pend = Pendulum()
    states = in_domain_states(pend, None, 150, seed=903)
    data = build_hb_dataset(pend, states, 0.1, 1e-3)
    surr5, _ = train_f_greedy(KernelSpec("gaussian", 0.5), data,
                              GreedyConfig(max_centers=5))
    model5 = PredictorModel(surr5, 0.1)
    for x in in_domain_states(pend, None, 10, seed=904):
        worst = max(worst, symplecticity_defect(model5, x))
    check(3, f"symplecticity defect {worst:.2e} <= 1e-5 for trained and "
             "under-trained models", worst <= 1e-5)


def test_criterion_04_projection_error_identity(synthetic_trace):
    trace = synthetic_trace
    e = np.asarray(trace.rkhs_error)
    worst = 0.0
    for m in range(min(len(trace) - 1, 51)):
        a, b = trace.max_residual[m], trace.power_value[m]
        resid = abs(e[m + 1] ** 2 - e[m] ** 2 + (a / b) ** 2)
        worst = max(worst, resid / e[m] ** 2)
    check(4, f"per-step projection-error identity residual {worst:.2e} <= 1e-8 "
             "for all m <= 50", worst <= 1e-8)


def test_criterion_05_block_residual_bound(synthetic_trace):
    ok = True
    for m in (5, 10, 20):
        lhs, rhs, holds = verify_block_bound(synthetic_trace, m)
        ok = ok and holds
    check(5, "block residual bound holds at m in {5, 10, 20}", ok)


def test_criterion_06_kernel_derivative_consistency():
    rng = np.random.default_rng(606)
    ok = True
    for fam in FAMILIES:
        spec = KernelSpec(fam, 1.5)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            x = rng.uniform(-2, 2, d)
            u = rng.standard_normal(d)
            r = rng.uniform(0.1, 5.0 / spec.epsilon)
            y = x + r * u / np.linalg.norm(u)
            from symkern.kernels import kernel_grad2

            g, g_fd = kernel_grad2(spec, x, y), fd_grad2(spec, x, y)
            ok = ok and np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g)
            a, b = int(rng.integers(0, d)), int(rng.integers(0, d))
            m, m_fd = ref.kernel_mixed2(spec, x, y, a, b), fd_mixed2(spec, x, y, a, b)
            ok = ok and abs(m - m_fd) <= 1e-4 * max(abs(m), mixed2_self(spec))
    for eps in (0.5, 1.0, 3.0):
        spec = KernelSpec("matern32", eps)
        y = np.array([1e-8, 0.0])
        for a in range(2):
            for b in range(2):
                lim = eps**2 if a == b else 0.0
                ok = ok and abs(ref.kernel_mixed2(spec, np.zeros(2), y, a, b) - lim) \
                    <= 1e-6 * eps**2
    check(6, "all four kernel families pass derivative consistency including "
             "the near-coincident Matern-3/2 limit", ok)


def test_criterion_07_step_size_bounds():
    pend_bound = step_size_bound(Pendulum(), [np.zeros(2)], horizon=6.0)
    corners = np.array([[-0.5] * 6, [0.5] * 6])
    chain_bound = step_size_bound(Chain(), corners, horizon=10.0)
    check(7, f"certified step bounds: pendulum {pend_bound:.4e} = 7.07e-2, "
             f"chain {chain_bound:.4e} >= 9.90e-2 (3 significant digits)",
          abs(pend_bound - 7.07e-2) <= 5e-5
          and chain_bound >= 9.90e-2 - 5e-5
          and abs(chain_bound - 9.90e-2) <= 5e-5)


def test_criterion_08_resonance_set():
    sys_ = Quadratic(np.eye(2))
    ok = True
    for dt, resonant_expected in ((0.0, False), (np.pi / 4, False), (np.pi / 2, True)):
        det_d, resonant = resonance_check(sys_, dt)
        ok = ok and abs(det_d - np.cos(dt)) <= 1e-8 and resonant == resonant_expected
    check(8, "harmonic oscillator det D matches cos(dT) at {0, pi/4, pi/2} "
             "and pi/2 is flagged resonant", ok)


def test_criterion_09_mor_structure(wave_run):
    cfg, out, _ = wave_run
    sys_, basis = build_system(cfg)
    defect = basis.symplecticity_defect()
    from symkern.integrators import midpoint_many

    z0 = sample_states(sys_, sampler_for(cfg, sys_))[0]
    path = midpoint_many(sys_, z0[None, :], 0.1, 100, every=1)[:, 0, :]
    H = sys_.energy_many(path)
    drift = float(np.max(np.abs(H - H[0])))
    _, rows = read_csv(out / "rel_error.csv")
    pred_max = max(float(r[2]) for r in rows if r[0] == "0.1")
    check(9, f"wave basis defect {defect:.1e} <= 1e-10, reduced energy drift "
             f"{drift:.1e} <= 1e-9, predictor rel error {pred_max:.2e} <= 1e-3",
          defect <= 1e-10 and drift <= 1e-9 and pred_max <= 1e-3
          and (out / "basis.json").exists())


def test_criterion_10_chain_experiment(chain_run):
    _, out, _ = chain_run
    _, conv = read_csv(out / "convergence_dt0.1.csv")
    final_train = float(conv[-1][1])
    _, rows = read_csv(out / "rel_error.csv")
    finals = [r for r in rows if r[0] == "0.1" and float(r[1]) == 10.0]
    pred, base = float(finals[0][2]), float(finals[0][3])
    check(10, f"chain training E {final_train:.2e} <= 1e-3 at the budget and "
              f"predictor {pred:.2e} <= 0.3 x baseline {base:.2e}",
          final_train <= 1e-3 and pred <= 0.3 * base)


def test_criterion_11_separability_diagnostic(pendulum_run):
    _, out, _, _ = pendulum_run
    header, rows = read_csv(out / "dataset_dt0.1.csv")
    xi = np.array([[float(r[0]), float(r[1])] for r in rows])
    y = np.array([[float(r[2]), float(r[3])] for r in rows])
    data = HBDataset(xi, y, 0.1)
    from symkern.data import separability_diagnostic

    table_a, table_b = separability_diagnostic(data)
    bins = {}
    for inp, outp in zip(table_a["input"], table_a["output"]):
        bins.setdefault(round(inp / 1e-3), []).append(outp)
    spread_a = max(max(v) - min(v) for v in bins.values() if len(v) > 1)
    bins2 = {}
    for k in range(data.count):
        key = (round(table_b["xi_q"][k] / 1e-3), round(table_b["xi_p"][k] / 1e-3))
        bins2.setdefault(key, []).append((table_b["y_q"][k], table_b["y_p"][k]))
    spread_b = 0.0
    for vals in bins2.values():
        if len(vals) > 1:
            arr = np.asarray(vals)
            spread_b = max(spread_b, float(np.max(arr.max(0) - arr.min(0))))
    check(11, f"separable view is multivalued (bin spread {spread_a:.2e} > 1e-2) "
              f"while the mixed view is single-valued (spread {spread_b:.2e} <= 1e-4)",
          spread_a > 1e-2 and spread_b <= 1e-4)


def test_criterion_12_determinism(tmp_path):
    cfg = default_config("pendulum", "desk")
    cfg["sampling"]["grid_counts"] = [16, 16]
    cfg["delta_t_list"] = [0.1]
    cfg["greedy"]["max_centers"] = 60
    cfg["selection"] = {"families": ["gaussian", "matern52"],
                        "epsilons": [0.5, 1.0]}
    cfg["test"] = {"count": 3, "horizon": 2.0}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, str(out_a))
    run_experiment(cfg, str(out_b))
    names = sorted(p.name for p in out_a.iterdir()
                   if p.suffix in (".csv", ".svg", ".json"))
    same = True
    for name in names:
        if name == "MANIFEST.json":
            continue
        same = same and (out_a / name).read_bytes() == (out_b / name).read_bytes()
    check(12, f"two identical runs produce byte-identical artifacts "
              f"({len(names) - 1} files compared)", same and len(names) > 6)
