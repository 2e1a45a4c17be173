import json
import os

import numpy as np
import pytest

from symkern.cli import main
from symkern.kernels import LONG_EPS
from symkern.systems import MAX_DOF

MINI = {
    "experiment": "pendulum",
    "sampling": {"grid_counts": [16, 16]},
    "delta_t_list": [0.2, 0.1],
    "greedy": {"max_centers": 60},
    "selection": {"families": ["gaussian", "matern52"], "epsilons": [0.5, 1.0]},
    "test": {"count": 3, "horizon": 2.0},
}


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(MINI))
    out = tmp / "exp"
    rc = main(["experiment", "pendulum", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return cfg_path, out


def test_train_subcommand_artifacts(mini_run, tmp_path):
    cfg_path, exp_out = mini_run
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ("selection_table.csv", "model_dt0.2.json", "model_dt0.1.json",
                 "greedy_trace_dt0.1.csv", "convergence_dt0.1.csv"):
        assert (out / name).exists(), name
    doc = json.loads((out / "model_dt0.1.json").read_text())
    assert doc["version"] == 1 and doc["delta_T"] == 0.1
    assert len(doc["coeffs"]) == len(doc["functionals"]) <= 60
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "complete"
    assert not (out / "rel_error.csv").exists()
    # the same training stages as the experiment, so the same bytes
    for name in ("selection_table.csv", "model_dt0.1.json", "greedy_trace_dt0.2.csv"):
        assert (out / name).read_bytes() == (exp_out / name).read_bytes(), name


def test_train_failure_leaves_manifest(tmp_path, capsys, monkeypatch):
    import symkern.experiment as experiment_mod
    from symkern.errors import NoConvergence

    def fail(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(experiment_mod, "train_f_greedy", fail)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MINI))
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: AllCandidatesFailed: ")
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "failed"
    assert [s.split(":")[0] for s in manifest["stages"]] == ["system", "sampled"]
    assert_runtime(manifest)


def assert_runtime(manifest):
    # the BLAS and its thread settings, on which the artifact bits depend
    runtime = manifest["runtime"]
    assert set(runtime) == {"numpy", "blas", "blas_version", "threads_env", "longdouble_nmant"}
    assert runtime["numpy"] == np.__version__
    # the predictor's bits and its noise floor LONG_EPS follow the mantissa
    assert runtime["longdouble_nmant"] == np.finfo(np.longdouble).nmant
    assert LONG_EPS == 2.0 ** -runtime["longdouble_nmant"]
    assert isinstance(runtime["blas"], str) and isinstance(runtime["blas_version"], str)
    assert set(runtime["threads_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS"}
    assert runtime["threads_env"]["OPENBLAS_NUM_THREADS"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")


def test_experiment_artifacts(mini_run):
    _, out = mini_run
    expected = [
        "MANIFEST.json", "selection_table.csv", "rel_error.csv", "energy_error.csv",
        "convergence.svg", "rel_error.svg",
        "greedy_trace_dt0.2.csv", "greedy_trace_dt0.1.csv",
        "convergence_dt0.2.csv", "convergence_dt0.1.csv",
        "model_dt0.2.json", "model_dt0.1.json",
    ]
    for name in expected:
        assert (out / name).exists(), name
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "complete"
    assert_runtime(manifest)


def test_rel_error_covers_all_steps(mini_run):
    _, out = mini_run
    lines = (out / "rel_error.csv").read_text().splitlines()
    assert lines[0] == "delta_t,t,predictor,baseline"
    dts = {line.split(",")[0] for line in lines[1:]}
    assert dts == {"0.2", "0.1"}


def test_selection_table_consistent(mini_run):
    _, out = mini_run
    lines = (out / "selection_table.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    for dt in ("0.2", "0.1"):
        vals = [(float(r[4]), r[5]) for r in rows if r[0] == dt and r[4] != ""]
        chosen = [v for v, note in vals if note == "selected"]
        assert len(chosen) == 1
        assert chosen[0] == min(v for v, _ in vals)


def test_greedy_trace_columns(mini_run):
    _, out = mini_run
    header = (out / "greedy_trace_dt0.1.csv").read_text().splitlines()[0]
    assert header == "iter,selected_index,coord,max_residual,power_value,rkhs_error"


def test_model_round_trip_predict(mini_run, tmp_path):
    _, out = mini_run
    rc = main(["predict", "--model", str(out / "model_dt0.1.json"),
               "--x0", "0.4,0.0", "--steps", "4", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "rollout.csv").read_text().splitlines()
    assert lines[0] == "t,q_1,p_1,solver_iterations"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == 0.4 and first[3] == "0"


def test_diagnose_separability(mini_run, tmp_path):
    cfg_path, _ = mini_run
    rc = main(["diagnose-separability", "--config", str(cfg_path),
               "--out", str(tmp_path)])
    assert rc == 0
    a = (tmp_path / "separability_a.csv").read_text().splitlines()
    b = (tmp_path / "separability_b.csv").read_text().splitlines()
    assert a[0] == "component,input,output"
    assert b[0] == "xi_q,xi_p,y_q,y_p"
    assert len(a) == 2 * (len(b) - 1) + 1


def test_diagnose_separability_multi_dof_is_usage_error(tmp_path, capsys, monkeypatch):
    import symkern.cli as cli_mod

    def fail(*args, **kwargs):
        raise AssertionError("sampled before the dimension check")

    monkeypatch.setattr(cli_mod, "sample_states", fail)
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({"experiment": "chain", "system": {"n": 2}}))
    out = tmp_path / "diag"
    rc = main(["diagnose-separability", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == ("usage error: diagnose-separability needs a "
                                       "one-degree-of-freedom system, chain has dim 4\n")
    assert not out.exists()


def test_check_bounds(mini_run, capsys):
    cfg_path, out = mini_run
    rc = main(["check-bounds", "--config", str(cfg_path),
               "--model", str(out / "model_dt0.1.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "certified macro step bound" in text
    assert "contraction margin" in text


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "pendulum", "unknown_knob": 1}))
    assert main(["experiment", "pendulum", "--config", str(bad)]) == 2


@pytest.mark.parametrize("override, where", [
    ({"greedy": {"max_centers": "30"}}, "greedy.max_centers: expected an integer, got a string"),
    ({"seed": 1.5}, "seed: expected an integer, got a number"),
    ({"selection": {"epsilons": [1.0, "2"]}},
     "selection.epsilons[1]: expected a number or an integer, got a string"),
    ({"selection": {"m_star": 2}}, "unknown config key: selection.m_star"),
])
def test_config_leaf_type_exit_code(tmp_path, capsys, override, where):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "pendulum", **override}))
    assert main(["experiment", "pendulum", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {where}\n"


@pytest.mark.parametrize("command, config, message", [
    ("train", {"experiment": "pendulum", "sampling": {"grid_counts": [5]}},
     "sampling.grid_counts must hold one count for each of the 2 state coordinates, got [5]"),
    ("train", {"experiment": "pendulum", "system": {"mass": 0.0}},
     "system.mass must lie in [1e-30, 1e+30], got 0.0"),
    ("train", {"experiment": "pendulum", "system": {"length": -1.0}},
     "system.length must lie in [1e-30, 1e+30], got -1.0"),
    ("train", {"experiment": "chain", "system": {"n": 0}}, "system.n must lie in [1, 1000], got 0"),
    ("train", {"experiment": "chain", "sampling": {"target_count": 0}},
     "sampling.target_count must lie in [2, 10000000], got 0"),
    ("train", {"experiment": "pendulum", "selection": {"epsilons": [1e308]}},
     "selection: epsilon must be positive with a finite fourth power, got 1e+308"),
    ("train", {"experiment": "pendulum", "selection": {"epsilons": [1e100]}},
     "selection: epsilon must be positive with a finite fourth power, got 1e+100"),
    ("train", {"experiment": "pendulum", "selection": {"epsilons": [10**400]}},
     "selection.epsilons[0]: integer too large for a float"),
    ("experiment", {"experiment": "pendulum", "test": {"count": 0}},
     "test.count must lie in [1, 10000000], got 0"),
    ("train", {"experiment": "pendulum", "selection": {"families": []}},
     "selection.families must be nonempty"),
    ("train", {"experiment": "pendulum", "selection": {"families": ["cubic"], "epsilons": []}},
     "selection.epsilons must be nonempty"),
    ("train", {"experiment": "pendulum", "selection": {"families": ["gaussian", "gaussian"]}},
     "selection.families must not repeat a value, got ['gaussian', 'gaussian']"),
    ("train", {"experiment": "pendulum", "selection": {"epsilons": [1.0, 1, 1.0]}},
     "selection.epsilons must not repeat a value, got [1.0, 1, 1.0]"),
    ("experiment", {"experiment": "pendulum", "delta_t_list": [0.1, 0.1]},
     "delta_t_list must not repeat a value, got [0.1, 0.1]"),
    ("train", {"experiment": "pendulum", "delta_t_list": [float("nan")]},
     "delta_t_list[0]: expected a finite number, got nan"),
    ("experiment", {"experiment": "pendulum", "test": {"horizon": float("inf")}},
     "test.horizon: expected a finite number, got inf"),
    ("train", {"experiment": "chain", "system": {"q_max": float("nan")}},
     "system.q_max: expected a finite number, got nan"),
    ("train", {"experiment": "chain", "system": {"q_max": 10**400}},
     "system.q_max: integer too large for a float"),
    ("train", {"experiment": "pendulum", "micro_dt": 5e-324},
     "delta_t=0.1 is not an integer multiple of micro_dt=5e-324"),
    ("experiment", {"experiment": "pendulum", "micro_dt": 0.001000000000005},
     "horizon 6.0 is not a multiple of micro_dt=0.001000000000005"),
    ("experiment", {"experiment": "pendulum", "micro_dt": 0.00100000000005},
     "delta_t=0.1 is not an integer multiple of micro_dt=0.00100000000005"),
    ("train", {"experiment": "wave", "system": {"snapshot_modes": 0}},
     "system.snapshot_modes must lie in [1, 8], got 0"),
    ("train", {"experiment": "wave", "system": {"snapshot_modes": 9}},
     "system.snapshot_modes must lie in [1, 8], got 9"),
    ("train", {"experiment": "wave", "system": {"n_grid": 0}}, "system.n_grid must lie in [1, 1000], got 0"),
    ("train", {"experiment": "wave", "system": {"z_max": -1}},
     "system.z_max must lie in [1e-30, 1e+30], got -1"),
    ("train", {"experiment": "chain", "system": {"q_max": 0}},
     "system.q_max must lie in [1e-30, 1e+30], got 0"),
    ("train", {"experiment": "chain", "system": {"p_max": 0}},
     "system.p_max must lie in [1e-30, 1e+30], got 0"),
    ("train", {"experiment": "wave", "system": {"reduced_modes": 0}},
     "system.reduced_modes must lie in [1, 4], got 0"),
    ("train", {"experiment": "wave", "system": {"reduced_modes": 5}},
     "system.reduced_modes must lie in [1, 4], got 5"),
    ("train", {"experiment": "wave", "system": {"n_grid": 3, "reduced_modes": 4}},
     "system.reduced_modes must lie in [1, 3], got 4"),
    ("train", {"experiment": "wave", "system": {"energy_cap": 0}},
     "system.energy_cap must lie in [1e-30, 1e+30], got 0"),
    ("train", {"experiment": "chain", "system": {"energy_cap": -1}},
     "system.energy_cap must lie in [1e-30, 1e+30], got -1"),
    ("train", {"experiment": "pendulum", "sampling": {"grid_counts": [10**400, 5]}},
     "sampling.grid_counts must hold between 2 and 10000000 grid points"),
    ("train", {"experiment": "pendulum", "sampling": {"grid_counts": [100000, 100000]}},
     "sampling.grid_counts must hold between 2 and 10000000 grid points"),
    ("train", {"experiment": "chain", "sampling": {"target_count": 10**7 + 1}},
     "sampling.target_count must lie in [2, 10000000], got 10000001"),
    ("experiment", {"experiment": "pendulum", "test": {"count": 10**7 + 1}},
     "test.count must lie in [1, 10000000], got 10000001"),
    ("train", {"experiment": "wave", "system": {"length": 0}},
     "system.length must lie in [1e-30, 1e+30], got 0"),
    ("train", {"experiment": "wave", "system": {"n_grid": MAX_DOF + 1}},
     f"system.n_grid must lie in [1, {MAX_DOF}], got {MAX_DOF + 1}"),
    ("train", {"experiment": "chain", "system": {"n": MAX_DOF + 1}},
     f"system.n must lie in [1, {MAX_DOF}], got {MAX_DOF + 1}"),
    ("train", {"experiment": "pendulum", "system": {"length": 1e300}},
     "system.length must lie in [1e-30, 1e+30], got 1e+300"),
    ("train", {"experiment": "wave", "system": {"length": 1e-300}},
     "system.length must lie in [1e-30, 1e+30], got 1e-300"),
    ("train", {"experiment": "wave", "system": {"wave_speed": -1e31}},
     "system.wave_speed must lie in [-1e+30, 1e+30], got -1e+31"),
    ("train", {"experiment": "chain", "scenario": "B", "system": {"n": 1}},
     "system.n must lie in [2, 1000], got 1"),
    ("train", {"experiment": "chain", "greedy": {"residual_tolerance": -1.0}},
     "greedy.residual_tolerance must be >= 0, got -1.0"),
    ("train", {"experiment": "pendulum", "micro_dt": 1e-300},
     "horizon 6.0 takes more than 1000000 steps of micro_dt=1e-300"),
    ("train", {"experiment": "chain", "sampling": {"target_count": 1}},
     "sampling.target_count must lie in [2, 10000000], got 1"),
    ("train", {"experiment": "pendulum", "sampling": {"grid_counts": [1, 1]}},
     "sampling.grid_counts must hold between 2 and 10000000 grid points"),
], ids=["grid-counts-length", "zero-mass", "negative-length", "empty-chain",
        "zero-target-count", "epsilon-square-overflows", "epsilon-fourth-power-overflows",
        "epsilon-int-overflows", "zero-test-count", "empty-families", "empty-epsilons",
        "repeated-family", "repeated-epsilon", "repeated-delta-t",
        "nan-delta-t", "infinite-horizon", "nan-chain-bound", "int-chain-bound-overflows",
        "subnormal-micro-dt", "horizon-off-micro-grid", "micro-dt-ratio-off-grid",
        "zero-snapshot-modes",
        "too-many-snapshots", "zero-wave-grid", "negative-wave-box", "zero-chain-q-bound",
        "zero-chain-p-bound", "zero-reduced-modes", "reduced-modes-past-snapshots",
        "reduced-modes-past-grid", "zero-wave-energy-cap", "negative-chain-energy-cap",
        "grid-counts-int-overflows", "grid-too-large", "target-count-too-large",
        "test-count-too-large", "zero-wave-length", "wave-grid-past-max-dof",
        "chain-past-max-dof", "pendulum-length-too-large", "wave-length-too-small",
        "wave-speed-too-large", "chain-scenario-b-one-mass", "negative-residual-tolerance",
        "micro-steps-past-limit", "target-count-one", "grid-one-point"])
def test_config_leaf_value_exit_code(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    argv = [command] + (["pendulum"] if command == "experiment" else [])
    rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x0, steps, message", [
    ("a,b", "2", "usage error: --x0 must be comma-separated numbers, got 'a,b'\n"),
    ("0.1,0.2,0.3", "2", "usage error: --x0 has 3 entries, the model state has 2\n"),
    ("0.1,0.2", "-1", "usage error: --steps must be nonnegative, got -1\n"),
    ("0.1,0.2", "10000000000000000000",
     "usage error: --steps must be at most 1000000, got 10000000000000000000\n"),
    ("nan,0", "2", "usage error: --x0 must be finite numbers, got 'nan,0'\n"),
    ("inf,0", "2", "usage error: --x0 must be finite numbers, got 'inf,0'\n"),
])
def test_predict_bad_input_exit_code(mini_run, tmp_path, capsys, x0, steps, message):
    _, out = mini_run
    rc = main(["predict", "--model", str(out / "model_dt0.1.json"),
               "--x0", x0, "--steps", steps, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "rollout.csv").exists()


MODEL = {
    "version": 1, "kernel": {"family": "gaussian", "epsilon": 1.0}, "dim": 2,
    "delta_T": 0.1,
    "functionals": [{"center": [0.1, 0.2], "coord": 0}, {"center": [-0.3, 0.4], "coord": 1}],
    "coeffs": [0.5, -0.25],
}


def _model_text(**over):
    doc = json.loads(json.dumps(MODEL))
    doc.update(over)
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    _model_text(coeffs=[0.5]),
    _model_text(functionals=[{"center": [0.1], "coord": 0}, {"center": [0.3], "coord": 0}]),
    _model_text(functionals=[{"center": [0.1, 0.2], "coord": 5}, MODEL["functionals"][1]]),
    json.dumps({k: v for k, v in MODEL.items() if k != "kernel"}),
    _model_text(delta_T=-1),
    json.dumps([MODEL]),
    _model_text()[:-2],
    _model_text(coeffs=[float("nan"), 0.5]),
    _model_text(dim=3, functionals=[{"center": [0.1, 0.2, 0.3], "coord": 0}], coeffs=[1.0]),
    _model_text(kernel="gaussian"),
    _model_text(kernel={"family": "gaussian", "epsilon": 1e200}),
    _model_text(kernel={"family": "gaussian", "epsilon": 10**400}),
    _model_text(kernel={"family": "gaussian", "epsilon": 1e100}),
    _model_text(dim=2**60, functionals=[], coeffs=[]),
    _model_text(kernel={"family": "gaussian", "epsilon": True}),
    _model_text(delta_T="0.1"),
    _model_text(functionals=[{"center": ["0.1", 0.2], "coord": 0}, MODEL["functionals"][1]]),
    _model_text(functionals=[{"center": [True, 0.2], "coord": 0}, MODEL["functionals"][1]]),
    _model_text(coeffs=["1e3", -0.25]),
    _model_text(coeffs=[False, -0.25]),
    _model_text(version=True),
    _model_text(version=1.0),
    _model_text(note="extra"),
    _model_text(kernel={"family": "gaussian", "epsilon": 1.0, "scale": 2.0}),
    _model_text(functionals=[{"center": [0.1, 0.2], "coord": 0, "weight": 1.0},
                             MODEL["functionals"][1]]),
], ids=["one-coeff-two-functionals", "short-centers", "coord-out-of-range", "no-kernel",
        "negative-delta-T", "top-level-list", "malformed-json", "nan-coeff", "odd-dim",
        "kernel-not-object", "epsilon-square-overflows", "epsilon-int-overflows",
        "epsilon-fourth-power-overflows", "empty-model-dim-overflows", "epsilon-bool",
        "delta-T-string", "center-string", "center-bool", "coeff-string", "coeff-bool",
        "version-bool", "version-float", "unknown-top-level-key", "unknown-kernel-key",
        "unknown-functional-key"])
def test_predict_bad_model_exit_code(tmp_path, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    rc = main(["predict", "--model", str(model), "--x0", "0.1,0.2", "--steps", "2",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and err.count("\n") == 1
    assert not (tmp_path / "rollout.csv").exists()


def test_check_bounds_bad_model_exit_code(mini_run, tmp_path, capsys):
    cfg_path, _ = mini_run
    model = tmp_path / "model.json"
    model.write_text(_model_text(coeffs=[0.5]))
    rc = main(["check-bounds", "--config", str(cfg_path), "--model", str(model)])
    assert rc == 2
    assert capsys.readouterr().err == "model error: 1 coefficient(s) for 2 functional(s)\n"


CHAIN_MODEL = _model_text(dim=6, functionals=[{"center": [0.1] * 6, "coord": 0}],
                          coeffs=[1.0])


@pytest.mark.parametrize("model_text, config, message", [
    (CHAIN_MODEL, None, "--model has state dim 6, the config's system pendulum has 2"),
    (None, {"experiment": "chain"}, "--model has state dim 2, the config's system chain has 6"),
], ids=["chain-model-pendulum-config", "pendulum-model-chain-config"])
def test_check_bounds_model_dim_mismatch(mini_run, tmp_path, capsys, model_text, config,
                                         message):
    # the dims are compared before any output: no bound lines, no traceback
    cfg_path, out = mini_run
    model = out / "model_dt0.1.json"
    if model_text is not None:
        model = tmp_path / "model.json"
        model.write_text(model_text)
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
    rc = main(["check-bounds", "--config", str(cfg_path), "--model", str(model)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_runtime_error_exit_code(tmp_path):
    assert main(["predict", "--model", str(tmp_path / "missing.json"),
                 "--x0", "0,0", "--steps", "1"]) == 1


def test_failed_run_leaves_manifest(tmp_path, monkeypatch):
    # an unsatisfiable sampler acceptance rate (no draw of the box has an
    # energy below 1e-12) aborts the run but the MANIFEST must record the
    # failure
    import symkern.data as data_mod

    monkeypatch.setattr(data_mod, "MAX_DRAWS", 20000)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "chain",
        "sampling": {"target_count": 50},
        "system": {"energy_cap": 1e-12},
        "delta_t_list": [0.1],
        "test": {"horizon": 1.0},
    }))
    out = tmp_path / "out"
    rc = main(["experiment", "chain", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "failed"
    assert "FilterTooTight" in manifest["error"]


def test_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    import symkern.experiment as experiment_mod

    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(experiment_mod, "build_system", out_of_memory)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MINI))
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: MemoryError: Unable to allocate 8.00 TiB "
                                       "for an array\n")
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "failed" and manifest["stages"] == []
    assert manifest["error"].startswith("MemoryError: ")
