"""Model selection on two processes, and the spelling of grid values.

Where os.fork exists and the grid has two or more candidates, a forked
worker fits the candidates at odd positions and this process the even
ones.  Whatever way the run ends, the worker is reaped, a candidate that
fails in it reads as it would inline, and the artifacts are those of the
inline loop.
"""

import io
import json
import os
import sys
import time

import pytest

import symkern.experiment as experiment_mod
from symkern.cli import main
from symkern.errors import NoConvergence
from symkern.experiment import run_experiment
from test_reference_child import _assert_no_child, _manifest, forks  # noqa: F401
from test_trace_sites import _tiny

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

# 2 families x 2 epsilons: the worker fits positions 1 and 3
MINI = {"families": ["gaussian", "matern52"], "epsilons": [1.0, 2.0]}
WORKER_KEYS = {"candidates", "child_s", "wait_s", "exit", "peak_rss_mb"}


def _mini(experiment="pendulum"):
    cfg = _tiny(experiment)
    cfg["selection"].update(MINI)
    return cfg


def _write(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _same_artifacts(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and "selection_table.csv" in names
    for name in names:
        if name != "MANIFEST.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _patch_fits(monkeypatch, in_worker=None, in_parent=None):
    """Route train_f_greedy(kernel, ...) through in_worker(kernel) in the
    forked worker and in_parent(kernel) here, before the real fit."""
    real, parent = experiment_mod.train_f_greedy, os.getpid()

    def patched(kernel, *args, **kwargs):
        hook = in_parent if os.getpid() == parent else in_worker
        if hook is not None:
            hook(kernel)
        return real(kernel, *args, **kwargs)

    monkeypatch.setattr(experiment_mod, "train_f_greedy", patched)


@needs_fork
@pytest.mark.parametrize("experiment", ["pendulum", "chain", "wave"])
def test_worker_writes_the_inline_bytes(tmp_path, monkeypatch, experiment):
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    run_experiment(_mini(experiment), str(forked))
    monkeypatch.delattr(os, "fork")
    run_experiment(_mini(experiment), str(inline))
    _same_artifacts(forked, inline)
    worker = _manifest(forked)["selection"]["0.1"]["worker"]
    assert set(worker) == WORKER_KEYS
    assert worker["candidates"] == 2 and worker["exit"] == 0
    assert worker["child_s"] > 0 and worker["wait_s"] >= 0
    if os.path.exists("/proc/self/status"):
        assert worker["peak_rss_mb"] > 0
    assert _manifest(inline)["selection"] == {"0.1": {"worker": None}}
    _assert_no_child()


@needs_fork
def test_failed_worker_candidate_is_the_inline_row(tmp_path, monkeypatch):
    def fail(kernel):
        if (kernel.family, kernel.epsilon) == ("gaussian", 2.0):
            raise NoConvergence("forced")

    _patch_fits(monkeypatch, in_worker=fail, in_parent=fail)
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    run_experiment(_mini(), str(forked), rollouts=False)
    monkeypatch.delattr(os, "fork")
    run_experiment(_mini(), str(inline), rollouts=False)
    _same_artifacts(forked, inline)
    rows = (forked / "selection_table.csv").read_text().splitlines()
    assert rows[2] == "0.1,gaussian,2.0,,,failed:NoConvergence"
    assert _manifest(forked)["selection"]["0.1"]["worker"]["exit"] == 0
    _assert_no_child()


@needs_fork
def test_dead_worker_is_one_line_and_exit_1(tmp_path, monkeypatch, capsys):
    _patch_fits(monkeypatch, in_worker=lambda kernel: os._exit(3))
    out = tmp_path / "out"
    cfg = _write(tmp_path, _mini())
    assert main(["experiment", "pendulum", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: ChildProcessError: the model selection process "
                                       "ended without a result (exit status 3)\n")
    manifest = _manifest(out)
    assert manifest["status"] == "failed" and manifest["stages"] == ["system", "sampled:32"]
    assert manifest["error"].startswith("ChildProcessError: ")
    worker = manifest["selection"]["0.1"]["worker"]
    assert set(worker) == WORKER_KEYS
    assert worker["exit"] == 3 and worker["child_s"] is worker["peak_rss_mb"] is None
    _assert_no_child()


@needs_fork
def test_parent_failure_kills_the_worker(tmp_path, monkeypatch, forks):  # noqa: F811
    def stall(kernel):
        if kernel.family == "matern52":
            time.sleep(60)          # still fitting position 3 when the parent fails

    def fail(kernel):
        if kernel.family == "matern52":
            raise RuntimeError("forced")    # position 2, after position 1 came back

    _patch_fits(monkeypatch, in_worker=stall, in_parent=fail)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="^forced$"):
        run_experiment(_mini(), str(tmp_path), rollouts=False)
    assert time.perf_counter() - start < 30
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "failed"
    assert manifest["selection"]["0.1"]["worker"]["exit"] == -9
    assert len(forks) == 1
    _assert_no_child()


@needs_fork
def test_cli_output_appears_once_with_a_worker(tmp_path, capfd, monkeypatch):
    # a line still buffered at the fork: a child that flushed the stdio it
    # inherited would write it a second time
    stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"), 1 << 16))
    monkeypatch.setattr(sys, "stdout", stdout)
    cfg = _write(tmp_path, _mini())
    out = tmp_path / "out"
    with stdout:
        print("pending line")
        assert main(["experiment", "pendulum", "--config", cfg, "--out", str(out)]) == 0
    captured = capfd.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3 and lines[0] == "pending line"
    assert lines[1].startswith("dT=0.1: kernel=")
    assert lines[2] == f"artifacts: {out}"
    assert captured.err == ""


@needs_fork
def test_train_forks_one_worker_per_dt(tmp_path, forks):  # noqa: F811
    cfg = _mini()
    cfg["delta_t_list"] = [0.1, 0.05]
    out = tmp_path / "out"
    assert main(["train", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(forks) == 2
    _assert_no_child()
    selection = _manifest(out)["selection"]
    assert sorted(selection) == ["0.05", "0.1"]
    assert all(entry["worker"]["exit"] == 0 for entry in selection.values())


def test_integer_grid_values_are_written_as_floats(tmp_path):
    # an integer in a number leaf is used as a float, and written as one
    spelled = {"int": ([1], [1, 2]), "float": ([1.0], [1.0, 2.0])}
    for name, (delta_t, epsilons) in spelled.items():
        cfg = _tiny("pendulum")
        cfg["delta_t_list"] = delta_t
        cfg["selection"]["epsilons"] = epsilons
        run_experiment(cfg, str(tmp_path / name))
    _same_artifacts(tmp_path / "int", tmp_path / "float")
    out = tmp_path / "int"
    rows = (out / "selection_table.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in rows[1:]] == [["1.0", "gaussian", "1.0"],
                                                       ["1.0", "gaussian", "2.0"]]
    model = json.loads((out / "model_dt1.0.json").read_text())
    assert repr(model["kernel"]["epsilon"]) in ("1.0", "2.0")
    trained = [s for s in _manifest(out)["stages"] if s.startswith("trained:")]
    assert trained == [f"trained:1.0:gaussian:{model['kernel']['epsilon']!r}:8"]
    for name in ("rel_error.csv", "energy_error.csv"):
        assert {row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]} == {"1.0"}
