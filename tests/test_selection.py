"""Model selection on two processes, and the spelling of grid values.

Where os.fork exists and a run has two or more candidates, one forked
worker takes candidate positions from a counter it shares with this
process, fits and scores them, while this process computes the micro
reference, then trains and rolls out one macro step at a time.  Whatever
way the run ends, the worker is reaped and no descriptor stays open, a
candidate that fails in it reads as it would inline, and the artifacts
are those of the inline loop.
"""

import io
import json
import os
import sys
import time

import pytest

import symkern.experiment as experiment_mod
from symkern import greedy
from symkern.cli import main
from symkern.errors import NoConvergence
from symkern.experiment import run_experiment
from test_reference_child import (MINI, WORKER_KEYS, _assert_no_child, _manifest, _mini,
                                  _open_fds, forks)  # noqa: F401
from test_trace_sites import _tiny

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


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


def _forked_and_inline(tmp_path, monkeypatch, cfg, rollouts=True):
    """Run cfg with the worker and inline; returns (forked, inline) dirs
    after checking that they hold the same bytes."""
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    run_experiment(cfg, str(forked), rollouts=rollouts)
    _assert_no_child()
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        run_experiment(cfg, str(inline), rollouts=rollouts)
    _same_artifacts(forked, inline)
    assert _manifest(inline)["worker"] is None
    return forked, inline


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


def _hold_first_fit(monkeypatch, until, in_worker=None):
    """Hold this process's first fit until the worker has claimed position
    until of the first step; in_worker is _patch_fits's."""
    workers, held, enter = [], [], experiment_mod._Worker.__enter__

    def record(self):
        workers.append(self)
        return enter(self)

    def hold(kernel):
        if held:
            return
        held.append(kernel)
        spool, counter = workers[0].spool.fileno(), experiment_mod._Worker.COUNTER
        deadline = time.monotonic() + 120
        while counter.unpack(os.pread(spool, counter.size, 0))[0] <= until:
            assert time.monotonic() < deadline, "the worker stopped claiming"
            time.sleep(0.01)

    monkeypatch.setattr(experiment_mod._Worker, "__enter__", record)
    _patch_fits(monkeypatch, in_worker=in_worker, in_parent=hold)


@needs_fork
@pytest.mark.parametrize("experiment", ["pendulum", "chain", "wave"])
def test_worker_writes_the_inline_bytes(tmp_path, monkeypatch, experiment):
    forked, _ = _forked_and_inline(tmp_path, monkeypatch, _mini(experiment))
    worker = _manifest(forked)["worker"]
    assert set(worker) == WORKER_KEYS and worker["exit"] == 0
    # the worker took what this process left
    assert list(worker["fits"]) == ["0.1"] and 0 <= worker["fits"]["0.1"] <= 3
    assert worker["child_s"] > 0 and worker["wait_s"] >= 0
    if os.path.exists("/proc/self/smaps_rollup"):
        assert worker["private_mb"] > 0


@needs_fork
def test_three_steps_write_the_inline_bytes(tmp_path, monkeypatch):
    cfg = _mini()
    cfg["delta_t_list"] = [0.1, 0.05, 0.025]
    forked, _ = _forked_and_inline(tmp_path, monkeypatch, cfg)
    manifest = _manifest(forked)
    # trained and rolled out one step at a time, smallest dT first
    assert [":".join(stage.split(":")[:2]) for stage in manifest["stages"][2:]] == [
        "reference", "trained:0.025", "rollout:0.025", "trained:0.05", "rollout:0.05",
        "trained:0.1", "rollout:0.1", "artifacts"]
    assert list(manifest["worker"]["fits"]) == ["0.025", "0.05", "0.1"]
    # the table, the error curves and the summary keep config order
    rows = (forked / "selection_table.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.1"] * 4 + ["0.05"] * 4 + ["0.025"] * 4
    rel = (forked / "rel_error.csv").read_text().splitlines()[1:]
    assert list(dict.fromkeys(row.split(",")[0] for row in rel)) == ["0.1", "0.05", "0.025"]


@needs_fork
def test_worker_fits_the_next_step_during_a_rollout(tmp_path, monkeypatch):
    real = experiment_mod.rollout

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    # only this process rolls out: the worker fits dT 0.1 meanwhile
    monkeypatch.setattr(experiment_mod, "rollout", slow)
    cfg = _mini()
    cfg["delta_t_list"] = [0.1, 0.05]
    run_experiment(cfg, str(tmp_path))
    worker = _manifest(tmp_path)["worker"]
    assert worker["exit"] == 0 and worker["fits"]["0.1"] == 4
    _assert_no_child()


@needs_fork
@pytest.mark.parametrize("position", [0, 2])
def test_nan_validation_residual_picks_the_inline_winner(tmp_path, monkeypatch, position):
    # a NaN first success is never replaced; a later NaN never wins
    cfg = _mini()
    family, epsilon = [(f, e) for f in MINI["families"] for e in MINI["epsilons"]][position]
    real = experiment_mod.max_residual_error

    def nan_for_one(surr, data):
        if (surr.kernel.family, surr.kernel.epsilon) == (family, epsilon):
            return float("nan")
        return real(surr, data)

    monkeypatch.setattr(experiment_mod, "max_residual_error", nan_for_one)
    forked, _ = _forked_and_inline(tmp_path, monkeypatch, cfg, rollouts=False)
    rows = [row.split(",") for row in
            (forked / "selection_table.csv").read_text().splitlines()[1:]]
    assert rows[position][3:5] == ["nan", "nan"]
    selected = [k for k, row in enumerate(rows) if row[5] == "selected"]
    if position == 0:
        assert selected == [0]
    else:
        finite = [(float(row[4]), k) for k, row in enumerate(rows) if k != position]
        assert selected == [min(finite)[1]]


@needs_fork
def test_more_worker_items_than_the_notice_pipe_holds(tmp_path, monkeypatch):
    # 4 x 1100 candidates of one center each.  This process holds its
    # first fit until the worker has claimed position 4097: its 16-byte
    # notices then fill the 64 KiB pipe (4096 of them) until this process reads
    cfg = _tiny("pendulum")
    cfg["sampling"]["grid_counts"] = [4, 4]
    cfg["greedy"]["max_centers"] = 1
    cfg["selection"].update(families=["imq", "gaussian", "matern32", "matern52"],
                            epsilons=[1.0 + k / 1000 for k in range(1100)])
    _hold_first_fit(monkeypatch, 4097)
    parent = os.getpid()
    select, own_fits = greedy._select, []

    def count(*args):
        if os.getpid() == parent:
            own_fits.append(args[0])
        return select(*args)

    monkeypatch.setattr(greedy, "_select", count)
    run_experiment(cfg, str(tmp_path), rollouts=False)
    worker = _manifest(tmp_path)["worker"]
    assert worker["exit"] == 0 and worker["fits"]["0.1"] > 4096
    # each position fitted once, by one process: a lost claim would fit
    # one twice and shift the worker's rows
    assert len(own_fits) + worker["fits"]["0.1"] == 4400
    rows = (tmp_path / "selection_table.csv").read_text().splitlines()
    assert len(rows) == 1 + 4400
    _assert_no_child()


@needs_fork
def test_failed_worker_candidate_is_the_inline_row(tmp_path, monkeypatch):
    def fail(kernel):
        if (kernel.family, kernel.epsilon) == ("gaussian", 2.0):
            raise NoConvergence("forced")

    forked, inline = tmp_path / "forked", tmp_path / "inline"
    # this process holds its first fit until the worker has claimed
    # position 1, gaussian 2.0, so the failure is the worker's
    with monkeypatch.context() as patch:
        _hold_first_fit(patch, 1, in_worker=fail)
        run_experiment(_mini(), str(forked), rollouts=False)
    _patch_fits(monkeypatch, in_parent=fail)
    monkeypatch.delattr(os, "fork")
    run_experiment(_mini(), str(inline), rollouts=False)
    _same_artifacts(forked, inline)
    rows = (forked / "selection_table.csv").read_text().splitlines()
    assert rows[2] == "0.1,gaussian,2.0,,,failed:NoConvergence"
    worker = _manifest(forked)["worker"]
    assert worker["exit"] == 0 and worker["fits"]["0.1"] >= 1
    _assert_no_child()


@needs_fork
@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_reference_failure_comes_before_any_fit_here(tmp_path, monkeypatch, forks,  # noqa: F811
                                                     fork):
    # the reference is computed once the worker is forked and before this
    # process fits its first candidate
    def fail(*args, **kwargs):
        raise NoConvergence("step 3: midpoint Newton did not converge")

    own_fits = []
    _patch_fits(monkeypatch, in_parent=own_fits.append)
    monkeypatch.setattr(experiment_mod, "midpoint_many", fail)
    if not fork:
        monkeypatch.delattr(os, "fork")
    open_fds = _open_fds()
    with pytest.raises(NoConvergence, match=r"^step 3: midpoint Newton did not converge$"):
        run_experiment(_mini(), str(tmp_path))
    assert own_fits == []
    assert _manifest(tmp_path)["stages"] == ["system", "sampled:32"]
    assert len(forks) == int(fork)
    _assert_no_child()
    assert _open_fds() == open_fds


@needs_fork
def test_worker_fit_raising_a_foreign_error_is_one_line_and_exit_1(tmp_path, monkeypatch,
                                                                    capsys):
    def fail(kernel):
        raise MemoryError("forced")

    _hold_first_fit(monkeypatch, 1, in_worker=fail)
    out = tmp_path / "out"
    cfg = _write(tmp_path, _mini())
    open_fds = _open_fds()
    assert main(["experiment", "pendulum", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: MemoryError: forced\n"
    manifest = _manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["stages"] == ["system", "sampled:32", "reference"]
    assert manifest["error"] == "MemoryError: forced"
    assert manifest["worker"]["exit"] in (0, -9)
    _assert_no_child()
    assert _open_fds() == open_fds


@needs_fork
def test_interrupt_is_one_line_exit_130_and_a_failed_manifest(tmp_path, monkeypatch,
                                                               capsys):
    # the worker fits positions 1 to 3 of dT 0.05 and stalls on its first
    # fit of dT 0.1 while this process rolls out dT 0.05 and is interrupted
    calls = []

    def stall(kernel):
        calls.append(kernel)
        if len(calls) == 4:
            time.sleep(60)

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    _hold_first_fit(monkeypatch, 3, in_worker=stall)
    monkeypatch.setattr(experiment_mod, "rollout", interrupt)
    cfg = _mini()
    cfg["delta_t_list"] = [0.1, 0.05]
    out = tmp_path / "out"
    open_fds = _open_fds()
    start = time.perf_counter()
    assert main(["experiment", "pendulum", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 130
    assert time.perf_counter() - start < 30
    assert capsys.readouterr().err == "interrupted\n"
    manifest = _manifest(out)
    # a KeyboardInterrupt has no message, so the error is its type alone
    assert manifest["status"] == "failed" and manifest["error"] == "KeyboardInterrupt"
    stages = manifest["stages"]
    assert stages[:3] == ["system", "sampled:32", "reference"] and len(stages) == 4
    assert stages[3].startswith("trained:0.05:")
    worker = manifest["worker"]
    assert worker["exit"] == -9 and worker["fits"] is worker["private_mb"] is None
    _assert_no_child()
    assert _open_fds() == open_fds


@needs_fork
def test_dead_worker_is_one_line_and_exit_1(tmp_path, monkeypatch, capsys):
    # this process holds its first fit until the worker has taken position 1
    _hold_first_fit(monkeypatch, 1, in_worker=lambda kernel: os._exit(3))
    out = tmp_path / "out"
    cfg = _write(tmp_path, _mini())
    open_fds = _open_fds()
    assert main(["experiment", "pendulum", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: ChildProcessError: the worker process "
                                       "ended without a result (exit status 3)\n")
    manifest = _manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["stages"] == ["system", "sampled:32", "reference"]
    assert manifest["error"].startswith("ChildProcessError: ")
    worker = manifest["worker"]
    assert set(worker) == WORKER_KEYS
    assert worker["exit"] == 3
    assert worker["fits"] is worker["child_s"] is worker["private_mb"] is None
    _assert_no_child()
    assert _open_fds() == open_fds


@needs_fork
def test_parent_failure_kills_the_worker(tmp_path, monkeypatch, forks):  # noqa: F811
    def stall(kernel):
        if kernel.family == "matern52":
            time.sleep(60)          # still fitting when the parent fails

    # positions 2 and 3 are matern52: whichever this process takes first
    # fails it while the worker is alive
    def fail(kernel):
        if kernel.family == "matern52":
            raise RuntimeError("forced")

    _patch_fits(monkeypatch, in_worker=stall, in_parent=fail)
    open_fds = _open_fds()
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="^forced$"):
        run_experiment(_mini(), str(tmp_path), rollouts=False)
    assert time.perf_counter() - start < 30
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "failed"
    worker = manifest["worker"]
    assert worker["exit"] == -9 and worker["fits"] is worker["private_mb"] is None
    assert len(forks) == 1
    _assert_no_child()
    assert _open_fds() == open_fds


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
def test_train_forks_one_worker_per_run(tmp_path, forks):  # noqa: F811
    cfg = _mini()
    cfg["delta_t_list"] = [0.1, 0.05]
    out = tmp_path / "out"
    assert main(["train", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(forks) == 1
    _assert_no_child()
    manifest = _manifest(out)
    assert "reference" not in manifest
    worker = manifest["worker"]
    assert worker["exit"] == 0 and list(worker["fits"]) == ["0.05", "0.1"]
    # this process fitted position 0 of dT 0.05 at least
    assert sum(worker["fits"].values()) <= 7


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
