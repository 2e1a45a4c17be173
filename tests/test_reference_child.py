"""The micro reference is computed in this process while the worker
process fits selection candidates.

Whatever way the run ends, the worker is reaped, a reference failure reads
the same forked and inline, and the artifacts are those of the inline run.
A run with one candidate forks nothing.
"""

import io
import json
import os
import sys

import pytest

import symkern.experiment as experiment_mod
from symkern.cli import main
from symkern.errors import AllCandidatesFailed, NoConvergence
from symkern.experiment import run_experiment
from test_trace_sites import _tiny as _tiny_config

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

WORKER_KEYS = {"fits", "child_s", "wait_s", "exit", "private_mb"}

# 2 families x 2 epsilons, in canonical order gaussian 1.0, gaussian 2.0,
# matern52 1.0, matern52 2.0; this process holds position 0 of the first step
MINI = {"families": ["gaussian", "matern52"], "epsilons": [1.0, 2.0]}


def _tiny():
    return _tiny_config("pendulum")


def _mini(experiment="pendulum"):
    """The tiny config with four candidates, so that a run forks a worker."""
    cfg = _tiny_config(experiment)
    cfg["selection"].update(MINI)
    return cfg


def _manifest(out):
    return json.loads((out / "MANIFEST.json").read_text())


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """This process's open file descriptors, or None without /proc."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture
def forks(monkeypatch):
    """Pids of the os.fork calls made while the test runs."""
    pids, real_fork = [], os.fork

    def spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def test_complete_run_records_the_child(tmp_path, forks):
    open_fds = _open_fds()
    run_experiment(_mini(), str(tmp_path))
    assert _open_fds() == open_fds
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "complete"
    stages = manifest["stages"]
    assert stages[:3] == ["system", "sampled:32", "reference"]
    assert stages[3].startswith("trained:0.1:") and stages[4:] == ["rollout:0.1", "artifacts"]
    ref = manifest["reference"]
    assert set(ref) == {"wall_s"} and ref["wall_s"] > 0
    worker = manifest["worker"]
    assert set(worker) == WORKER_KEYS and worker["exit"] == 0
    # this process holds the first candidate, the worker takes what it leaves
    assert 0 <= worker["fits"]["0.1"] <= 3
    assert worker["child_s"] > 0 and worker["wait_s"] >= 0
    if os.path.exists("/proc/self/smaps_rollup"):
        assert worker["private_mb"] > 0
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_reference_failure_reads_as_in_the_parent(tmp_path, monkeypatch, forks, fork):
    def fail(*args, **kwargs):
        raise NoConvergence("step 3: midpoint Newton did not converge")

    monkeypatch.setattr(experiment_mod, "midpoint_many", fail)
    if not fork:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(NoConvergence, match=r"^step 3: midpoint Newton did not converge$"):
        run_experiment(_mini(), str(tmp_path))
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "NoConvergence: step 3: midpoint Newton did not converge"
    assert manifest["stages"] == ["system", "sampled:32"] and "reference" not in manifest
    if fork:
        # killed while it fits, unless it had already sent its last item
        assert manifest["worker"]["exit"] in (0, -9)
    else:
        assert manifest["worker"] is None
    assert len(forks) == int(fork)
    _assert_no_child()


def test_training_failure_kills_the_child(tmp_path, monkeypatch, forks):
    def fail(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(experiment_mod, "train_f_greedy", fail)
    with pytest.raises(AllCandidatesFailed):
        run_experiment(_mini(), str(tmp_path))
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "failed"
    assert manifest["stages"] == ["system", "sampled:32", "reference"]
    # killed, unless it had already sent its last item and exited
    assert manifest["worker"]["exit"] in (0, -9)
    assert len(forks) == 1
    _assert_no_child()


def test_failed_fork_fails_the_run_and_closes_the_pipe(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = _open_fds()
    with pytest.raises(BlockingIOError):
        run_experiment(_mini(), str(tmp_path))
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "failed" and manifest["stages"] == ["system", "sampled:32"]
    assert _open_fds() == open_fds


def test_quadratic_system_forks_the_worker(tmp_path, forks):
    # a quadratic system's reference is a few matrix products, computed
    # here; the worker forks for the selection all the same
    run_experiment(_mini("wave"), str(tmp_path))
    assert len(forks) == 1
    manifest = _manifest(tmp_path)
    assert manifest["worker"]["exit"] == 0 and manifest["reference"]["wall_s"] > 0
    _assert_no_child()


def test_train_subcommand_forks_nothing(tmp_path, forks):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_tiny()))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert forks == []
    assert "reference" not in _manifest(tmp_path / "out")


def test_cli_output_appears_once(tmp_path, capfd, monkeypatch, forks):
    # one candidate is no work to share, so the experiment forks nothing;
    # tests/test_selection.py holds the forked variant
    stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"), 1 << 16))
    monkeypatch.setattr(sys, "stdout", stdout)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_tiny()))
    out = tmp_path / "out"
    with stdout:
        print("pending line")
        assert main(["experiment", "pendulum", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capfd.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3 and lines[0] == "pending line"
    assert lines[1].startswith("dT=0.1: kernel=gaussian(eps=1.0) centers=8 rel_final=")
    assert lines[2] == f"artifacts: {out}"
    assert captured.err == ""
    assert forks == []


def test_inline_run_writes_the_same_bytes(tmp_path, monkeypatch):
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    run_experiment(_mini(), str(forked))
    monkeypatch.delattr(os, "fork")
    run_experiment(_mini(), str(inline))
    names = sorted(os.listdir(forked))
    assert names == sorted(os.listdir(inline)) and len(names) > 6
    for name in names:
        if name != "MANIFEST.json":
            assert (forked / name).read_bytes() == (inline / name).read_bytes(), name
    assert _manifest(forked)["worker"]["exit"] == 0
    manifest = _manifest(inline)
    assert manifest["worker"] is None and manifest["reference"]["wall_s"] > 0
