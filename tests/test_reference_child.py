"""The micro reference is the worker process's first job, computed while
the parent trains.

Whatever way the run ends, the worker is reaped, a reference failure reads
as the parent's would have, and the artifacts are those of the inline run.
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

TINY_STAGES = ["system", "sampled:32", "trained:0.1:gaussian:1.0:8"]
WORKER_KEYS = {"fits", "child_s", "wait_s", "exit", "private_mb"}


def _tiny():
    return _tiny_config("pendulum")


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
    run_experiment(_tiny(), str(tmp_path))
    assert _open_fds() == open_fds
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "complete"
    assert manifest["stages"] == TINY_STAGES + ["reference", "rollout:0.1", "artifacts"]
    ref = manifest["reference"]
    assert set(ref) == {"child_s", "wait_s"}
    assert ref["child_s"] > 0 and ref["wait_s"] >= 0
    worker = manifest["worker"]
    assert set(worker) == WORKER_KEYS and worker["exit"] == 0
    # this process holds the first candidate, so the worker fitted none
    assert worker["fits"] == {"0.1": 0}
    assert worker["child_s"] >= ref["child_s"] and worker["wait_s"] >= ref["wait_s"]
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
        run_experiment(_tiny(), str(tmp_path))
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "failed"
    assert manifest["error"] == "NoConvergence: step 3: midpoint Newton did not converge"
    assert manifest["stages"] == TINY_STAGES
    ref = manifest["reference"]
    assert set(ref) == {"child_s", "wait_s"} and ref["child_s"] >= 0
    assert manifest["worker"] == ({**manifest["worker"], "exit": 0} if fork else None)
    assert len(forks) == int(fork)
    _assert_no_child()


def test_dead_child_is_one_line_and_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiment_mod, "midpoint_many", lambda *a, **k: os._exit(3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_tiny()))
    out = tmp_path / "out"
    assert main(["experiment", "pendulum", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: ChildProcessError: the worker process ended without "
                   "a result (exit status 3)\n")
    manifest = _manifest(out)
    assert manifest["status"] == "failed" and manifest["stages"] == TINY_STAGES
    assert manifest["error"].startswith("ChildProcessError: ")
    assert manifest["reference"]["child_s"] is None
    worker = manifest["worker"]
    assert worker["exit"] == 3 and worker["child_s"] is worker["private_mb"] is None
    _assert_no_child()


def test_training_failure_kills_the_child(tmp_path, monkeypatch, forks):
    def fail(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(experiment_mod, "train_f_greedy", fail)
    with pytest.raises(AllCandidatesFailed):
        run_experiment(_tiny(), str(tmp_path))
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "failed" and manifest["stages"] == TINY_STAGES[:2]
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
        run_experiment(_tiny(), str(tmp_path))
    manifest = _manifest(tmp_path)
    assert manifest["status"] == "failed" and manifest["stages"] == TINY_STAGES[:2]
    assert _open_fds() == open_fds


def test_quadratic_system_forks_the_worker(tmp_path, forks):
    # a quadratic system's reference is cheap, but the worker is alive for
    # the selection anyway, so it computes the reference there too
    run_experiment(_tiny_config("wave"), str(tmp_path))
    assert len(forks) == 1
    manifest = _manifest(tmp_path)
    assert manifest["worker"]["exit"] == 0 and manifest["reference"]["child_s"] > 0
    _assert_no_child()


def test_train_subcommand_forks_nothing(tmp_path, forks):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_tiny()))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert forks == []
    assert "reference" not in _manifest(tmp_path / "out")


def test_cli_output_appears_once(tmp_path, capfd, monkeypatch):
    # a line still buffered at the fork: a child that flushed the stdio it
    # inherited would write it a second time
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


def test_inline_run_writes_the_same_bytes(tmp_path, monkeypatch):
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    run_experiment(_tiny(), str(forked))
    monkeypatch.delattr(os, "fork")
    run_experiment(_tiny(), str(inline))
    names = sorted(os.listdir(forked))
    assert names == sorted(os.listdir(inline)) and len(names) > 6
    for name in names:
        if name != "MANIFEST.json":
            assert (forked / name).read_bytes() == (inline / name).read_bytes(), name
    manifest = _manifest(inline)
    ref = manifest["reference"]
    assert manifest["worker"] is None and ref["child_s"] == ref["wait_s"] > 0
