"""Desk-run benchmark for symkern: end-to-end metrics or a traced layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as a closed loop with one client: a fresh worker process
(``worker.py``) repeats the workload's top-level call until ``--seconds``
would be exceeded, then reports per-run timings, its peak RSS and the
checks on every run's outputs.  Set-up is timed separately, as fresh
interpreters that import symkern and build the inputs.  The timings in the
JSON line are scaled to one host speed, measured by ``worker.host_probe``.
``--trace 1`` adds one run with spans around every public symkern function
and prints the per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  The exit
code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from worker import PROBE_REF_S, host_probe, host_scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("chain-desk", "pendulum-desk", "wave-desk", "verify-synthetic")
SETUP_REPEATS = 7
# every run, set-up included, has to end inside this many seconds
RUN_LIMIT_S = 175.0

# End-to-end metrics in the JSON line.  predict_steps_per_s is printed but
# left out: the rollouts last about a second per desk run, too short to
# average out the host's speed swings, so the traced run reports it as
# predictor.steps_per_s.
STEADY = ("setup_s", "run_s", "train_s", "peak_rss_mb")
# The timings in the JSON line are scaled to the host speed at which
# worker.host_probe takes PROBE_REF_S.  A shared VM's speed drifts by up to a
# factor of two over minutes, and a run's median follows it; each timed call
# is bracketed by probes and multiplied by its host_scale.  Set-up is
# importing and building inputs, interpreter work that follows the probe in
# full.
SETUP_HOST_EXPONENT = 1.0
COMPUTED = {"greedy.pool_center_products", "greedy.newton_basis_mb",
            "kernels.mixed2_field.points", "kernels.mixed2_accumulate.pairs"}


def _env():
    """Single-threaded BLAS: reductions run in a fixed order, so the
    reference values repeat bit for bit, and nproc is never exceeded."""
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _worker(args, timeout):
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return proc.stdout


def timing(values):
    """Median plus the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(vals) * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = vals[math.ceil(p / 100.0 * len(vals)) - 1]
            break
    return out


def _describe(name, unit, t, raw=None):
    pct = [k for k in t if k.startswith("p")]
    tail = f", {pct[0]} {t[pct[0]]:.6g}" if pct else ", no percentile has 10 samples beyond it"
    line = f"  {name:<22}{t['median']:.6g} {unit}  (median of {t['n']}{tail}"
    if raw is not None:
        line += f"; scaled to probe {PROBE_REF_S} s, measured median {raw['median']:.6g}"
    return line + ")"


def measure(workload, seed, seconds, trace):
    """Set-up probes plus the worker's closed loop for one workload."""
    begin = time.perf_counter()
    common = ["--workload", workload, "--seed", str(seed)]
    setup, probes = [], []
    if not trace:
        before = host_probe()
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            _worker([*common, "--setup-only"], timeout=60)
            setup.append(time.perf_counter() - t)
            after = host_probe()
            probes.append((before + after) / 2)
            before = after
    scales = [host_scale(p, SETUP_HOST_EXPONENT) for p in probes]
    left = RUN_LIMIT_S - (time.perf_counter() - begin)
    out = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], timeout=left)
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = setup
    res["setup_probe_s"] = probes
    res["setup_host_scale"] = scales
    return res


def report(workload, seed, res, trace):
    """Print the workload's block; return (checks, attempted, failed, metrics)."""
    iters = res["iterations"]
    good = [r for r in iters if "digest" in r]
    checks = [c for r in iters for c in r["checks"]]
    attempted = sum(r["attempted"] for r in iters)
    failed = sum(r["failed"] for r in iters)
    digests = {r["digest"] for r in good + [res.get("traced", {})] if "digest" in r}
    checks.append(("repeat_runs_identical", len(digests) == 1, f"{len(digests)} digests"))
    attempted += 1
    failed += len(digests) != 1
    host = res["host"]
    print(f"== {workload}  seed {seed}  closed loop, 1 client, {len(iters)} untraced runs ==")
    print("  host: " + ", ".join(f"{k}={v}" for k, v in host.items()))

    metrics = {}
    if trace:
        traced = res["traced"]
        checks += traced["checks"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        for name, (value, unit) in traced.get("layers", {}).items():
            metrics[name] = {"value": value, "unit": unit}
            label = " (computed)" if name in COMPUTED else ""
            print(f"  {name:<48}{value:.6g} {unit}{label}")
        print(f"  spans: {traced.get('trace_file')}")
    elif good:
        scales = [r["host_scale"] for r in good]
        timed = {
            "setup_s": (res["setup_s"], res["setup_host_scale"]),
            "run_s": ([r["run_s"] for r in good], scales),
            "train_s": ([r["train_s"] for r in good], scales),
        }
        e2e = {name: ("s", timing([v * f for v, f in zip(vals, fs)]), timing(vals))
               for name, (vals, fs) in timed.items()}
        e2e["predict_steps_per_s"] = ("1/s", timing([r["predict_steps"] / r["predict_s"]
                                                     for r in good]), None)
        e2e["peak_rss_mb"] = ("MB", timing([res["peak_rss_mb"]]), None)
        print(_describe("host_probe_s", "s", timing([r["probe_s"] for r in good])))
        for name, (unit, t, raw) in e2e.items():
            print(_describe(name, unit, t, raw))
            if name in STEADY:
                metrics[name] = {"value": t["median"], "unit": unit}
        first = good[0]
        print(f"  {'model_residual':<22}{first['model_residual']:.6g} 1")
        if first["rel_error_final"] is not None:
            print(f"  {'rel_error_final':<22}{first['rel_error_final']:.6g} 1")
        print(f"  outputs: {json.dumps(first['outputs'], sort_keys=True)}")
        print(f"  outputs sha256: {first['digest']}")
    print(f"  {'fail_ratio':<22}{failed / max(attempted, 1):.6g} 1  ({failed} of {attempted})")
    for name, ok, detail in checks:
        if not ok:
            print(f"  CHECK FAILED {name}: {detail}")
    return checks, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=2025, help="workload seed (config default)")
    p.add_argument("--seconds", type=float, default=27.0, help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "symkern", "__init__.py")):
        print(f"error: no symkern sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_ok, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(HERE, "_work", f"result-{name}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        checks, att, fail, met = report(name, args.seed, res, args.trace)
        all_ok = all_ok and all(ok for _, ok, _ in checks)
        attempted += att
        failed += fail
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in met.items()})
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
