"""Runs one workload in a fresh interpreter and prints its record as JSON.

``run.py`` starts this file in two ways: with ``--setup-only`` to time a
fresh interpreter importing symkern and building the workload's inputs,
and once for the measured closed loop, where the process's own peak RSS
is the workload's.  symkern is imported from ``src/`` of the checkout this
file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "_work")


def import_symkern():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import symkern

    if not os.path.abspath(symkern.__file__).startswith(src + os.sep):
        raise ImportError(f"symkern resolved to {symkern.__file__}, not {src}")


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def host_info(seed):
    import numpy as np

    cpu = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpu.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level in ("2", "3") and size:
            caches[f"l{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def peak_rss_mb():
    """High-water RSS of this process's own memory map, in MiB.

    ``ru_maxrss`` is not used: across fork and exec it keeps the parent's
    high-water mark, so it would count ``run.py`` as well.
    """
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# Timings are scaled to the host speed at which host_probe takes this long.
PROBE_REF_S = 0.15


def host_probe():
    """Time a fixed piece of work that does not touch symkern.

    It mixes what symkern spends its time on, in about these shares of the
    probe: interpreter loops (60 %), numpy calls on a few hundred points
    (20 %) and passes over an array larger than L2 (20 %).  Its time follows
    the host's speed, which on a shared VM drifts by up to a factor of two
    over minutes, so each run can be scaled to one fixed host speed.
    """
    import numpy as np

    pts = np.linspace(-1.0, 1.0, 400).reshape(200, 2)
    big = np.linspace(-1.0, 1.0, 1 << 20)
    start = time.perf_counter()
    acc = 0.0
    for i in range(750_000):
        acc += (i * 0.5) % 7.0
    for i in range(1_700):
        d = pts - pts[i % 200]
        acc += float(np.exp(-(d * d).sum(axis=1)).sum())
    for _ in range(5):
        acc += float(np.exp(-big * big).sum())
    return time.perf_counter() - start


def host_scale(probe_s, exponent):
    """Factor that takes a time measured while the probe took ``probe_s`` to
    the reference host speed; ``exponent`` is how strongly the timed work
    follows the probe."""
    return (PROBE_REF_S / probe_s) ** exponent


def run_iteration(workload, tracer, reference):
    """One top-level call of the workload, timed, then checked."""
    workload.prepare()
    with tracer:
        start = time.perf_counter()
        try:
            outcome = workload.run()
        except Exception as exc:  # a failed run is a result, not a crash
            return {"run_s": time.perf_counter() - start, "attempted": 1, "failed": 1,
                    "checks": [("run", False, f"{type(exc).__name__}: {exc}")]}
        run_s = time.perf_counter() - start
    record = workload.evaluate(outcome, tracer, reference)
    record["run_s"] = run_s
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_symkern()
    from layers import cross_checks, layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS, load_reference

    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.setup_only:
        return 0
    reference = load_reference()

    # Closed loop: the next desk run starts only after the previous one has
    # returned, and only while at least half a run's time is left, so a
    # workload that takes half the budget still gives two samples and a run
    # ends at most half a run late.  A traced run spends half the budget on
    # untraced runs, whose median is the base of trace.overhead_s.
    # Each run is followed by a host probe; a run's probe_s is the mean of
    # the probes on either side of it.  The first probe comes after the
    # first run, so its arrays stay out of peak_rss_mb.
    budget = args.seconds / 2 if args.trace else args.seconds
    records = []
    start = time.perf_counter()
    before = None
    while True:
        record = run_iteration(workload, Tracer(full=False), reference)
        if not records:
            # a fresh process that has run the workload once; later runs
            # only add allocator slack
            peak_mb = peak_rss_mb()
        after = host_probe()
        record["probe_s"] = after if before is None else (before + after) / 2
        record["host_scale"] = host_scale(record["probe_s"], workload.HOST_EXPONENT)
        before = after
        records.append(record)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["run_s"] for r in records) / 2 > budget:
            break
    result = {"host": host_info(args.seed), "iterations": records, "peak_rss_mb": peak_mb}

    if args.trace:
        tracer = Tracer(full=True)
        traced = run_iteration(workload, tracer, reference)
        if "digest" in traced:
            untraced = statistics.median(r["run_s"] for r in records)
            traced["layers"] = layer_metrics(tracer, traced["run_s"], untraced)
            counters = cross_checks(tracer, args.workload, workload.expected_counts(),
                                    traced["solver_iterations"])
            traced["checks"] += counters
            traced["attempted"] += len(counters)
            traced["failed"] += sum(not ok for _, ok, _ in counters)
            path = os.path.join(WORKDIR, f"trace-{args.workload}-s{args.seed}.csv")
            tracer.write(path)
            traced["trace_file"] = os.path.relpath(path, ROOT)
        result["traced"] = traced
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
