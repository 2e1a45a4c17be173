"""End-to-end benchmark pipelines and artifact emission.

A run samples initial states, builds one-step training data per macro
step size, selects the kernel on a validation split, trains to the center
budget, rolls out seeded test trajectories against the macro midpoint
baseline and the micro reference, and writes CSV/SVG/model artifacts.
Where os.fork exists the micro reference runs in a child process while
the parent trains.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import replace
from time import perf_counter

import numpy as np

from .config import validate
from .data import SamplerSpec, build_hb_dataset, sample_states, split_train_validation
from .errors import AllCandidatesFailed, SymkernError
from .greedy import GreedyConfig, max_residual_error, train_f_greedy
from .integrators import midpoint_many, propagate, step_count
from .ioutil import ensure_dir, fmt, write_csv, write_json
from .kernels import FAMILIES, KernelSpec
from .metrics import MetricSeries, compute_metrics, mean_series
from .mor import csvd_basis, reduce_quadratic
from .plots import emit_line_plot
from .predictor import PredictorModel, rollout
from .surrogate import surrogate_to_dict
from .systems import Chain, Pendulum, Wave


def build_system(cfg):
    """(system, basis): the wave benchmark returns the reduced quadratic
    system and its symplectic basis, the others a basis of None."""
    s = cfg["system"]
    exp = cfg["experiment"]
    if exp == "pendulum":
        return Pendulum(s["mass"], s["length"], s["gravity"]), None
    if exp == "chain":
        return Chain(s["n"], s["alpha"], s["beta"]), None
    full = Wave(s["n_grid"], s["wave_speed"], s["length"])
    snaps = full.sine_snapshots(s["snapshot_modes"])
    basis = csvd_basis(snaps[:, : full.n].T, snaps[:, full.n:].T, s["reduced_modes"])
    reduced = reduce_quadratic(basis, full)
    reduced.name = "wave_reduced"
    return reduced, basis


def pendulum_box(sys: Pendulum):
    """Sampling box [-pi, pi] x [-p_max, p_max] with p_max from H = 2 m g l."""
    p_max = 2.0 * sys.mass * sys.length * np.sqrt(sys.gravity * sys.length)
    return [(-np.pi, np.pi), (-p_max, p_max)], 2.0 * sys.mass * sys.gravity * sys.length


def sampler_for(cfg, sys) -> SamplerSpec:
    exp = cfg["experiment"]
    s = cfg["system"]
    scenario_b = cfg["scenario"] == "B"
    if exp == "pendulum":
        bounds, cap = pendulum_box(sys)
        return SamplerSpec(
            bounds, counts=list(cfg["sampling"]["grid_counts"]),
            energy_cap=cap, energy_strict=True,
            halfspace=(1, +1) if scenario_b else None,
        )
    n = sys.n
    if exp == "chain":
        bounds = [(-s["q_max"], s["q_max"])] * n + [(-s["p_max"], s["p_max"])] * n
    else:
        bounds = [(-s["z_max"], s["z_max"])] * sys.dim
    return SamplerSpec(
        bounds, target_count=cfg["sampling"]["target_count"], seed=cfg["seed"],
        energy_cap=s["energy_cap"],
        halfspace=(n + 1, +1) if scenario_b and exp == "chain" else None,
    )


def test_states(cfg, sys):
    """Seeded test initial conditions, independent of the training draw."""
    count = cfg["test"]["count"]
    seed = cfg["seed"] + 2
    exp = cfg["experiment"]
    if exp == "wave":
        return sample_states(sys, replace(sampler_for(cfg, sys), target_count=count, seed=seed))
    rng = np.random.default_rng(seed)
    if exp == "pendulum":
        q = rng.uniform(0.0, np.pi, count)
        return np.stack([q, np.zeros(count)], axis=1)
    q = rng.uniform(0.0, cfg["system"]["q_max"], (count, sys.n))
    return np.concatenate([q, np.zeros((count, sys.n))], axis=1)


def select_model(families, epsilons, greedy_cfg, train, val):
    """Grid search over (family, epsilon) by validation residual, every
    candidate trained under greedy_cfg.

    Candidates run in canonical family order with epsilons ascending, so
    ties resolve to the earlier family and the smaller shape parameter.
    Only the best candidate's fit is kept.  Returns (kernel, (surrogate,
    trace) of its fit, table rows).
    """
    rows = []
    best = None
    fams = [f for f in FAMILIES if f in families]
    for fam in fams:
        for eps in sorted(epsilons):
            spec = KernelSpec(fam, float(eps))
            try:
                fit = train_f_greedy(spec, train, greedy_cfg)
                train_e = max_residual_error(fit[0], train)
                val_e = max_residual_error(fit[0], val)
            except SymkernError as exc:
                rows.append((fam, eps, "", "", f"failed:{type(exc).__name__}"))
                continue
            rows.append((fam, eps, train_e, val_e, ""))
            if best is None or val_e < best[0]:
                best = (val_e, spec, fit)
            # a losing fit's Newton factor is not held through the next fit
            del fit
    if best is None:
        raise AllCandidatesFailed("every (family, epsilon) candidate failed to train")
    return best[1], best[2], rows


def center_budget(cfg) -> int:
    budget = cfg["greedy"]["max_centers"]
    if cfg["scenario"] == "B" and cfg["experiment"] == "pendulum":
        budget = max(1, budget // 2)        # smaller domain, comparable fill distance
    return budget


def _dt_tag(dt: float) -> str:
    return fmt(float(dt))


def train_one(cfg, sys_, states, dt, out_dir, sel_rows):
    """Dataset, model selection, and budget training for one macro step.

    Writes the greedy trace, convergence curve, and model file; appends to
    the shared selection table rows.  Returns (kernel, surrogate, trace).
    """
    tag = _dt_tag(dt)
    data = build_hb_dataset(sys_, states, dt, cfg["micro_dt"],
                            meta={"scenario": cfg["scenario"], "seed": cfg["seed"]})
    if cfg["emit_datasets"]:
        _write_dataset(out_dir, tag, data)
    train, val = split_train_validation(data, cfg["validation_fraction"], cfg["seed"] + 1)
    sel = cfg["selection"]
    greedy_cfg = GreedyConfig(max_centers=center_budget(cfg),
                              residual_tolerance=cfg["greedy"]["residual_tolerance"])
    kspec, winner, rows = select_model(sel["families"], sel["epsilons"], greedy_cfg, train, val)
    for fam, eps, tr, va, note in rows:
        chosen = "selected" if (fam, eps) == (kspec.family, kspec.epsilon) else note
        sel_rows.append((dt, fam, eps, tr, va, chosen))

    # the winner ran under this config, so the budget fit keeps its picks
    # and only replays the validation pool
    surr, trace = train_f_greedy(kspec, train, greedy_cfg, validation=val, picks=winner)
    write_csv(os.path.join(out_dir, f"greedy_trace_dt{tag}.csv"),
              ["iter", "selected_index", "coord", "max_residual", "power_value",
               "rkhs_error"], trace.rows())
    write_csv(os.path.join(out_dir, f"convergence_dt{tag}.csv"),
              ["centers", "train_residual", "val_residual"], trace.convergence_rows())
    model_doc = surrogate_to_dict(surr, dt)
    model_doc["system"] = {"experiment": cfg["experiment"], **cfg["system"]}
    write_json(os.path.join(out_dir, f"model_dt{tag}.json"), model_doc)
    return kspec, surr, trace


# Environment variables that set the BLAS thread count.  Artifacts are
# byte-identical only at a fixed count: a threaded BLAS splits its sums
# differently.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _runtime():
    """The MANIFEST's ``runtime`` entry: numpy, the BLAS it was built
    against, its thread settings and the mantissa bits of np.longdouble."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "longdouble_nmant": int(np.finfo(np.longdouble).nmant)}


def run_experiment(cfg, out_dir, rollouts: bool = True):
    """Execute one benchmark end to end; artifacts land in out_dir.

    Without rollouts the run stops once every macro step is trained (the
    `symkern train` subcommand).  On failure the MANIFEST records the
    completed stages before the exception propagates.
    """
    validate(cfg)
    ensure_dir(out_dir)
    manifest = {"config": cfg, "status": "running", "runtime": _runtime(), "stages": []}

    def checkpoint(status=None, error=None):
        if status:
            manifest["status"] = status
        if error:
            manifest["error"] = error
        write_json(os.path.join(out_dir, "MANIFEST.json"), manifest)

    try:
        summary = _run_stages(cfg, out_dir, manifest, rollouts)
        checkpoint("complete")
        return summary
    except Exception as exc:
        checkpoint("failed", f"{type(exc).__name__}: {exc}")
        raise


class _Reference:
    """The micro reference on the test states, computed in a forked child
    while the parent trains.

    Only every stride-th state comes back, stride being the gcd of the
    macro strides: the states compute_metrics reads.  Row 0 holds the test
    states.  collect() reads the pipe, reaps the child and re-raises its
    exception; leaving the with-block any other way kills and reaps it.
    For a quadratic system, or where os.fork does not exist, collect()
    computes inline.  ``info`` is the MANIFEST's ``reference`` entry.
    """

    def __init__(self, cfg, sys_):
        self.cfg, self.sys = cfg, sys_
        self.stride = math.gcd(*(step_count(dt, cfg["micro_dt"]) for dt in cfg["delta_t_list"]))
        self.pid = self.fd = None
        self.info = {"child_s": None, "wait_s": None, "exit": None}

    def compute(self) -> np.ndarray:
        micro = self.cfg["micro_dt"]
        path = midpoint_many(self.sys, test_states(self.cfg, self.sys), micro,
                             step_count(self.cfg["test"]["horizon"], micro), keep_path=True)
        return path[:: self.stride].copy()

    def __enter__(self):
        # A quadratic system's reference is one matrix product per step,
        # cheaper than what a live child costs the parent: each page the
        # parent first writes while the child shares it is copied, and a
        # transparent huge page is split (wave-desk: 6 % slower on 2 vCPUs).
        if self.sys.quadratic or not hasattr(os, "fork"):
            return self
        self.fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(write_fd)
            self.__exit__()
            raise
        if self.pid:
            os.close(write_fd)
            return self
        # the child leaves only through os._exit: it never unwinds into the
        # parent's stack or flushes the stdio it inherited.  An interrupt
        # ends it without a result.
        status = 1
        try:
            start = perf_counter()
            try:
                result = (self.compute(), None)
            except Exception as exc:
                result = (None, exc)
            blob = pickle.dumps(result + (perf_counter() - start,))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(blob)
            status = 0
        finally:
            os._exit(status)

    def collect(self) -> np.ndarray:
        start = perf_counter()
        if self.pid is None:
            try:
                return self.compute()
            finally:
                self.info["child_s"] = self.info["wait_s"] = perf_counter() - start
        with os.fdopen(self.fd, "rb") as fh:
            self.fd = None
            blob = fh.read()
        code = self._reap()
        self.info["wait_s"] = perf_counter() - start
        if code != 0 or not blob:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"the micro reference process ended without a result "
                                    f"({how})")
        path, exc, self.info["child_s"] = pickle.loads(blob)
        if exc is not None:
            raise exc
        return path

    def _reap(self) -> int:
        self.info["exit"] = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        return self.info["exit"]

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
        if self.pid is not None:
            import signal  # only on this path, so start-up does not load it

            os.kill(self.pid, signal.SIGKILL)
            self._reap()


def _run_stages(cfg, out_dir, manifest, rollouts):
    stages = manifest["stages"]
    sys_, basis = build_system(cfg)
    stages.append("system")
    if basis is not None:
        _write_basis(out_dir, basis)

    states = sample_states(sys_, sampler_for(cfg, sys_))
    stages.append(f"sampled:{states.shape[0]}")
    if not rollouts:
        return _train_all(cfg, sys_, states, out_dir, stages)[0]

    with _Reference(cfg, sys_) as reference:
        manifest["reference"] = reference.info
        summary, trained = _train_all(cfg, sys_, states, out_dir, stages)
        ref_path = reference.collect()
    stages.append("reference")
    ics = ref_path[0]
    horizon = cfg["test"]["horizon"]

    rel_rows, energy_rows = [], []
    conv_plot, rel_plot = [], []
    for dt, tag, surr, trace in trained:
        conv = trace.convergence_rows()
        centers = np.array([row[0] for row in conv if row[0] > 0], dtype=float)
        conv_plot.append(MetricSeries(f"train dT={tag}", centers,
                                      [row[1] for row in conv if row[0] > 0]))
        if trace.val_residual:
            conv_plot.append(MetricSeries(f"val dT={tag}", centers,
                                          [row[2] for row in conv if row[0] > 0]))

        model = PredictorModel(surr, dt)
        steps = step_count(horizon, dt)
        preds = [rollout(model, x0, steps) for x0 in ics]
        bases = np.stack([propagate(sys_, x0, dt, steps).states for x0 in ics])
        stride = step_count(dt, cfg["micro_dt"]) // reference.stride
        ref = ref_path[: steps * stride + 1 : stride].swapaxes(0, 1)
        errors = compute_metrics(np.stack([p.states for p in preds]), bases, ref, sys_)
        t = preds[0].times
        labels = {"rel_pred": f"kernel dT={tag}", "rel_baseline": f"midpoint dT={tag}"}
        means = [mean_series(v, t, labels.get(k, k)) for k, v in errors.items()]
        # compute_metrics orders the two relative errors before the three energy ones
        rel_plot += means[:2]
        rel_rows += [(dt,) + row for row in zip(t, *(s.y for s in means[:2]))]
        energy_rows += [(dt,) + row for row in zip(t, *(s.y for s in means[2:]))]
        summary["per_dt"][tag].update({
            "rel_pred_final": float(means[0].y[-1]),
            "rel_baseline_final": float(means[1].y[-1]),
            "solver_iterations": sum(int(np.sum(p.solver_iterations)) for p in preds),
        })
        stages.append(f"rollout:{tag}")

    write_csv(os.path.join(out_dir, "rel_error.csv"),
              ["delta_t", "t", "predictor", "baseline"], rel_rows)
    write_csv(os.path.join(out_dir, "energy_error.csv"),
              ["delta_t", "t", "predictor", "baseline", "reference"], energy_rows)
    emit_line_plot(os.path.join(out_dir, "convergence.svg"), conv_plot,
                   xscale="log", yscale="log", xlabel="centers m",
                   ylabel="max residual", title=f"{cfg['experiment']}: greedy convergence")
    emit_line_plot(os.path.join(out_dir, "rel_error.svg"), rel_plot,
                   xscale="linear", yscale="log", xlabel="t",
                   ylabel="relative error", title=f"{cfg['experiment']}: rollout error")
    stages.append("artifacts")
    return summary


def _train_all(cfg, sys_, states, out_dir, stages):
    """train_one for every macro step, then the selection table; returns
    (summary, [(dt, tag, surrogate, trace)])."""
    sel_rows, trained = [], []
    summary = {"out_dir": out_dir, "per_dt": {}}
    for dt in cfg["delta_t_list"]:
        tag = _dt_tag(dt)
        kspec, surr, trace = train_one(cfg, sys_, states, dt, out_dir, sel_rows)
        stages.append(f"trained:{tag}:{kspec.family}:{kspec.epsilon}:{surr.size}")
        trained.append((dt, tag, surr, trace))
        summary["per_dt"][tag] = {
            "kernel": kspec.to_dict(),
            "centers": surr.size,
            "train_residual": trace.final_train_residual,
            "val_residual": trace.final_val_residual,
        }
    write_csv(os.path.join(out_dir, "selection_table.csv"),
              ["delta_t", "family", "epsilon", "train_error", "val_error", "note"],
              sel_rows)
    return summary, trained


def _write_basis(out_dir, basis):
    doc = {"v": [[float(v) for v in row] for row in basis.v],
           "full_n": basis.full_n, "reduced_n": basis.reduced_n}
    write_json(os.path.join(out_dir, "basis.json"), doc)


def _write_dataset(out_dir, tag, data):
    n2 = data.dim
    header = [f"xi_{k + 1}" for k in range(n2)] + [f"y_{k + 1}" for k in range(n2)]
    rows = [tuple(data.inputs[i]) + tuple(data.targets[i]) for i in range(data.count)]
    write_csv(os.path.join(out_dir, f"dataset_dt{tag}.csv"), header, rows)
    write_json(os.path.join(out_dir, f"dataset_dt{tag}_meta.json"), data.meta)
