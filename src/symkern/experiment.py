"""End-to-end benchmark pipelines and artifact emission.

A run samples initial states, builds one-step training data per macro
step size, selects the kernel on a validation split, trains to the center
budget, rolls out seeded test trajectories against the macro midpoint
baseline and the micro reference, and writes CSV/SVG/model artifacts.
The macro steps are trained and rolled out one at a time, smallest first.
Where os.fork exists one worker process fits selection candidates beside
this one: it fits while this process computes the micro reference, and
it fits the next step's candidates while this process rolls out the
current one.
"""

from __future__ import annotations

import math
import os
import pickle
import struct
import tempfile
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


def _candidates(cfg):
    """The (family, epsilon) grid in canonical order: family order, then
    epsilons ascending, so ties resolve to the earlier family and the
    smaller shape parameter."""
    sel = cfg["selection"]
    return [KernelSpec(fam, float(eps)) for fam in FAMILIES if fam in sel["families"]
            for eps in sorted(sel["epsilons"])]


def _scored_fit(spec, greedy_cfg, train, val):
    """(fit, (train_e, val_e)) of one candidate, or (None, exception type
    name) for a package error, which is the candidate's table row."""
    try:
        fit = train_f_greedy(spec, train, greedy_cfg)
        return fit, (max_residual_error(fit[0], train), max_residual_error(fit[0], val))
    except SymkernError as exc:
        return None, type(exc).__name__


def select_model(specs, greedy_cfg, train, val, worker, step):
    """Grid search over the kernels specs, in canonical order, by
    validation residual, every candidate trained under greedy_cfg.

    The winner is the serial loop's: a candidate replaces the best only at
    a strictly smaller validation residual, so a tie goes to the earlier
    one and a NaN first success is never replaced.  This process fits and
    scores the positions worker.claim(step) gives it, and takes the
    positions the worker process took in between in canonical order, each
    fit passed through train_f_greedy's picks, so every candidate costs
    one train_f_greedy call here.  While it takes them it holds the best
    fit, its own latest fit and the fit being read.  Returns (kernel,
    (surrogate, trace) of its fit, table rows).
    """
    rows = []
    best = best_fit = None
    k = 0
    while k < len(specs):
        j = worker.claim(step)
        own = _scored_fit(specs[j], greedy_cfg, train, val) if j < len(specs) else None
        for p in range(k, min(j + 1, len(specs))):
            fit, outcome = own if p == j else worker.take(specs[p], greedy_cfg, train)
            if isinstance(outcome, str):
                rows.append((specs[p].family, specs[p].epsilon, "", "", f"failed:{outcome}"))
            else:
                rows.append((specs[p].family, specs[p].epsilon, *outcome, ""))
                if best is None or outcome[1] < best[1]:
                    best, best_fit = (p, outcome[1]), fit
            del fit     # a losing fit's Newton factor is not held through the next load
        own = None      # nor through this process's next fit
        k = j + 1
    if best is None:
        raise AllCandidatesFailed("every (family, epsilon) candidate failed to train")
    return specs[best[0]], best_fit, rows


def center_budget(cfg) -> int:
    budget = cfg["greedy"]["max_centers"]
    if cfg["scenario"] == "B" and cfg["experiment"] == "pendulum":
        budget = max(1, budget // 2)        # smaller domain, comparable fill distance
    return budget


def _greedy_config(cfg) -> GreedyConfig:
    """The one GreedyConfig of a run's selection and budget fits."""
    return GreedyConfig(max_centers=center_budget(cfg),
                        residual_tolerance=cfg["greedy"]["residual_tolerance"])


def _dt_tag(dt: float) -> str:
    return fmt(float(dt))


def train_one(cfg, dt, train, val, out_dir, worker, step):
    """Model selection and budget training for one macro step on its
    training and validation split; worker and step are select_model's.

    Writes the greedy trace, convergence curve, and model file.  Returns
    (kernel, surrogate, trace, selection table rows).
    """
    tag = _dt_tag(dt)
    greedy_cfg = _greedy_config(cfg)
    kspec, winner, rows = select_model(_candidates(cfg), greedy_cfg, train, val, worker, step)
    rows = [(dt, fam, eps, tr, va,
             "selected" if (fam, eps) == (kspec.family, kspec.epsilon) else note)
            for fam, eps, tr, va, note in rows]

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
    return kspec, surr, trace, rows


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
    `symkern train` subcommand).  On failure, an interrupt included, the
    MANIFEST records the completed stages before the exception propagates.
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
    except BaseException as exc:
        checkpoint("failed", f"{type(exc).__name__}: {exc}" if str(exc)
                   else type(exc).__name__)
        raise


def _private_mb():
    """This process's private memory, Private_Clean plus Private_Dirty,
    in MiB, or None without /proc/self/smaps_rollup."""
    try:
        with open("/proc/self/smaps_rollup", encoding="ascii") as fh:
            kib = sum(int(line.split()[1]) for line in fh
                      if line.startswith(("Private_Clean:", "Private_Dirty:")))
    except OSError:
        return None
    return kib / 1024


class _Worker:
    """The run's worker process, and the candidate positions it shares
    with this process.

    steps holds (tag, train, val) per macro step in schedule order.  Step
    by step, the worker takes candidate positions and appends what
    _scored_fit gives for each, or the exception it raised, to the spool:
    an unnamed file of plain pickles, each item announced by an (offset,
    length) notice on a pipe.  Its last item holds its fit counts, wall
    time and private memory.  A step's positions come from a counter at
    the spool's start, advanced under os.lockf, so each process takes the
    next position in canonical order; this process holds position 0 of
    the first step from the fork on.  The worker leaves only through
    os._exit: it never unwinds into the parent's stack or flushes the
    stdio it inherited, and an interrupt ends it without a result.

    Without os.fork, or with fewer than two candidates over all steps,
    nothing forks and this process takes every position.  A worker that
    ends before sending what this process reads raises ChildProcessError
    naming its exit status or signal.  Leaving the with-block kills and
    reaps a worker still alive and closes the pipe and the spool.
    manifest receives ``worker``, null inline.
    """

    NOTICE = struct.Struct("<qq")       # offset, length
    COUNTER = struct.Struct("<q")

    def __init__(self, cfg, steps, manifest):
        self.cfg, self.steps = cfg, steps
        self.taken = [0] * len(steps)
        self.pid = self.notices = self.spool = self.held = self.info = None
        if hasattr(os, "fork") and len(steps) * len(_candidates(cfg)) > 1:
            self.info = {"fits": None, "child_s": None, "wait_s": 0.0, "exit": None,
                         "private_mb": None}
        manifest["worker"] = self.info

    def __enter__(self):
        if self.info is None:
            return self
        self.spool = tempfile.TemporaryFile(buffering=0)
        fds = ()
        try:
            fds = os.pipe()
            # the counters start at 0, but position 0 of the first step is this process's
            os.pwrite(self.spool.fileno(), self.COUNTER.pack(1).ljust(
                self.COUNTER.size * len(self.steps), b"\0"), 0)
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            self.spool.close()
            raise
        if pid == 0:
            os.close(fds[0])
            self._serve(fds[1])
        os.close(fds[1])
        self.pid, self.notices, self.held = pid, fds[0], 0
        return self

    def _serve(self, write_fd):
        status = 1
        try:
            start = perf_counter()
            self.end = self.COUNTER.size * len(self.steps)
            specs, greedy_cfg = _candidates(self.cfg), _greedy_config(self.cfg)
            fits = []
            for step, (_, train, val) in enumerate(self.steps):
                fits.append(0)
                while (k := self.claim(step)) < len(specs):
                    try:
                        item = _scored_fit(specs[k], greedy_cfg, train, val)
                    except Exception as exc:  # raised again in the parent
                        item = (None, exc)
                    self._send(write_fd, item)
                    fits[-1] += 1
            self._send(write_fd, (fits, perf_counter() - start, _private_mb()))
            status = 0
        finally:
            os._exit(status)

    def _send(self, write_fd, obj):
        item = pickle.dumps(obj)
        done = 0
        while done < len(item):
            done += os.pwrite(self.spool.fileno(), memoryview(item)[done:], self.end + done)
        # one notice is one atomic pipe write, which blocks while the pipe is full
        os.write(write_fd, self.NOTICE.pack(self.end, len(item)))
        self.end += len(item)

    def claim(self, step) -> int:
        """The next candidate position of step, for the calling process."""
        if self.spool is None:
            self.taken[step] += 1
            return self.taken[step] - 1
        if self.held is not None:
            k, self.held = self.held, None
            return k
        fd, size = self.spool.fileno(), self.COUNTER.size
        # the spool's offset stays 0 (pread/pwrite only): this locks the counters
        os.lockf(fd, os.F_LOCK, size * len(self.steps))
        try:
            (k,) = self.COUNTER.unpack(os.pread(fd, size, size * step))
            os.pwrite(fd, self.COUNTER.pack(k + 1), size * step)
        finally:
            os.lockf(fd, os.F_ULOCK, size * len(self.steps))
        return k

    def take(self, spec, greedy_cfg, train):
        """The worker's next candidate, spec, as _scored_fit gives it, its
        fit passed through train_f_greedy's picks; an exception that is not
        a package error is raised here."""
        fit, outcome = self._next()
        if isinstance(outcome, Exception):
            raise outcome
        if fit is not None:
            fit = train_f_greedy(spec, train, greedy_cfg, picks=fit)
        return fit, outcome

    def _next(self):
        """The worker's next item, unpickled."""
        start = perf_counter()
        # a notice is written whole, so a read returns all of it or none
        data = os.read(self.notices, self.NOTICE.size)
        if not data:
            self._reap()
            code = self.info["exit"]
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"the worker process ended without a result ({how})")
        self.info["wait_s"] += perf_counter() - start
        offset, length = self.NOTICE.unpack(data)
        return pickle.loads(os.pread(self.spool.fileno(), length, offset))

    def finish(self):
        """Read the worker's last item and reap it, once every step is
        trained."""
        if self.pid is None:
            return
        counts, self.info["child_s"], self.info["private_mb"] = self._next()
        self.info["fits"] = {tag: n for (tag, _, _), n in zip(self.steps, counts)}
        self._reap()

    def _reap(self):
        self.info["exit"] = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None

    def __exit__(self, *exc):
        if self.pid is not None:
            import signal  # only on this path, so start-up does not load it

            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        if self.notices is not None:
            os.close(self.notices)
        if self.spool is not None:
            self.spool.close()


def _reference(cfg, sys_, stride) -> np.ndarray:
    """The micro reference on the test states, every stride-th state (the
    states compute_metrics reads); row 0 holds the test states."""
    micro = cfg["micro_dt"]
    return midpoint_many(sys_, test_states(cfg, sys_), micro,
                         step_count(cfg["test"]["horizon"], micro), every=stride)


def _splits(cfg, sys_, states, out_dir):
    """(dT, tag, train, val) per macro step, in config order; an integer
    dT is used, and written, as a float."""
    splits = []
    for dt in map(float, cfg["delta_t_list"]):
        tag = _dt_tag(dt)
        data = build_hb_dataset(sys_, states, dt, cfg["micro_dt"],
                                meta={"scenario": cfg["scenario"], "seed": cfg["seed"]})
        if cfg["emit_datasets"]:
            _write_dataset(out_dir, tag, data)
        splits.append((dt, tag, *split_train_validation(data, cfg["validation_fraction"],
                                                        cfg["seed"] + 1)))
    return splits


def _mor_record(cfg, sys_, basis):
    """The MANIFEST's ``mor`` entry of a reduced system."""
    x = basis.lift(test_states(cfg, sys_))
    return {"full_dim": basis.v.shape[0], "reduced_dim": basis.v.shape[1],
            "symplecticity_defect": basis.symplecticity_defect(),
            "projection_defect": float(np.max(np.abs(x - basis.lift(basis.restrict(x)))))}


def _run_stages(cfg, out_dir, manifest, rollouts):
    stages = manifest["stages"]
    sys_, basis = build_system(cfg)
    stages.append("system")
    if basis is not None:
        _write_basis(out_dir, basis)
        manifest["mor"] = _mor_record(cfg, sys_, basis)

    states = sample_states(sys_, sampler_for(cfg, sys_))
    stages.append(f"sampled:{states.shape[0]}")
    splits = _splits(cfg, sys_, states, out_dir)
    # smallest dT first: it has the most rollout steps, and the worker
    # fits the next step's candidates while this process rolls them out
    schedule = sorted(splits, key=lambda split: split[0])
    stride = math.gcd(*(step_count(dt, cfg["micro_dt"]) for dt, *_ in splits))
    summary = {"out_dir": out_dir, "per_dt": {tag: {} for _, tag, *_ in splits}}
    sel_rows, outputs = {}, {}
    with _Worker(cfg, [split[1:] for split in schedule], manifest) as worker:
        # the worker fits the first step's candidates meanwhile
        if rollouts:
            start = perf_counter()
            ref_path = _reference(cfg, sys_, stride)
            manifest["reference"] = {"wall_s": perf_counter() - start}
            stages.append("reference")
        for step, (dt, tag, train, val) in enumerate(schedule):
            kspec, surr, trace, sel_rows[tag] = train_one(cfg, dt, train, val, out_dir,
                                                          worker, step)
            stages.append(f"trained:{tag}:{kspec.family}:{kspec.epsilon}:{surr.size}")
            summary["per_dt"][tag].update({
                "kernel": kspec.to_dict(),
                "centers": surr.size,
                "train_residual": trace.final_train_residual,
                "val_residual": trace.final_val_residual,
            })
            if step == len(schedule) - 1:
                worker.finish()
                write_csv(os.path.join(out_dir, "selection_table.csv"),
                          ["delta_t", "family", "epsilon", "train_error", "val_error", "note"],
                          [row for _, tag_, *_ in splits for row in sel_rows[tag_]])
            if rollouts:
                outputs[tag] = _roll_out(cfg, sys_, dt, surr, trace,
                                         ref_path, stride, summary["per_dt"][tag])
                stages.append(f"rollout:{tag}")
    if not rollouts:
        return summary

    rel_rows, energy_rows, conv_plot, rel_plot = [], [], [], []
    for _, tag, *_ in splits:
        for acc, part in zip((rel_rows, energy_rows, conv_plot, rel_plot), outputs[tag]):
            acc += part
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


def _roll_out(cfg, sys_, dt, surr, trace, ref_path, ref_stride, per_dt):
    """Predictor and baseline rollouts of one macro step from the test
    states against the reference path; adds the final errors and solver
    iterations to per_dt.  Returns (rel_error rows, energy_error rows,
    convergence series, relative error series)."""
    tag = _dt_tag(dt)
    conv = trace.convergence_rows()
    centers = np.array([row[0] for row in conv if row[0] > 0], dtype=float)
    conv_plot = [MetricSeries(f"train dT={tag}", centers,
                              [row[1] for row in conv if row[0] > 0])]
    if trace.val_residual:
        conv_plot.append(MetricSeries(f"val dT={tag}", centers,
                                      [row[2] for row in conv if row[0] > 0]))

    ics = ref_path[0]
    model = PredictorModel(surr, dt)
    steps = step_count(cfg["test"]["horizon"], dt)
    preds = [rollout(model, x0, steps) for x0 in ics]
    bases = np.stack([propagate(sys_, x0, dt, steps).states for x0 in ics])
    stride = step_count(dt, cfg["micro_dt"]) // ref_stride
    ref = ref_path[: steps * stride + 1 : stride].swapaxes(0, 1)
    errors = compute_metrics(np.stack([p.states for p in preds]), bases, ref, sys_)
    t = preds[0].times
    labels = {"rel_pred": f"kernel dT={tag}", "rel_baseline": f"midpoint dT={tag}"}
    means = [mean_series(v, t, labels.get(k, k)) for k, v in errors.items()]
    per_dt.update({
        "rel_pred_final": float(means[0].y[-1]),
        "rel_baseline_final": float(means[1].y[-1]),
        "solver_iterations": sum(int(np.sum(p.solver_iterations)) for p in preds),
    })
    # compute_metrics orders the two relative errors before the three energy ones
    return ([(dt,) + row for row in zip(t, *(s.y for s in means[:2]))],
            [(dt,) + row for row in zip(t, *(s.y for s in means[2:]))],
            conv_plot, means[:2])


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
