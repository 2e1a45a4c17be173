"""End-to-end benchmark pipelines and artifact emission.

A run samples initial states, builds one-step training data per macro
step size, selects the kernel on a validation split, trains to the center
budget, rolls out seeded test trajectories against the macro midpoint
baseline and the micro reference, and writes CSV/SVG/model artifacts.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from .config import validate
from .data import SamplerSpec, build_hb_dataset, sample_states, split_train_validation
from .errors import AllCandidatesFailed, SymkernError
from .greedy import GreedyConfig, max_residual_error, train_f_greedy
from .integrators import Trajectory, midpoint_many, propagate, step_count
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


def select_model(families, epsilons, m_star, train, val):
    """Grid search over (family, epsilon) by validation residual at m_star.

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
                fit = train_f_greedy(spec, train, GreedyConfig(max_centers=m_star))
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
    m_star = sel["m_star"] if sel["m_star"] is not None else center_budget(cfg)
    kspec, winner, rows = select_model(sel["families"], sel["epsilons"], m_star, train, val)
    for fam, eps, tr, va, note in rows:
        chosen = "selected" if (fam, eps) == (kspec.family, kspec.epsilon) else note
        sel_rows.append((dt, fam, eps, tr, va, chosen))

    # the budget fit reuses the winner's picks when they are the ones it
    # would make (m_star at the budget, no residual under the tolerance)
    # and then only replays the validation pool
    surr, trace = train_f_greedy(
        kspec, train,
        GreedyConfig(max_centers=center_budget(cfg),
                     residual_tolerance=cfg["greedy"]["residual_tolerance"]),
        validation=val, picks=winner,
    )
    # the trace is held until the rollouts; its Newton factor only served
    # the replay
    trace.newton_factor = None
    write_csv(os.path.join(out_dir, f"greedy_trace_dt{tag}.csv"),
              ["iter", "selected_index", "coord", "max_residual", "power_value",
               "rkhs_error"], trace.rows())
    write_csv(os.path.join(out_dir, f"convergence_dt{tag}.csv"),
              ["centers", "train_residual", "val_residual"], trace.convergence_rows())
    model_doc = surrogate_to_dict(surr, dt)
    model_doc["system"] = {"experiment": cfg["experiment"], **cfg["system"]}
    write_json(os.path.join(out_dir, f"model_dt{tag}.json"), model_doc)
    return kspec, surr, trace


def run_experiment(cfg, out_dir, rollouts: bool = True):
    """Execute one benchmark end to end; artifacts land in out_dir.

    Without rollouts the run stops once every macro step is trained (the
    `symkern train` subcommand).  On failure the MANIFEST records the
    completed stages before the exception propagates.
    """
    validate(cfg)
    ensure_dir(out_dir)
    stages = []
    manifest = {"config": cfg, "status": "running", "stages": stages}

    def checkpoint(status=None, error=None):
        if status:
            manifest["status"] = status
        if error:
            manifest["error"] = error
        write_json(os.path.join(out_dir, "MANIFEST.json"), manifest)

    try:
        summary = _run_stages(cfg, out_dir, stages, rollouts)
        checkpoint("complete")
        return summary
    except Exception as exc:
        checkpoint("failed", f"{type(exc).__name__}: {exc}")
        raise


def _run_stages(cfg, out_dir, stages, rollouts):
    sys_, basis = build_system(cfg)
    stages.append("system")
    if basis is not None:
        _write_basis(out_dir, basis)

    states = sample_states(sys_, sampler_for(cfg, sys_))
    stages.append(f"sampled:{states.shape[0]}")

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
    if not rollouts:
        return summary

    ics = test_states(cfg, sys_)
    micro = cfg["micro_dt"]
    horizon = cfg["test"]["horizon"]
    ref_steps = step_count(horizon, micro)
    ref_path = midpoint_many(sys_, ics, micro, ref_steps, keep_path=True)
    stages.append("reference")

    rel_tagged, energy_tagged = [], []
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
        per_ic = {k: [] for k in ("rel_pred", "rel_baseline", "energy_pred",
                                  "energy_baseline", "energy_reference")}
        iters_total = 0
        for i in range(ics.shape[0]):
            ref_traj = Trajectory(ref_path[:, i, :], micro)
            pred = rollout(model, ics[i], steps)
            iters_total += int(np.sum(pred.solver_iterations))
            base = propagate(sys_, ics[i], dt, steps)
            mets = compute_metrics(pred, base, ref_traj, sys_)
            for k in per_ic:
                per_ic[k].append(mets[k])
        means = {k: mean_series(v, k) for k, v in per_ic.items()}
        rel_tagged.append((dt, {"predictor": means["rel_pred"],
                                "baseline": means["rel_baseline"]}))
        energy_tagged.append((dt, {"predictor": means["energy_pred"],
                                   "baseline": means["energy_baseline"],
                                   "reference": means["energy_reference"]}))
        rel_plot.append(MetricSeries(f"kernel dT={tag}", means["rel_pred"].x,
                                     means["rel_pred"].y))
        rel_plot.append(MetricSeries(f"midpoint dT={tag}", means["rel_baseline"].x,
                                     means["rel_baseline"].y))
        summary["per_dt"][tag].update({
            "rel_pred_final": float(means["rel_pred"].y[-1]),
            "rel_baseline_final": float(means["rel_baseline"].y[-1]),
            "solver_iterations": iters_total,
        })
        stages.append(f"rollout:{tag}")

    write_csv(os.path.join(out_dir, "rel_error.csv"),
              ["delta_t", "t", "predictor", "baseline"], _series_rows(rel_tagged))
    write_csv(os.path.join(out_dir, "energy_error.csv"),
              ["delta_t", "t", "predictor", "baseline", "reference"],
              _series_rows(energy_tagged))
    emit_line_plot(os.path.join(out_dir, "convergence.svg"), conv_plot,
                   xscale="log", yscale="log", xlabel="centers m",
                   ylabel="max residual", title=f"{cfg['experiment']}: greedy convergence")
    emit_line_plot(os.path.join(out_dir, "rel_error.svg"), rel_plot,
                   xscale="linear", yscale="log", xlabel="t",
                   ylabel="relative error", title=f"{cfg['experiment']}: rollout error")
    stages.append("artifacts")
    return summary


def _series_rows(tagged):
    rows = []
    for dt, series_map in tagged:
        x = series_map[next(iter(series_map))].x
        for k in range(x.size):
            rows.append((dt, x[k]) + tuple(s.y[k] for s in series_map.values()))
    return rows


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
