"""Command-line harness.

Subcommands: experiment {pendulum|chain|wave}, train, predict,
diagnose-separability, check-bounds.  Exit codes: 0 success, 1 runtime
failure, 2 configuration error, bad command-line input or a malformed
model file, 130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys

import numpy as np

from .config import EXPERIMENTS, MAX_MICRO_STEPS, SCALES, load_config
from .data import build_hb_dataset, sample_states, separability_diagnostic
from .errors import ConfigError, InvalidModel, SymkernError, UsageError
from .experiment import build_system, run_experiment, sampler_for
from .ioutil import ensure_dir, fmt, read_json, write_csv
from .predictor import PredictorModel, contraction_margin, rollout
from .surrogate import surrogate_from_dict
from .systems import resonance_check, step_size_bound


def _common_flags(p):
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default="out", help="artifact directory")
    p.add_argument("--seed", type=int, default=None, help="override the global seed")
    p.add_argument("--scale", choices=SCALES, default=None, help="desk or paper sizes")


def build_parser():
    parser = argparse.ArgumentParser(prog="symkern",
                                     description="symplectic kernel predictor harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run one benchmark end to end")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    _common_flags(p_exp)

    p_train = sub.add_parser("train", help="sample data and train models only")
    _common_flags(p_train)

    p_pred = sub.add_parser("predict", help="roll out a trained model")
    p_pred.add_argument("--model", required=True, help="model JSON file")
    p_pred.add_argument("--x0", required=True, help="comma-separated initial state")
    p_pred.add_argument("--steps", type=int, required=True, help="macro steps")
    p_pred.add_argument("--out", default="out", help="artifact directory")

    p_diag = sub.add_parser("diagnose-separability",
                            help="emit the separable-vs-mixed data tables")
    _common_flags(p_diag)

    p_chk = sub.add_parser("check-bounds",
                           help="step-size bound, resonance set, contraction margin")
    _common_flags(p_chk)
    p_chk.add_argument("--model", default=None, help="model JSON for the contraction margin")

    return parser


def _cmd_run(args):
    """experiment: the whole benchmark; train: sampling and training only."""
    rollouts = args.command == "experiment"
    cfg = load_config(args.config, experiment=args.name if rollouts else None,
                      scale=args.scale, seed=args.seed)
    summary = run_experiment(cfg, args.out, rollouts=rollouts)
    for tag, info in summary["per_dt"].items():
        result = (f"rel_final={info['rel_pred_final']:.3e} "
                  f"baseline={info['rel_baseline_final']:.3e}" if rollouts
                  else f"train_residual={info['train_residual']:.3e}")
        print(f"dT={tag}: kernel={info['kernel']['family']}(eps={info['kernel']['epsilon']}) "
              f"centers={info['centers']} {result}")
    print(f"artifacts: {summary['out_dir']}")
    return 0


def _read_model(path):
    """(surrogate, delta_t) of a predictor model file, whose state (q, p)
    has an even dimension; InvalidModel if the file is not one."""
    try:
        doc = read_json(path)
    except ValueError as exc:
        raise InvalidModel(f"{path} is not a JSON document: {exc}") from None
    surr, delta_t = surrogate_from_dict(doc)
    if surr.dim % 2:
        raise InvalidModel(f"a predictor model needs an even dim, got {surr.dim}")
    return surr, delta_t


def _cmd_predict(args):
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"--x0 must be comma-separated numbers, got {args.x0!r}") from None
    if not np.all(np.isfinite(x0)):
        raise UsageError(f"--x0 must be finite numbers, got {args.x0!r}")
    if args.steps < 0:
        raise UsageError(f"--steps must be nonnegative, got {args.steps}")
    if args.steps > MAX_MICRO_STEPS:
        raise UsageError(f"--steps must be at most {MAX_MICRO_STEPS}, got {args.steps}")
    surr, delta_t = _read_model(args.model)
    if x0.size != surr.dim:
        raise UsageError(f"--x0 has {x0.size} entries, the model state has {surr.dim}")
    model = PredictorModel(surr, delta_t)
    traj = rollout(model, x0, args.steps)
    ensure_dir(args.out)
    n = surr.dim // 2
    header = (["t"] + [f"q_{k + 1}" for k in range(n)] + [f"p_{k + 1}" for k in range(n)]
              + ["solver_iterations"])
    rows = [
        (traj.times[k],) + tuple(traj.states[k]) + (int(traj.solver_iterations[k]),)
        for k in range(traj.states.shape[0])
    ]
    path = os.path.join(args.out, "rollout.csv")
    write_csv(path, header, rows)
    print(f"wrote {path}")
    return 0


def _cmd_diagnose(args):
    cfg = load_config(args.config, experiment="pendulum" if args.config is None else None,
                      scale=args.scale, seed=args.seed)
    sys_, _ = build_system(cfg)
    if sys_.dim != 2:
        raise UsageError(f"diagnose-separability needs a one-degree-of-freedom system, "
                         f"{sys_.name} has dim {sys_.dim}")
    states = sample_states(sys_, sampler_for(cfg, sys_))
    data = build_hb_dataset(sys_, states, cfg["delta_t_list"][0], cfg["micro_dt"])
    table_a, table_b = separability_diagnostic(data)
    ensure_dir(args.out)
    path_a = os.path.join(args.out, "separability_a.csv")
    path_b = os.path.join(args.out, "separability_b.csv")
    write_csv(path_a, ["component", "input", "output"],
              list(zip(table_a["component"], table_a["input"], table_a["output"])))
    write_csv(path_b, ["xi_q", "xi_p", "y_q", "y_p"],
              list(zip(table_b["xi_q"], table_b["xi_p"], table_b["y_q"], table_b["y_p"])))
    print(f"wrote {path_a} and {path_b}")
    return 0


def _cmd_check_bounds(args):
    cfg = load_config(args.config, scale=args.scale, seed=args.seed)
    sys_, _ = build_system(cfg)
    if args.model:
        surr, delta_t = _read_model(args.model)
        if surr.dim != sys_.dim:
            raise UsageError(f"--model has state dim {surr.dim}, the config's system "
                             f"{sys_.name} has {sys_.dim}")
    states = sample_states(sys_, sampler_for(cfg, sys_))
    horizon = cfg["test"]["horizon"]
    bound = step_size_bound(sys_, states, horizon)
    print(f"system={sys_.name} certified macro step bound: {bound:.6e} (horizon {horizon})")
    for dt in map(float, cfg["delta_t_list"]):
        marker = "OK" if dt < bound else "beyond the certified bound"
        print(f"  dT={fmt(dt)}: {marker}")
        if sys_.quadratic:
            det_d, resonant = resonance_check(sys_, dt)
            print(f"  dT={fmt(dt)}: det D = {det_d:.6e} resonant={resonant}")
    if args.model:
        model = PredictorModel(surr, delta_t)
        sample = states[: min(50, states.shape[0])]
        margin = contraction_margin(model, sample)
        status = "contractive" if margin < 1.0 else "NOT certified contractive"
        print(f"model dT={delta_t}: contraction margin {margin:.6e} ({status})")
    return 0


_HANDLERS = {
    "experiment": _cmd_run,
    "train": _cmd_run,
    "predict": _cmd_predict,
    "diagnose-separability": _cmd_diagnose,
    "check-bounds": _cmd_check_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return 2
    except InvalidModel as exc:
        print(f"model error: {exc}", file=_sys.stderr)
        return 2
    except (SymkernError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=_sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
