"""Experiment configuration: defaults, file loading, strict validation.

Configs are plain nested dicts; files are JSON.  Unknown keys anywhere are
hard errors, silent typos in an epsilon grid being the classic failure.
"""

from __future__ import annotations

import copy
import json
import math
import sys

from .errors import ConfigError
from .kernels import FAMILIES, KernelSpec

EXPERIMENTS = ("pendulum", "chain", "wave")
SCALES = ("desk", "paper")

# model selection trains every (family, epsilon) candidate to m_star and
# compares validation residuals there; the default ties m_star to the center
# budget because early-decay winners often cross over before the budget
_COMMON = {
    "seed": 2025,
    "scenario": "A",
    "micro_dt": 1e-3,
    "validation_fraction": 0.8,
    "selection": {"families": list(FAMILIES), "epsilons": [0.5, 1.0, 2.0, 4.0, 8.0],
                  "m_star": None},
    "greedy": {"max_centers": 300, "residual_tolerance": 0.0},
    "test": {"count": 10, "horizon": 6.0},
    "emit_datasets": False,
}


def _base(experiment, system, sampling, **over):
    cfg = copy.deepcopy(_COMMON)
    cfg["experiment"] = experiment
    cfg["system"] = system
    cfg["sampling"] = sampling
    for key, val in over.items():
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def default_config(experiment: str, scale: str = "desk") -> dict:
    """Built-in configuration for one benchmark at desk or paper scale.

    Desk scale shrinks sample sizes so a run finishes in minutes; all
    physical parameters are identical across scales.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}")
    desk = scale == "desk"
    if experiment == "pendulum":
        cfg = _base(
            "pendulum",
            {"mass": 1.0, "length": 1.0, "gravity": 9.81},
            {"grid_counts": [50, 50] if desk else [200, 200]},
            delta_t_list=[0.1, 0.05, 0.025],
            greedy={"max_centers": 300 if desk else 400},
            test={"horizon": 6.0},
        )
    elif experiment == "chain":
        cfg = _base(
            "chain",
            {"n": 3, "alpha": 1.0, "beta": 0.25, "q_max": 0.5, "p_max": 0.5,
             "energy_cap": 0.5},
            {"target_count": 2000 if desk else 10000},
            delta_t_list=[0.1] if desk else [0.1, 0.05, 0.025],
            greedy={"max_centers": 400 if desk else 1000},
            selection={"epsilons": [0.2, 0.5, 1.0, 2.0, 4.0]},
            test={"horizon": 10.0},
        )
    else:
        cfg = _base(
            "wave",
            {"n_grid": 200 if desk else 1000, "wave_speed": 0.3, "length": 1.0,
             "snapshot_modes": 2, "reduced_modes": 2, "z_max": 1.0, "energy_cap": 5.0},
            {"target_count": 2000 if desk else 20000},
            delta_t_list=[0.1] if desk else [0.1, 0.05, 0.025],
            greedy={"max_centers": 300 if desk else 400},
            selection={"epsilons": [0.2, 0.5, 1.0, 2.0, 4.0]},
            test={"horizon": 6.0},
        )
    cfg["scale"] = scale
    return cfg


def _merge(base: dict, override: dict, path: str = ""):
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where}: expected a table, got {type(val).__name__}")
            _merge(base[key], val, where)
        else:
            base[key] = val


def _kind(val) -> str:
    if val is None:
        return "null"
    for typ, name in ((bool, "a boolean"), (int, "an integer"), (float, "a number"),
                      (str, "a string"), (list, "a list")):
        if isinstance(val, typ):
            return name
    return "a table"


# Kinds a leaf accepts, by the kind of its default: a number leaf also takes
# an integer, and the one null default, selection.m_star, takes an integer.
_ACCEPTS = {"a number": ("a number", "an integer"), "null": ("an integer", "null")}


def _leaves(cfg: dict, schema: dict, path: str = ""):
    """(name, value, default) for every leaf of cfg, list items included."""
    for key, ref in schema.items():
        where = f"{path}.{key}" if path else key
        val = cfg[key]
        if isinstance(ref, dict):
            yield from _leaves(val, ref, where)
        elif isinstance(ref, list) and isinstance(val, list):
            yield from ((f"{where}[{i}]", v, ref[0]) for i, v in enumerate(val))
        else:
            yield where, val, ref


def _check_types(leaves):
    """Every leaf has the kind of its default, and no number is NaN or
    infinite (JSON files may spell them NaN and Infinity)."""
    for name, v, r in leaves:
        accepts = _ACCEPTS.get(_kind(r), (_kind(r),))
        if _kind(v) not in accepts:
            raise ConfigError(f"{name}: expected {' or '.join(accepts)}, got {_kind(v)}")
        if _kind(v) == "a number" and not math.isfinite(v):
            raise ConfigError(f"{name}: expected a finite number, got {v}")


def _is_multiple(total, step) -> bool:
    """Whether total is n * step for an integer n >= 1, to 1e-9 relative."""
    ratio = total / step
    n = round(ratio) if math.isfinite(ratio) else 0
    return n >= 1 and abs(n * step - total) <= 1e-9 * max(1.0, total)


def _check_system_and_sampling(cfg: dict):
    """The system parameters and sample sizes the samplers divide by or
    reduce over."""
    system, sampling = cfg["system"], cfg["sampling"]
    if cfg["experiment"] == "pendulum":
        for key in ("mass", "length", "gravity"):
            if not (system[key] > 0 and math.isfinite(system[key])):
                raise ConfigError(f"system.{key} must be positive and finite, got {system[key]}")
        counts = sampling["grid_counts"]
        if len(counts) != 2 or min(counts) < 1:
            raise ConfigError("sampling.grid_counts must hold one positive count for each of "
                              f"the 2 state coordinates, got {counts}")
        return
    if cfg["experiment"] == "chain" and system["n"] < 1:
        raise ConfigError(f"system.n must be >= 1, got {system['n']}")
    if sampling["target_count"] < 1:
        raise ConfigError(f"sampling.target_count must be >= 1, got {sampling['target_count']}")


def validate(cfg: dict) -> dict:
    """Type and cross-field checks; returns cfg on success."""
    if cfg["experiment"] not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg['experiment']!r}")
    leaves = list(_leaves(cfg, default_config(cfg["experiment"], cfg["scale"])))
    _check_types(leaves)
    for key in ("families", "epsilons"):
        if not cfg["selection"][key]:
            raise ConfigError(f"selection.{key} must be nonempty")
    for fam in cfg["selection"]["families"]:
        for eps in cfg["selection"]["epsilons"]:
            try:
                KernelSpec(fam, float(eps))
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"selection: {exc}") from None
    # an integer leaf of a number default is used as a float; the selection
    # grid above reports its own epsilons
    for name, v, r in leaves:
        if _kind(r) == "a number" and abs(v) > sys.float_info.max:
            raise ConfigError(f"{name}: integer too large for a float")
    if cfg["scenario"] not in ("A", "B"):
        raise ConfigError(f"scenario must be 'A' or 'B', got {cfg['scenario']!r}")
    micro = cfg["micro_dt"]
    if not micro > 0:
        raise ConfigError("micro_dt must be positive")
    if not cfg["delta_t_list"]:
        raise ConfigError("delta_t_list must be nonempty")
    horizon = cfg["test"]["horizon"]
    for dt in cfg["delta_t_list"]:
        if not _is_multiple(dt, micro):
            raise ConfigError(f"delta_t={dt} is not an integer multiple of micro_dt={micro}")
        if not _is_multiple(horizon, dt):
            raise ConfigError(f"horizon {horizon} is not a multiple of delta_t={dt}")
    _check_system_and_sampling(cfg)
    if cfg["test"]["count"] < 1:
        raise ConfigError("test.count must be >= 1")
    if not 0.0 < cfg["validation_fraction"] < 1.0:
        raise ConfigError("validation_fraction must lie in (0, 1)")
    if cfg["greedy"]["max_centers"] < 1:
        raise ConfigError("greedy.max_centers must be >= 1")
    m_star = cfg["selection"]["m_star"]
    if m_star is not None and m_star < 1:
        raise ConfigError("selection.m_star must be >= 1 (or null for the budget)")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return cfg


def load_config(path=None, experiment=None, scale=None, seed=None) -> dict:
    """Assemble a validated config from defaults, optional file, CLI knobs."""
    file_cfg = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:
            # a decode error, or an integer past the interpreter's digit limit
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    exp = experiment or file_cfg.get("experiment")
    if exp is None:
        raise ConfigError("no experiment selected (flag or config key 'experiment')")
    sc = scale or file_cfg.get("scale", "desk")
    cfg = default_config(exp, sc)
    _merge(cfg, file_cfg)
    cfg["experiment"], cfg["scale"] = exp, sc
    if seed is not None:
        cfg["seed"] = seed
    return validate(cfg)
