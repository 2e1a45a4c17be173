"""Experiment configuration: defaults, file loading, strict validation.

Configs are plain nested dicts; files are JSON.  Unknown keys anywhere are
hard errors, silent typos in an epsilon grid being the classic failure.
"""

from __future__ import annotations

import copy
import json
import math
import sys

from .data import MAX_DRAWS
from .errors import ConfigError
from .integrators import step_count
from .kernels import FAMILIES, KernelSpec
from .mor import MAX_SNAPSHOTS
from .systems import MAX_DOF

EXPERIMENTS = ("pendulum", "chain", "wave")
SCALES = ("desk", "paper")
# Physical system values lie within this factor of 1 in magnitude, so that
# the powers the systems and samplers form (such as length**2, p**2 and the
# wave's 1/h**2) stay finite and nonzero.
SCALE_MAX = 1e30
# The micro reference steps the test states over the horizon, the longest
# micro-step run; every delta_t takes at most as many steps.
MAX_MICRO_STEPS = 10**6

_COMMON = {
    "seed": 2025,
    "scenario": "A",
    "micro_dt": 1e-3,
    "validation_fraction": 0.8,
    "selection": {"families": list(FAMILIES), "epsilons": [0.5, 1.0, 2.0, 4.0, 8.0]},
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
# an integer.
_ACCEPTS = {"a number": ("a number", "an integer")}


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
    """Every leaf has the kind of its default, and every number leaf holds
    a finite float (JSON files may spell NaN, Infinity and integers of any
    size; an integer in a number leaf is used as a float)."""
    for name, v, r in leaves:
        kind, ref = _kind(v), _kind(r)
        accepts = _ACCEPTS.get(ref, (ref,))
        if kind not in accepts:
            raise ConfigError(f"{name}: expected {' or '.join(accepts)}, got {kind}")
        if kind == "a number" and not math.isfinite(v):
            raise ConfigError(f"{name}: expected a finite number, got {v}")
        if ref == "a number" and abs(v) > sys.float_info.max:
            raise ConfigError(f"{name}: integer too large for a float")


def _ranges(cfg: dict) -> dict:
    """Inclusive (lo, hi) by leaf name for every bounded number or integer
    leaf.  Some bounds read the scenario or the wave's sizes, so the leaves
    must have their types first."""
    inf = math.inf
    pos, signed = (1 / SCALE_MAX, SCALE_MAX), (-SCALE_MAX, SCALE_MAX)
    table = {"seed": (0, inf), "test.count": (1, MAX_DRAWS), "greedy.max_centers": (1, inf),
             "greedy.residual_tolerance": (0, inf)}
    if cfg["experiment"] == "pendulum":
        table.update({"system.mass": pos, "system.length": pos, "system.gravity": pos})
        table.update((f"sampling.grid_counts[{i}]", (1, inf))
                     for i in range(len(cfg["sampling"]["grid_counts"])))
        return table
    # one state can never be split into training and validation
    table["sampling.target_count"] = (2, MAX_DRAWS)
    if cfg["experiment"] == "chain":
        # scenario B keeps p_2 <= 0, so it needs a second mass
        table.update({"system.n": (2 if cfg["scenario"] == "B" else 1, MAX_DOF),
                      "system.alpha": signed, "system.beta": signed, "system.q_max": pos,
                      "system.p_max": pos, "system.energy_cap": pos})
    else:
        s = cfg["system"]
        table.update({"system.n_grid": (1, MAX_DOF), "system.wave_speed": signed,
                      "system.length": pos, "system.z_max": pos, "system.energy_cap": pos,
                      "system.snapshot_modes": (1, math.isqrt(MAX_SNAPSHOTS)),
                      "system.reduced_modes": (1, min(s["snapshot_modes"]**2, s["n_grid"]))})
    return table


def _bound(x) -> str:
    return str(x) if isinstance(x, int) else f"{x:g}"


def validate(cfg: dict) -> dict:
    """Type, range and cross-field checks; returns cfg on success."""
    leaves = list(_leaves(cfg, default_config(cfg["experiment"], cfg["scale"])))
    _check_types(leaves)
    if cfg["scenario"] not in ("A", "B"):
        raise ConfigError(f"scenario must be 'A' or 'B', got {cfg['scenario']!r}")
    ranges = _ranges(cfg)
    # leaves come in config order, so a wave size is checked before the
    # reduced_modes bound derived from it
    for name, v, _ in leaves:
        if name not in ranges:
            continue
        lo, hi = ranges[name]
        if not lo <= v <= hi:
            rule = (f"be >= {_bound(lo)}" if hi == math.inf
                    else f"lie in [{_bound(lo)}, {_bound(hi)}]")
            raise ConfigError(f"{name} must {rule}, got {v}")
    sel = cfg["selection"]
    for name, values in (("selection.families", sel["families"]),
                         ("selection.epsilons", sel["epsilons"]),
                         ("delta_t_list", cfg["delta_t_list"])):
        if not values:
            raise ConfigError(f"{name} must be nonempty")
        # 1 == 1.0: a repeat would train, and write, the same thing twice
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} must not repeat a value, got {values}")
    for fam in sel["families"]:
        for eps in sel["epsilons"]:
            try:
                KernelSpec(fam, float(eps))
            except ValueError as exc:
                raise ConfigError(f"selection: {exc}") from None
    if cfg["experiment"] == "pendulum":
        counts = cfg["sampling"]["grid_counts"]
        if len(counts) != 2:
            raise ConfigError("sampling.grid_counts must hold one count for each of the 2 "
                              f"state coordinates, got {counts}")
        if not 2 <= math.prod(counts) <= MAX_DRAWS:
            raise ConfigError(f"sampling.grid_counts must hold between 2 and {MAX_DRAWS} "
                              "grid points")
    if not 0.0 < cfg["validation_fraction"] < 1.0:
        raise ConfigError("validation_fraction must lie in (0, 1)")
    micro = cfg["micro_dt"]
    if not micro > 0:
        raise ConfigError("micro_dt must be positive")
    horizon = cfg["test"]["horizon"]
    for dt in cfg["delta_t_list"]:
        if step_count(dt, micro) is None:
            raise ConfigError(f"delta_t={dt} is not an integer multiple of micro_dt={micro}")
        if step_count(horizon, dt) is None:
            raise ConfigError(f"horizon {horizon} is not a multiple of delta_t={dt}")
    micro_steps = step_count(horizon, micro)
    if micro_steps is None:
        raise ConfigError(f"horizon {horizon} is not a multiple of micro_dt={micro}")
    if micro_steps > MAX_MICRO_STEPS:
        raise ConfigError(f"horizon {horizon} takes more than {MAX_MICRO_STEPS} steps of "
                          f"micro_dt={micro}")
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
