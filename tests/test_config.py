import json
import re

import pytest

from symkern.config import (EXPERIMENTS, SCALES, _kind, _leaves, _ranges, default_config,
                            load_config, validate)
from symkern.errors import ConfigError

# Number leaves whose rules involve other leaves or open intervals, which
# validate spells out instead of taking from the range table.
CROSS_FIELD = {"micro_dt", "validation_fraction", "delta_t_list", "test.horizon",
               "selection.epsilons"}


def write(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_defaults_validate():
    for exp in ("pendulum", "chain", "wave"):
        for scale in ("desk", "paper"):
            validate(default_config(exp, scale))


def test_desk_shrinks_sizes_not_physics():
    desk = default_config("chain", "desk")
    paper = default_config("chain", "paper")
    assert desk["sampling"]["target_count"] < paper["sampling"]["target_count"]
    assert desk["system"] == paper["system"]


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, {"experiment": "pendulum", "epsilon_grid": [1.0]})
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)


def test_unknown_nested_key_rejected(tmp_path):
    path = write(tmp_path, {"experiment": "pendulum", "greedy": {"max_centres": 10}})
    with pytest.raises(ConfigError, match="greedy.max_centres"):
        load_config(path)


def test_delta_t_must_divide(tmp_path):
    path = write(tmp_path, {"experiment": "pendulum", "delta_t_list": [0.0301]})
    with pytest.raises(ConfigError, match="not an integer multiple"):
        load_config(path)


def test_horizon_must_be_multiple(tmp_path):
    path = write(tmp_path, {"experiment": "pendulum", "delta_t_list": [0.4],
                            "test": {"horizon": 1.0}})
    with pytest.raises(ConfigError, match="horizon"):
        load_config(path)


def test_bad_epsilon(tmp_path):
    path = write(tmp_path, {"experiment": "pendulum",
                            "selection": {"epsilons": [1.0, -2.0]}})
    with pytest.raises(ConfigError, match="positive"):
        load_config(path)


def test_bad_family(tmp_path):
    path = write(tmp_path, {"experiment": "pendulum",
                            "selection": {"families": ["gaussian", "wendland"]}})
    with pytest.raises(ConfigError, match="family"):
        load_config(path)


def test_seed_override():
    cfg = load_config(None, experiment="pendulum", seed=77)
    assert cfg["seed"] == 77


def test_missing_experiment(tmp_path):
    path = write(tmp_path, {"seed": 3})
    with pytest.raises(ConfigError, match="no experiment selected"):
        load_config(path)


def test_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path))


def test_integer_past_digit_limit(tmp_path):
    # json raises a plain ValueError, not a JSONDecodeError, for an integer
    # longer than the interpreter's int-to-str digit limit
    path = tmp_path / "long.json"
    path.write_text('{"experiment": "pendulum", "seed": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path))


def test_every_numeric_leaf_is_range_checked():
    # a new number or integer leaf needs a range or an explicit rule
    for exp in EXPERIMENTS:
        for scale in SCALES:
            cfg = default_config(exp, scale)
            ranges = _ranges(cfg)
            leaves = list(_leaves(cfg, cfg))
            for name, _, ref in leaves:
                if _kind(ref) in ("a number", "an integer"):
                    assert name in ranges or re.sub(r"\[\d+\]$", "", name) in CROSS_FIELD, name
            assert set(ranges) <= {name for name, _, _ in leaves}
