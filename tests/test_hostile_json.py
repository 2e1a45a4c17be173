"""Any JSON document from outside the program fails with one error type.

A --config file may only make load_config raise ConfigError, and a model
document may only make surrogate_from_dict raise InvalidModel; the CLI maps
both to exit code 2 with a one-line message.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from symkern.config import EXPERIMENTS, default_config, load_config
from symkern.errors import ConfigError, InvalidModel
from symkern.surrogate import surrogate_from_dict

# Numbers include NaN, the infinities and integers past the float range.
NUMBER = st.floats() | st.integers() | st.integers(10**300, 10**310)
JSON_LEAF = st.none() | st.booleans() | NUMBER | st.text(max_size=6)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)
# What replaces one field of a valid document: mostly numbers and lists of
# numbers, which get past the type checks to the value checks.
FIELD = NUMBER | st.lists(NUMBER, min_size=1, max_size=3) | JSON_VALUE


def replaced(draw, doc, paths):
    """doc with one or two of the (key, ...) paths set to FIELD values."""
    doc = json.loads(json.dumps(doc))
    chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True))
    for path in sorted(chosen, key=len, reverse=True):     # inner fields first
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        node[path[-1]] = draw(FIELD)
    return doc


@st.composite
def config_documents(draw):
    """A default config's experiment with leaves replaced."""
    exp = draw(st.sampled_from(EXPERIMENTS))
    base = default_config(exp)
    paths = [(k,) for k, v in base.items() if not isinstance(v, dict)]
    paths += [(k, sub) for k, v in base.items() if isinstance(v, dict) for sub in v]
    return replaced(draw, {"experiment": exp}, paths)


MODEL = {
    "version": 1, "kernel": {"family": "gaussian", "epsilon": 1.0}, "dim": 2, "delta_T": 0.1,
    "functionals": [{"center": [0.1, 0.2], "coord": 0}, {"center": [-0.3, 0.4], "coord": 1}],
    "coeffs": [0.5, -0.25],
}
TOP_PATHS = [(k,) for k in MODEL] + [("kernel", "family"), ("kernel", "epsilon")]


@st.composite
def model_documents(draw):
    """The model above, or its empty form, with fields replaced."""
    if draw(st.booleans()):
        return replaced(draw, dict(MODEL, functionals=[], coeffs=[]), TOP_PATHS)
    return replaced(draw, MODEL, TOP_PATHS + [("functionals", 0), ("functionals", 1),
                                              ("coeffs", 0)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(JSON_VALUE | config_documents())
def test_any_json_config_raises_only_config_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "property_config.json"
    path.write_text(json.dumps(doc))
    try:
        load_config(str(path))
    except ConfigError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(JSON_VALUE | model_documents())
def test_any_json_model_raises_only_invalid_model(doc):
    try:
        surrogate_from_dict(json.loads(json.dumps(doc)))
    except InvalidModel:
        pass
