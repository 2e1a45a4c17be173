"""A config that passes load_config never makes a command print a traceback.

`symkern train` and `symkern check-bounds` run on drawn numeric leaves of
all three experiments, zero and negative values included, at sizes small
enough that one run takes milliseconds.  Every run must end in exit code 0,
1 or 2, and a failing run must print exactly one line to stderr.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

import symkern.data as data_mod
from symkern.cli import main
from symkern.kernels import FAMILIES

# Leaves are drawn from valid ranges, extreme magnitudes included; one or
# two of them are then replaced by zero, a negative or an outsized value.
SIGNED = st.floats(-2.0, 2.0) | st.sampled_from([-1e30, 1e30])
POSITIVE = st.floats(1e-2, 4.0) | st.sampled_from([1e-30, 1e-8, 1e8, 1e30])
HOSTILE = st.sampled_from([0, 0.0, -1, -0.5, 1e-300, 1e300])
COMMON = {
    ("seed",): st.integers(0, 100),
    ("scenario",): st.sampled_from("AB"),
    ("validation_fraction",): st.floats(0.1, 0.9),
    ("greedy", "max_centers"): st.integers(1, 6),
    ("greedy", "residual_tolerance"): st.just(0.0) | st.floats(0.0, 1.0),
    ("test", "count"): st.integers(1, 4),
}
LEAVES = {
    "pendulum": {("system", "mass"): POSITIVE, ("system", "length"): POSITIVE,
                 ("system", "gravity"): POSITIVE,
                 ("sampling", "grid_counts", 0): st.integers(1, 6),
                 ("sampling", "grid_counts", 1): st.integers(1, 6)},
    "chain": {("system", "n"): st.integers(1, 3), ("system", "alpha"): SIGNED,
              ("system", "beta"): SIGNED, ("system", "q_max"): POSITIVE,
              ("system", "p_max"): POSITIVE, ("system", "energy_cap"): POSITIVE,
              ("sampling", "target_count"): st.integers(1, 12)},
    "wave": {("system", "n_grid"): st.integers(1, 12), ("system", "wave_speed"): SIGNED,
             ("system", "length"): POSITIVE, ("system", "snapshot_modes"): st.integers(1, 3),
             ("system", "reduced_modes"): st.integers(1, 4), ("system", "z_max"): POSITIVE,
             ("system", "energy_cap"): POSITIVE, ("sampling", "target_count"): st.integers(1, 12)},
}
# (micro_dt, delta_t, horizon): each a multiple of the one before
STEPS = st.tuples(st.sampled_from([0.01, 0.025, 0.05]), st.sampled_from([0.05, 0.1, 0.2]),
                  st.sampled_from([0.4, 1.0]))


def put(doc, path, value):
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


@st.composite
def configs(draw):
    exp = draw(st.sampled_from(sorted(LEAVES)))
    micro, dt, horizon = draw(STEPS)
    leaves = {("micro_dt",): micro, ("delta_t_list", 0): dt, ("test", "horizon"): horizon,
              ("selection", "epsilons", 0): draw(POSITIVE)}
    leaves.update((path, draw(leaf)) for path, leaf in {**COMMON, **LEAVES[exp]}.items())
    for path in draw(st.lists(st.sampled_from(sorted(leaves, key=str)), max_size=2)):
        leaves[path] = draw(HOSTILE)
    doc = {"experiment": exp, "delta_t_list": [0],
           "selection": {"families": [draw(st.sampled_from(FAMILIES))], "epsilons": [0]},
           "sampling": {"grid_counts": [0, 0]} if exp == "pendulum" else {}}
    for path, value in leaves.items():
        put(doc, path, value)
    return doc


def run_cli(argv):
    """(exit code, stderr lines) of one in-process command; warnings are
    printed to stderr as the command line would."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda msg, cat, *a, **k: print(f"{cat.__name__}: {msg}",
                                                               file=err)
        rc = main(argv)
    return rc, err.getvalue().splitlines()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(configs())
def test_config_leaves_never_reach_a_traceback(doc):
    # the rejection loop stops after two chunks, not after MAX_DRAWS states
    saved = data_mod.MAX_DRAWS
    data_mod.MAX_DRAWS = 2 * data_mod.BOX_CHUNK
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for argv in (["train", "--out", os.path.join(tmp, "out")], ["check-bounds"]):
                rc, err = run_cli(argv + ["--config", path])
                assert rc in (0, 1, 2)
                assert rc == 0 or len(err) == 1, err
    finally:
        data_mod.MAX_DRAWS = saved
