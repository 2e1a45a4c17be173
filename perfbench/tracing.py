"""Outside-in spans around the public functions of each symkern module.

Nothing inside ``src/`` is traced.  Instead every function is replaced at
the name where its caller looks it up: ``symkern.experiment`` imports
``train_f_greedy`` with ``from .greedy import ...``, so the wrapper has to
sit on ``symkern.experiment.train_f_greedy``, not on
``symkern.greedy.train_f_greedy``.  Methods are wrapped on the class that
defines them.  A site that no longer exists raises at install time, so a
renamed function fails the traced run instead of reporting zeros.

Spans stay in memory as ``[name, site, start_ns, end_ns, parent, probe,
failed]`` and are written out once the traced iteration has ended.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
from time import perf_counter_ns

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows_x_steps(args, kwargs, result):
    return int(np.shape(args[1])[0]) * int(_arg(args, kwargs, 3, "steps"))


def _greedy_work(args, kwargs, result):
    """Sizes of one greedy fit: iterations, candidates, Newton-basis columns."""
    data, cfg = args[1], args[2]
    validation = _arg(args, kwargs, 3, "validation")
    n_cand = data.count * data.dim
    n_val = validation.count * validation.dim if validation is not None else 0
    max_m = min(cfg.max_centers, n_cand)
    return {"iterations": len(result[1]), "n_cand": n_cand, "n_val": n_val, "max_m": max_m}


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, probe).  The probe turns the call's
# arguments and result into a work count after the span has closed.
SITES = [
    ("experiment", "run_experiment", "experiment.run_experiment", None),
    ("experiment", "build_system", "experiment.build_system", None),
    ("experiment", "train_one", "experiment.train_one", None),
    ("experiment", "select_model", "experiment.select_model", None),
    ("experiment", "sample_states", "data.sample_states", None),
    ("experiment", "build_hb_dataset", "data.build_hb_dataset", None),
    ("experiment", "split_train_validation", "data.split_train_validation", None),
    ("experiment", "midpoint_many", "integrators.midpoint_many", _rows_x_steps),
    ("experiment", "propagate", "integrators.propagate",
     lambda a, k, r: int(_arg(a, k, 3, "steps"))),
    ("experiment", "train_f_greedy", "greedy.train_f_greedy", _greedy_work),
    ("experiment", "max_residual_error", "greedy.max_residual_error", None),
    ("experiment", "rollout", "predictor.rollout",
     lambda a, k, r: (int(_arg(a, k, 2, "num_steps")), int(np.sum(r.solver_iterations)))),
    ("experiment", "compute_metrics", "metrics.compute_metrics", None),
    ("experiment", "mean_series", "metrics.mean_series", None),
    ("experiment", "csvd_basis", "mor.csvd_basis", None),
    ("experiment", "reduce_quadratic", "mor.reduce_quadratic", None),
    ("experiment", "write_csv", "ioutil.write_csv", _file_size),
    ("experiment", "write_json", "ioutil.write_json", _file_size),
    ("experiment", "emit_line_plot", "plots.emit_line_plot", None),
    ("data", "midpoint_many", "integrators.midpoint_many", _rows_x_steps),
    ("integrators", "implicit_midpoint_step", "integrators.implicit_midpoint_step", None),
    ("systems", "Pendulum.grad_many", "systems.grad_many", None),
    ("systems", "Pendulum.hess_many", "systems.hess_many", None),
    ("systems", "Chain.grad_many", "systems.grad_many", None),
    ("systems", "Chain.hess_many", "systems.hess_many", None),
    ("systems", "Quadratic.grad_many", "systems.grad_many", None),
    ("systems", "Quadratic.hess_many", "systems.hess_many", None),
    ("greedy", "train_f_greedy", "greedy.train_f_greedy", _greedy_work),
    ("greedy", "verify_block_bound", "greedy.verify_block_bound", None),
    ("greedy", "mixed2_field", "kernels.mixed2_field",
     lambda a, k, r: int(np.shape(a[1])[0])),
    ("greedy", "fit", "surrogate.fit", None),
    ("greedy", "rkhs_norm", "surrogate.rkhs_norm", None),
    ("surrogate", "mixed2_field", "kernels.mixed2_field",
     lambda a, k, r: int(np.shape(a[1])[0])),
    ("surrogate", "mixed2_accumulate", "kernels.mixed2_accumulate",
     lambda a, k, r: int(np.shape(a[1])[0]) * int(np.shape(a[2])[0])),
    ("surrogate", "mixed2_accumulate_precise", "kernels.mixed2_accumulate_precise",
     lambda a, k, r: int(np.shape(a[2])[0])),
    ("surrogate", "gram_matrix", "surrogate.gram_matrix", None),
    ("surrogate", "rkhs_inner", "surrogate.rkhs_inner", None),
    ("surrogate", "cholesky_solve", "linalg.cholesky_solve", None),
    ("surrogate", "Surrogate.gradient_precise", "surrogate.gradient_precise", None),
    ("surrogate", "Surrogate.gradient_many", "surrogate.gradient_many", None),
    ("linalg", "cholesky_factor", "linalg.cholesky_factor", lambda a, k, r: int(r[1] > 0)),
    ("predictor", "predict_step", "predictor.predict_step", lambda a, k, r: r[1].iterations),
    ("predictor", "symplecticity_defect", "predictor.symplecticity_defect",
     lambda a, k, r: 2 * int(np.size(a[1]))),
    ("predictor", "contraction_margin", "predictor.contraction_margin",
     lambda a, k, r: 2 * a[0].n * int(np.atleast_2d(a[1]).shape[0])),
]

# Spans the untraced run keeps: a few dozen calls per run, enough for
# train_s and predict_steps_per_s without touching any hot path.
COARSE = {"experiment.train_one", "greedy.train_f_greedy", "predictor.rollout",
          "predictor.symplecticity_defect"}

NAME, SITE, START, END, PARENT, PROBE, FAILED = range(7)


class Tracer:
    """Installs wrappers on symkern sites and collects their spans."""

    def __init__(self, full: bool):
        self.sites = [s for s in SITES if full or s[2] in COARSE]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, site, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, site, perf_counter_ns(), 0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                span[PROBE] = probe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for mod_name, attr, name, probe in self.sites:
            owner = importlib.import_module(f"symkern.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if leaf not in vars(owner):
                raise RuntimeError(f"trace site symkern.{mod_name}.{attr} does not exist")
            fn = vars(owner)[leaf]
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, mod_name, probe))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- queries over the collected spans ---------------------------------

    @functools.cached_property
    def _by_name(self):
        """Spans grouped by name; built on the first query, after the run."""
        groups: dict = {}
        for s in self.spans:
            groups.setdefault(s[NAME], []).append(s)
        return groups

    def select(self, name, site=None):
        return [s for s in self._by_name.get(name, ()) if site is None or s[SITE] == site]

    def seconds(self, name, site=None) -> float:
        return sum(s[END] - s[START] for s in self.select(name, site)) / 1e9

    def calls(self, name, site=None) -> int:
        return len(self.select(name, site))

    def probes(self, name, site=None) -> list:
        return [s[PROBE] for s in self.select(name, site)]

    def durations_us(self, name) -> np.ndarray:
        return np.array([(s[END] - s[START]) / 1e3 for s in self.select(name)])

    def child_seconds(self, parent_name, child_name) -> float:
        parents = {i for i, s in enumerate(self.spans) if s[NAME] == parent_name}
        return sum(s[END] - s[START] for s in self.select(child_name)
                   if s[PARENT] in parents) / 1e9

    def self_seconds_by_module(self) -> dict:
        """Span duration minus the time its child spans cover, per module."""
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out: dict = {}
        for s, cov in zip(self.spans, covered):
            module = s[NAME].split(".", 1)[0]
            out[module] = out.get(module, 0) + (s[END] - s[START] - cov)
        return {k: v / 1e9 for k, v in out.items()}

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "site", "start_ns", "end_ns", "probe", "failed"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[PARENT], s[NAME], s[SITE], s[START], s[END],
                            "" if s[PROBE] is None else s[PROBE], int(s[FAILED])])
