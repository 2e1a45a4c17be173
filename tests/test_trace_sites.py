"""Every function the benchmark's tracer wraps must still exist and fire.

perfbench/tracing.py replaces symkern functions at the names their callers
look them up by, and raises at install time for a name that is gone.  These
tests install the tracer, so a refactor that removes or renames a traced
name, or stops calling it through the traced module, fails here rather
than in a later benchmark run (perfbench/run.py divides by the rollout
time the coarse spans record).  The kernel, Newton and predictor forms
behind those names must also give the artifact bytes of the reference
forms they replaced.
"""

import json
import os

import pytest

import kernel_reference as ref
from symkern import greedy, integrators, kernels, predictor, surrogate
from symkern.config import default_config
from symkern.experiment import run_experiment

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer

    tracer = Tracer(full=True)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert greedy.mixed2_field is kernels.mixed2_field


def _tiny(experiment):
    cfg = default_config(experiment)
    if experiment == "pendulum":
        cfg["sampling"]["grid_counts"] = [8, 8]
    else:
        cfg["sampling"]["target_count"] = 40
    cfg["delta_t_list"] = [0.1]
    cfg["selection"].update(families=["gaussian"], epsilons=[1.0])
    cfg["greedy"]["max_centers"] = 8
    cfg["test"].update(count=2, horizon=1.0)
    return cfg


def test_coarse_spans_of_a_desk_run(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer

    with Tracer(full=False) as tracer:
        run_experiment(_tiny("pendulum"), str(tmp_path))
    steps = sum(p[0] for p in tracer.probes("predictor.rollout"))
    assert steps == 2 * 10
    assert tracer.seconds("predictor.rollout") > 0
    assert tracer.calls("experiment.train_one") == 1
    # model selection trains each candidate, then train_one replays the
    # winner's picks in one more train_f_greedy call
    assert tracer.calls("greedy.train_f_greedy") == 1 * (1 + 1)


def test_tolerance_stops_selection_and_the_budget_fit_replays(monkeypatch, tmp_path):
    # a residual tolerance ends every candidate's fit before the cap, and
    # the budget fit keeps the winner's picks instead of selecting again
    cfg = _tiny("pendulum")
    cfg["selection"]["epsilons"] = [1.0, 2.0]
    cfg["greedy"]["residual_tolerance"] = 9.3
    select, fits = greedy._select, []

    def spy(kernel, *args):
        surr, trace = select(kernel, *args)
        fits.append((kernel.epsilon, len(trace)))
        return surr, trace

    monkeypatch.setattr(greedy, "_select", spy)
    if hasattr(os, "fork"):
        # the worker fits epsilon 2.0 in its own process; this one selects
        # only for epsilon 1.0, and neither the worker's fit nor the budget
        # fit selects again here
        run_experiment(cfg, str(tmp_path / "forked"), rollouts=False)
        assert [eps for eps, _ in fits] == [1.0]
        fits.clear()
        monkeypatch.delattr(os, "fork")
    summary = run_experiment(cfg, str(tmp_path / "inline"), rollouts=False)
    assert [eps for eps, _ in fits] == [1.0, 2.0]
    centers = dict(fits)[summary["per_dt"]["0.1"]["kernel"]["epsilon"]]
    model = (tmp_path / "inline" / "model_dt0.1.json").read_text()
    assert 0 < len(json.loads(model)["functionals"]) == centers < cfg["greedy"]["max_centers"]
    if (tmp_path / "forked").exists():
        assert (tmp_path / "forked" / "model_dt0.1.json").read_text() == model


@pytest.mark.parametrize("experiment", ["pendulum", "chain", "wave"])
def test_desk_run_cross_checks_pass(monkeypatch, tmp_path, experiment):
    # the counter cross-checks of a traced benchmark run: a step that
    # bypasses a wrapped name (a scalar midpoint step, a predictor macro
    # step) or a changed number of greedy fits fails here
    monkeypatch.syspath_prepend(PERFBENCH)
    from layers import cross_checks
    from tracing import Tracer

    cfg = _tiny(experiment)
    with Tracer(full=True) as tracer:
        summary = run_experiment(cfg, str(tmp_path))
    # the counts workloads.Desk.expected_counts derives from the config
    steps = cfg["test"]["count"] * sum(round(cfg["test"]["horizon"] / dt)
                                       for dt in cfg["delta_t_list"])
    candidates = len(cfg["selection"]["families"]) * len(cfg["selection"]["epsilons"])
    expected = {"macro_steps": steps, "baseline_steps": steps,
                "fits": len(cfg["delta_t_list"]) * (candidates + 1)}
    assert expected == {"macro_steps": 20, "baseline_steps": 20, "fits": 2}
    iterations = sum(v["solver_iterations"] for v in summary["per_dt"].values())
    checks = cross_checks(tracer, f"{experiment}-desk", expected, iterations)
    assert len(checks) == 5
    assert [(name, detail) for name, ok, detail in checks if not ok] == []
    # the errors come from one pass per macro step, not one per test state
    assert tracer.calls("metrics.compute_metrics") == len(cfg["delta_t_list"])
    assert tracer.calls("metrics.mean_series") == 5 * len(cfg["delta_t_list"])


def test_verify_synthetic_checks_pass(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    from tracing import Tracer

    work = workloads.VerifySynthetic("verify-synthetic", 2025, str(tmp_path))
    with Tracer(full=False) as tracer:
        out = work.run()
    result = work.evaluate(out, tracer, workloads.load_reference())
    names = [name for name, _, _ in result["checks"]]
    assert {"block_bound_m5", "block_bound_m10", "block_bound_m20", "symplecticity_defect",
            "reference_centers", "reference_model_residual"} <= set(names)
    assert [(name, detail) for name, ok, detail in result["checks"] if not ok] == []
    assert result["train_s"] > 0 and result["predict_s"] > 0


# (module, name, reference form): the call sites the pipeline reaches the
# float64 kernel blocks, the midpoint Newton and the predictor's macro step
# through.  No stage of an experiment calls mixed2_pairs; it is patched so
# that one that starts to is covered.
REFERENCE_FORMS = [(greedy, "mixed2_field", ref.mixed2_field),
                   (surrogate, "mixed2_accumulate", ref.mixed2_accumulate),
                   (surrogate, "mixed2_pairs", ref.mixed2_pairs),
                   (integrators, "_midpoint_newton", ref.midpoint_newton),
                   (predictor, "predict_step", ref.predict_step)]


@pytest.mark.parametrize("experiment", ["pendulum", "chain", "wave"])
def test_artifacts_equal_under_reference_forms(monkeypatch, tmp_path, experiment):
    monkeypatch.syspath_prepend(PERFBENCH)
    from workloads import artifact_digest

    cfg = _tiny(experiment)
    run_experiment(cfg, str(tmp_path / "shipped"))
    fired = set()
    for module, name, form in REFERENCE_FORMS:
        def noted(*args, name=name, form=form, **kwargs):
            fired.add(name)
            return form(*args, **kwargs)
        monkeypatch.setattr(module, name, noted)
    run_experiment(cfg, str(tmp_path / "reference"))
    assert artifact_digest(tmp_path / "shipped") == artifact_digest(tmp_path / "reference")
    # wave's reduced system is quadratic: its midpoint steps take no Newton
    newton = set() if experiment == "wave" else {"_midpoint_newton"}
    assert fired == {"mixed2_field", "mixed2_accumulate", "predict_step"} | newton
