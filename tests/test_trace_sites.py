"""Every function the benchmark's tracer wraps must still exist and fire.

perfbench/tracing.py replaces symkern functions at the names their callers
look them up by, and raises at install time for a name that is gone.  These
tests install the tracer, so a refactor that removes or renames a traced
name, or stops calling it through the traced module, fails here rather
than in a later benchmark run (perfbench/run.py divides by the rollout
time the coarse spans record).
"""

import os

from symkern import greedy, kernels
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


def test_coarse_spans_of_a_desk_run(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer

    cfg = default_config("pendulum")
    cfg["sampling"]["grid_counts"] = [8, 8]
    cfg["delta_t_list"] = [0.1]
    cfg["selection"].update(families=["gaussian"], epsilons=[1.0])
    cfg["greedy"]["max_centers"] = 8
    cfg["test"].update(count=2, horizon=1.0)
    with Tracer(full=False) as tracer:
        run_experiment(cfg, str(tmp_path))
    steps = sum(p[0] for p in tracer.probes("predictor.rollout"))
    assert steps == 2 * 10
    assert tracer.seconds("predictor.rollout") > 0
    assert tracer.calls("experiment.train_one") == 1
    # model selection trains each candidate, then train_one refits the winner
    assert tracer.calls("greedy.train_f_greedy") == 1 * (1 + 1)


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
