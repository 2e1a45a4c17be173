"""Per-layer metrics and counter cross-checks from one traced iteration."""

from __future__ import annotations

import numpy as np

MODULES = ("experiment", "data", "integrators", "systems", "greedy", "kernels", "surrogate",
           "linalg", "predictor", "mor", "ioutil", "plots", "metrics")

# Layers each workload must reach; a wrapper that no longer fires leaves a
# layer without spans and fails the traced run.
_DESK = ("experiment", "data", "integrators", "systems", "greedy", "kernels", "surrogate",
         "predictor", "ioutil", "plots")
EXERCISED = {
    "chain-desk": _DESK,
    "pendulum-desk": _DESK,
    "wave-desk": _DESK + ("mor",),
    "verify-synthetic": ("greedy", "kernels", "surrogate", "linalg", "predictor"),
}


def _per(total, count, scale):
    return total / count * scale if count else 0.0


def layer_metrics(tr, traced_run_s, untraced_run_s):
    """Every per-layer metric as name -> (value, unit)."""
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    train_one = tr.seconds("experiment.train_one")
    put("experiment.reference_s", tr.seconds("integrators.midpoint_many", "experiment"), "s")
    put("experiment.select_model_s", tr.seconds("experiment.select_model"), "s")
    put("experiment.refit_s",
        train_one - tr.child_seconds("experiment.train_one", "data.build_hb_dataset")
        - tr.child_seconds("experiment.train_one", "experiment.select_model"), "s")
    put("experiment.rollout_loop_s",
        sum(tr.seconds(n, "experiment") for n in
            ("predictor.rollout", "integrators.propagate", "metrics.compute_metrics")), "s")
    put("experiment.artifacts_s",
        sum(tr.seconds(n, "experiment") for n in
            ("ioutil.write_csv", "ioutil.write_json", "plots.emit_line_plot")), "s")

    put("data.build_hb_dataset_s", tr.seconds("data.build_hb_dataset"), "s")
    put("data.sample_states_s", tr.seconds("data.sample_states"), "s")

    mid_s = tr.seconds("integrators.midpoint_many")
    row_steps = sum(tr.probes("integrators.midpoint_many"))
    put("integrators.midpoint_many_s", mid_s, "s")
    put("integrators.midpoint_many.row_steps", row_steps, "count")
    put("integrators.midpoint_many.ns_per_row_step", _per(mid_s, row_steps, 1e9), "ns")
    put("integrators.propagate_s", tr.seconds("integrators.propagate"), "s")
    step_us = tr.durations_us("integrators.implicit_midpoint_step")
    put("integrators.implicit_midpoint_step.calls", step_us.size, "count")
    put("integrators.implicit_midpoint_step.p50_us",
        np.median(step_us) if step_us.size else 0.0, "us")

    put("systems.hess_many.calls", tr.calls("systems.hess_many"), "count")
    put("systems.grad_many.calls", tr.calls("systems.grad_many"), "count")

    fits = [p for p in tr.probes("greedy.train_f_greedy") if p is not None]
    greedy_s = tr.seconds("greedy.train_f_greedy")
    iterations = sum(f["iterations"] for f in fits)
    # iteration m multiplies the pool (training plus validation candidates)
    # by the m Newton-basis columns already chosen
    products = sum((f["n_cand"] + f["n_val"]) * f["iterations"] * (f["iterations"] - 1) // 2
                   for f in fits)
    put("greedy.train_f_greedy_s", greedy_s, "s")
    put("greedy.train_f_greedy.calls", tr.calls("greedy.train_f_greedy"), "count")
    put("greedy.iterations", iterations, "count")
    put("greedy.ms_per_iteration", _per(greedy_s, iterations, 1e3), "ms")
    put("greedy.pool_center_products", products, "count")
    put("greedy.ns_per_pool_center", _per(greedy_s, products, 1e9), "ns")
    put("greedy.newton_basis_mb",
        max([(f["n_cand"] + f["n_val"]) * f["max_m"] * 8 / 2**20 for f in fits], default=0.0),
        "MiB")
    put("greedy.max_residual_error_s", tr.seconds("greedy.max_residual_error"), "s")
    put("greedy.early_stops", sum(f["iterations"] < f["max_m"] for f in fits), "count")
    put("greedy.failed_fits", tr.calls("greedy.train_f_greedy") - len(fits), "count")

    field_s = tr.seconds("kernels.mixed2_field")
    points = sum(tr.probes("kernels.mixed2_field"))
    acc_s = tr.seconds("kernels.mixed2_accumulate")
    pairs = sum(tr.probes("kernels.mixed2_accumulate"))
    prec_s = tr.seconds("kernels.mixed2_accumulate_precise")
    prec_calls = tr.calls("kernels.mixed2_accumulate_precise")
    prec_centers = sum(tr.probes("kernels.mixed2_accumulate_precise"))
    put("kernels.mixed2_field.calls", tr.calls("kernels.mixed2_field"), "count")
    put("kernels.mixed2_field_s", field_s, "s")
    put("kernels.mixed2_field.points", points, "count")
    put("kernels.mixed2_field.ns_per_point", _per(field_s, points, 1e9), "ns")
    put("kernels.mixed2_accumulate_s", acc_s, "s")
    put("kernels.mixed2_accumulate.pairs", pairs, "count")
    put("kernels.mixed2_accumulate.ns_per_pair", _per(acc_s, pairs, 1e9), "ns")
    put("kernels.mixed2_accumulate_precise.calls", prec_calls, "count")
    put("kernels.mixed2_accumulate_precise.us_per_call", _per(prec_s, prec_calls, 1e6), "us")
    put("kernels.mixed2_accumulate_precise.ns_per_center", _per(prec_s, prec_centers, 1e9),
        "ns")

    put("surrogate.gram_matrix_s", tr.seconds("surrogate.gram_matrix"), "s")
    put("surrogate.fit_s", tr.seconds("surrogate.fit"), "s")
    put("surrogate.rkhs_inner_s", tr.seconds("surrogate.rkhs_inner"), "s")
    put("surrogate.gradient_precise.calls", tr.calls("surrogate.gradient_precise"), "count")

    put("linalg.cholesky_solve_s", tr.seconds("linalg.cholesky_solve"), "s")
    put("linalg.cholesky_solve.calls", tr.calls("linalg.cholesky_solve"), "count")
    put("linalg.cholesky_factor.jittered",
        sum(p for p in tr.probes("linalg.cholesky_factor") if p is not None), "count")

    macro_steps = tr.calls("predictor.predict_step")
    step_us = tr.durations_us("predictor.predict_step")
    evals = sum(p for p in tr.probes("predictor.predict_step") if p is not None)
    put("predictor.rollout_s", tr.seconds("predictor.rollout"), "s")
    put("predictor.macro_steps", macro_steps, "count")
    put("predictor.steps_per_s", _per(macro_steps, step_us.sum(), 1e6), "1/s")
    put("predictor.predict_step.p50_us", np.percentile(step_us, 50) if step_us.size else 0.0,
        "us")
    put("predictor.predict_step.p99_us", np.percentile(step_us, 99) if step_us.size else 0.0,
        "us")
    put("predictor.evals_per_step", _per(evals, macro_steps, 1.0), "count")
    put("predictor.symplecticity_defect_s", tr.seconds("predictor.symplecticity_defect"), "s")
    put("predictor.contraction_margin_s", tr.seconds("predictor.contraction_margin"), "s")

    put("mor.csvd_basis_s", tr.seconds("mor.csvd_basis"), "s")
    put("ioutil.bytes_written",
        sum(tr.probes("ioutil.write_csv")) + sum(tr.probes("ioutil.write_json")), "bytes")
    put("plots.emit_line_plot_s", tr.seconds("plots.emit_line_plot"), "s")

    self_s = tr.self_seconds_by_module()
    for module in MODULES:
        put(f"{module}.self_s", self_s.get(module, 0.0), "s")
    put("trace.overhead_s", traced_run_s - untraced_run_s, "s")
    return m


def cross_checks(tr, workload, expected, solver_iterations):
    """Outside-in counters against counts the program or the config gives.

    ``solver_iterations`` is the program's own total from the rollouts
    (desk runs); the synthetic workload has no rollouts, so there the
    predict_step reports stand in for it.
    """
    predict_evals = sum(p for p in tr.probes("predictor.predict_step") if p is not None)
    if solver_iterations is None:
        solver_iterations = predict_evals
    margin_evals = sum(tr.probes("predictor.contraction_margin"))
    rollout_steps = sum(p[0] for p in tr.probes("predictor.rollout") if p is not None)
    defect_steps = sum(tr.probes("predictor.symplecticity_defect"))
    macro_steps = tr.calls("predictor.predict_step")
    checks = [
        ("gradient_precise_calls_eq_solver_iterations",
         tr.calls("surrogate.gradient_precise") == solver_iterations + margin_evals,
         f"{tr.calls('surrogate.gradient_precise')} vs {solver_iterations} + {margin_evals}"),
        ("macro_steps_eq_rollout_steps",
         macro_steps == rollout_steps + defect_steps == expected["macro_steps"],
         f"{macro_steps} vs {rollout_steps} + {defect_steps}, "
         f"config {expected['macro_steps']}"),
        ("midpoint_steps_eq_baseline_steps",
         tr.calls("integrators.implicit_midpoint_step") == expected["baseline_steps"],
         f"{tr.calls('integrators.implicit_midpoint_step')} vs {expected['baseline_steps']}"),
        ("greedy_fits_eq_config",
         tr.calls("greedy.train_f_greedy") == expected["fits"],
         f"{tr.calls('greedy.train_f_greedy')} vs {expected['fits']}"),
    ]
    seen = {s[0].split(".", 1)[0] for s in tr.spans}
    missing = [mod for mod in EXERCISED[workload] if mod not in seen]
    checks.append(("every_exercised_layer_traced", not missing, f"missing {missing}"))
    return checks
