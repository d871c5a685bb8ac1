"""Per-layer metrics of the traced run, named ``<module>.<function>.<stat>``.

Unless noted, a value is per traced operation: the total over all traced
operations of a run divided by their number.  ``calls`` counts calls,
``total_s`` is inclusive time and ``self_s`` is time minus child spans.
Metrics noted "(c)" are computed from array sizes at the call boundary and
repeat exactly; they are not measured memory traffic.
"""

from __future__ import annotations

import statistics

C = " (c) computed from array sizes"

# (name, unit, better, note).  BENCHMARK.json lists the same names.
PER_LAYER = (
    ("cli.main.self_s", "s", "lower", ""),
    ("dataio.load_csv.total_s", "s", "lower", ""),
    ("dataio.save_csv.total_s", "s", "lower", ""),
    ("dataio.save_csv.bytes", "B", "lower", " (c) size of the files written"),
    ("shiftops.cross_covariance.total_s", "s", "lower", ""),
    ("shiftops.covariance.total_s", "s", "lower", ""),
    ("core.NtkMatrix.calls", "count", "lower", ""),
    ("core.NtkMatrix.self_s", "s", "lower", ""),
    ("core.NtkMatrix.bytes", "B", "lower", C + ": nM^2 x 8 per call"),
    ("linalg.eig_calls", "count", "lower", " numpy eigh/eigvalsh calls of side >= nM"),
    ("linalg.eig_n3", "count", "lower", C + ": sum of n^3 over those calls"),
    ("hermite.gauss_hermite_rule.calls", "count", "lower", ""),
    ("hermite.gauss_hermite_rule.misses", "count", "lower", " lru_cache misses per process, set-up included"),
    ("hermite.expansion_constants.total_s", "s", "lower", ""),
    ("ntk.z_vectors.calls", "count", "lower", ""),
    ("ntk.expectation_E_quadrature.calls", "count", "lower", ""),
    ("ntk.expectation_E_quadrature.self_s", "s", "lower", ""),
    ("ntk.expectation_E_quadrature.pair_evals", "count", "lower", C + ": nM(nM+1)/2 x points^2"),
    ("ntk.expectation_E_first_layer.calls", "count", "lower", ""),
    ("ntk.expectation_E_first_layer.self_s", "s", "lower", ""),
    ("ntk.expectation_E_first_layer.pair_evals", "count", "lower", C + ": nM(nM+1)/2 x points^2"),
    ("ntk.conjugated_power_sum.total_s", "s", "lower", ""),
    ("ntk.gnn_infinite_ntk.self_s", "s", "lower", ""),
    ("ntk.filter_ntk.self_s", "s", "lower", ""),
    ("models.gnn2_forward.calls", "count", "lower", ""),
    ("models.gnn2_forward.total_s", "s", "lower", ""),
    ("models.gnn2_jacobian.calls", "count", "lower", ""),
    ("models.gnn2_jacobian.total_s", "s", "lower", ""),
    ("models.gnn2_jacobian.bytes", "B", "lower", C + ": rows x 2FK x 8 per call"),
    ("models.filter_forward.total_s", "s", "lower", ""),
    ("models.filter_jacobian.total_s", "s", "lower", ""),
    ("training.train.calls", "count", "lower", ""),
    ("training.train.self_s", "s", "lower", " optimizer step and bookkeeping"),
    ("training.train.forward_calls_per_epoch", "count", "lower", C + ": forward calls under train / epochs"),
    ("training.predicted_param_movement.total_s", "s", "lower", ""),
    ("training.compare_gso.self_s", "s", "lower", ""),
    ("alignment.alignment_report.self_s", "s", "lower", ""),
    ("alignment.check_gnn_alignment_lower_bound.self_s", "s", "lower", ""),
    ("alignment.check_first_layer_alignment_lower_bound.self_s", "s", "lower", ""),
    ("trace.overhead_s", "s", "lower", " traced minus untraced op_s_p50"),
)  # fmt: skip


def per_layer_values(results, metrics=PER_LAYER) -> dict:
    """Metric name -> value, combining the traces of all worker results."""
    traces = [r["trace"] for r in results]
    ops = sum(t["traced_ops"] for t in traces)
    totals = {}
    for t in traces:
        for span, stats in t["summary"].items():
            for stat, value in stats.items():
                key = f"{span}.{stat}"
                totals[key] = totals.get(key, 0) + value
    epochs = totals.get("training.train.epochs", 0)
    special = {
        "training.train.forward_calls_per_epoch": totals.get("training.train.forward_calls", 0)
        / epochs
        if epochs
        else 0.0,
        "hermite.gauss_hermite_rule.misses": statistics.mean(t["rule_misses"] for t in traces),
        "trace.overhead_s": statistics.median(t for r in results for t in r["traced_op_seconds"])
        - statistics.median(t for r in results for t in r["op_seconds"]),
    }
    return {
        name: special[name] if name in special else totals.get(name, 0) / ops
        for name, _, _, _ in metrics
    }
