"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``.

``calls`` and work counts (``points``, ``nfev``, ``draws``, ``blocks``)
repeat exactly for the same seed and rounds; ``self_s`` is span time minus
the time of child spans.  Functions not listed one by one are summed into
``<module>.other.self_s``, and ``other.self_s`` is op time no wrapped call
covers, so every self time listed here adds up to ``trace.op_wall_s``.
"""

from __future__ import annotations

# (layer, stats); a stat of "work" is the tracer's per-function work count
LISTED = (
    ("families.eval_basis_many", ("calls", "self_s")),
    ("families.weight_from_eta", ("calls", "self_s")),
    ("designs.information_matrix", ("calls", "self_s")),
    ("designs.psd_logdet", ("calls", "self_s")),
    ("designs.equivalence_scan", ("calls", "self_s", "points")),
    ("designs.build_eval_grid", ("calls", "self_s")),
    ("designs.prune_design", ("calls", "self_s")),
    ("optimize.refine_weights", ("calls", "self_s")),
    ("optimize.minimize", ("calls", "nfev", "self_s")),
    ("optimize.optimize_continuous", ("self_s",)),
    ("optimize.optimize_exact", ("self_s",)),
    ("linalg.inv", ("calls", "self_s")),
    ("linalg.slogdet", ("calls", "self_s")),
    ("priors.efficiency_distribution", ("calls", "self_s", "draws")),
    ("priors.sample_prior", ("calls", "self_s")),
    ("closed_form.russell_poisson_design", ("calls", "self_s")),
    ("glmm.block_info_batch", ("calls", "blocks", "self_s")),
    ("glmm.block_equivalence_check", ("calls", "points", "self_s")),
    ("glmm.optimize_block_design", ("self_s",)),
    ("glmm.direct_binary_block_info", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
    ("serialize.canonical_json", ("calls", "self_s")),
)
MODULES = ("families", "designs", "optimize", "priors", "closed_form", "glmm", "serialize", "cli", "tables")
UNITS = {"calls": "count", "self_s": "s", "points": "count", "nfev": "count", "draws": "count", "blocks": "count"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, stats in LISTED:
        for stat in stats:
            out[f"{layer}.{stat}"] = UNITS[stat]
    out["optimize.support_sizes_tried"] = "count"
    out["optimize.anneal_accept_ratio"] = "ratio"
    out["closed_form.other.calls"] = "count"
    for mod in MODULES:
        out[f"{mod}.other.self_s"] = "s"
    out["other.self_s"] = "s"
    out["trace.op_wall_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    out["trace.ops_per_s_traced"] = "1/s"
    out["trace.ops_per_s_untraced"] = "1/s"
    return out


def per_layer(tracer, records, wall_traced: float, wall_untraced: float) -> dict:
    """Metrics of the traced phase as {name: (value, unit)}."""
    totals = tracer.totals()
    units = metric_units()
    values = dict.fromkeys(units, 0.0)
    listed_self = set()
    for layer, stats in LISTED:
        calls, self_s, _, work = totals.get(layer, (0, 0.0, 0.0, 0))
        for stat in stats:
            values[f"{layer}.{stat}"] = {"calls": calls, "self_s": self_s}.get(stat, work)
        if "self_s" in stats:
            listed_self.add(layer)
    values["optimize.support_sizes_tried"] = totals.get("optimize.optimize_continuous", (0, 0, 0, 0))[3]
    for name, (calls, self_s, _, _) in totals.items():
        mod = name.split(".", 1)[0]
        if name in listed_self or mod == "linalg":
            continue
        values[f"{mod}.other.self_s"] += self_s
        if mod == "closed_form":
            values["closed_form.other.calls"] += calls
    op_wall = sum(op["wall_s"] for op in tracer.ops)
    values["other.self_s"] = sum(op["other_self_s"] for op in tracer.ops)
    values["trace.op_wall_s"] = op_wall
    # proxy: one inverse per accepted move plus one per chain start
    inv = proposals = 0
    for op, rec in zip(tracer.ops, records):
        if op["kind"] == "anneal" and rec["result"] is not None:
            inv += op["layers"].get("linalg.inv", {}).get("calls", 0)
            d = rec["result"].details
            proposals += d["steps"] * d["restarts"]
    values["optimize.anneal_accept_ratio"] = inv / proposals if proposals else 0.0
    passed = sum(r["ok"] for r in records)
    values["trace.overhead_ratio"] = wall_traced / wall_untraced
    values["trace.ops_per_s_traced"] = passed / wall_traced
    values["trace.ops_per_s_untraced"] = passed / wall_untraced
    return {k: (values[k], units[k]) for k in units}
