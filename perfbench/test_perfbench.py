"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_optdes(os.path.join(run.ROOT, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def snapshot() -> dict:
    mods = [importlib.import_module(m) for m in tracer.OPTDES_MODULES] + [np.linalg]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


@pytest.fixture
def cheap_ops(tmp_path):
    """One cheap op from each of three workloads (small instances)."""
    os.makedirs(tmp_path / "out")
    pick = (("continuous-local", "logistic-1d-free"), ("certify-short", "russell-check"),
            ("certify-short", "cli-check"), ("blocks", "direct-binary"))
    ops = []
    for name, kind in pick:
        rnd = workloads.WORKLOADS[name].rounds(5, 1, str(tmp_path), small=True)[0]
        ops.append(next(op for op in rnd if op.kind == kind))
    return ops


def test_untraced_run_installs_no_wrappers(cheap_ops):
    before = snapshot()
    seen = []
    op = cheap_ops[0]
    probe = workloads.Op(op.kind, op.label, lambda: (seen.append(tracer.installed_wrappers()), op.call())[1],
                         op.check)
    records, _ = run.run_rounds([[probe]])
    assert records[0]["error"] is None
    assert seen == [[]]
    assert same_objects(snapshot(), before)


def test_traced_run_restores_every_patched_name(cheap_ops):
    before = snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        names = set(tracer.installed_wrappers())
        for bound in ("optdes.families.weight_from_eta", "optdes.designs.weight_from_eta",
                      "optdes.priors.psd_logdet", "optdes.glmm.psd_logdet",
                      "optdes.optimize.minimize", "numpy.linalg.inv", "numpy.linalg.slogdet"):
            assert bound in names
        records, _ = run.run_rounds([cheap_ops], tracer=t)
    finally:
        t.uninstall()
    assert [r["error"] for r in records] == [None] * len(cheap_ops)
    assert tracer.installed_wrappers() == []
    assert same_objects(snapshot(), before)


def test_traced_op_matches_untraced_op(cheap_ops):
    plain, _ = run.run_rounds([cheap_ops])
    t = tracer.Tracer()
    t.install()
    try:
        traced, _ = run.run_rounds([cheap_ops], tracer=t)
    finally:
        t.uninstall()
    for a, b in zip(plain, traced):
        assert run.digest(a["result"]) == run.digest(b["result"]), a["op"].kind
    run.check_records(plain)
    assert all(r["ok"] for r in plain)
    # self times of every layer plus the uncovered rest add up to the op time
    for op in t.ops:
        covered = sum(v["self_s"] for v in op["layers"].values()) + op["other_self_s"]
        assert covered == pytest.approx(op["wall_s"], rel=1e-9, abs=1e-12)
        assert op["layers"], op["kind"]


def test_scan_threads_count_calls_without_overlapping_time(cheap_ops):
    russell = cheap_ops[1]
    plain, _ = run.run_rounds([[russell]])
    t = tracer.Tracer()
    t.install()
    od = sys.modules["optdes"]
    od.set_thread_count(2)
    try:
        traced, _ = run.run_rounds([[russell]], tracer=t)
    finally:
        od.set_thread_count(1)
        t.uninstall()
    assert run.digest(plain[0]["result"]) == run.digest(traced[0]["result"])
    op = t.ops[0]
    assert sum(v["worker_calls"] for v in op["layers"].values()) > 0
    assert all(v["self_s"] >= 0.0 for v in op["layers"].values()) and op["other_self_s"] >= 0.0
    covered = sum(v["self_s"] for v in op["layers"].values()) + op["other_self_s"]
    assert covered == pytest.approx(op["wall_s"], rel=1e-9, abs=1e-12)


def test_round_count_depends_on_run_length_only():
    for wl in workloads.WORKLOADS.values():
        assert wl.round_count(0.1) == 1
        assert wl.round_count(12 * wl.round_s) == 12


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    t = run.tail([float(i) for i in range(20)])
    assert (t["percentile"], t["beyond"]) == (50.0, 10)
    t = run.tail([float(i) for i in range(1, 101)])
    assert (t["percentile"], t["value_s"], t["beyond"]) == (90.0, 90.0, 10)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        cfg = json.load(f)
    assert [m["name"] for m in cfg["per_layer"]] == list(layers.metric_units())
    assert [m["unit"] for m in cfg["per_layer"]] == list(layers.metric_units().values())
    assert [w["name"] for w in cfg["workloads"]] == list(workloads.WORKLOADS)
    records = [{"op": None, "s": 0.5, "ok": True}, {"op": None, "s": 1.5, "ok": True}]
    metrics, _ = run.end_to_end(records, 2.0, [0.1, 0.2, 0.3], 100.0)
    assert {m["name"]: m["unit"] for m in cfg["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
