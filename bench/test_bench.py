"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# The workload each layer's metrics are predicted to be exercised on, by
# metric prefix; the first matching prefix wins.
PREDICTED = (
    ("synthesis.reach", "reach_ruin"),
    ("master.", "translate_wide"),
    ("slave.", "translate_wide"),
    ("dgrma.", "translate_wide"),
    ("mdp.", "translate_wide"),
    ("simplex.", "lp_mec"),
    ("mecanalysis.", "lp_mec"),
    ("synthesis.", "lp_mec"),
    ("cli.", "lp_mec"),
    ("trace.", "lp_mec"),
)

# Small members of each corpus, so the test stays quick.
SMALL = {"lp_mec": (0, 0), "reach_ruin": (0, 0), "translate_wide": (0, 1)}


def per_layer_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def trace_call(cli, capture, tracer, inst, path, op):
    tracer.op = op
    tracer.install()
    try:
        code, _, err = tracer.run("cli.synth", run.synth_once, cli, path, inst)
        tracer.run("synthesis.simulate", run.simulate, capture.report, inst)
    finally:
        tracer.uninstall()
    assert code in (0, 1), err


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A tracer per workload holding two traced calls of one small instance."""
    cli = run.load_freqsynth()
    capture = run.Capture(cli)
    tracers = {}
    for workload, (cell, variant) in SMALL.items():
        inst = workloads.WORKLOADS[workload][1](cell, variant)
        path = tmp_path_factory.mktemp(workload) / "model.mdp"
        path.write_text(inst.model)
        tracer = spans.Tracer()
        for op in (0, 1):
            trace_call(cli, capture, tracer, inst, path, op)
        tracers[workload] = tracer
    return tracers


def test_hooks_resolve_to_functions():
    run.load_freqsynth()
    for module_name, attr, _, _ in spans.HOOKS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_per_layer_metric_records_a_span(traced):
    sources = spans.metric_sources()
    for metric in per_layer_names():
        if metric.startswith("trace.") and metric not in sources:
            continue  # timing comparisons of the two loops, not span-derived
        assert metric in sources, f"{metric} has no span source"
        workload = next(w for prefix, w in PREDICTED if metric.startswith(prefix))
        recorded = {rec[0] for rec in traced[workload].spans}
        missing = set(sources[metric]) - recorded
        assert not missing, f"{metric}: no {sorted(missing)} span on {workload}"


def test_layer_metrics_cover_the_declared_names(traced):
    tracer = traced["lp_mec"]
    metrics = spans.layer_metrics(tracer.spans, 2, run.SIM_STEPS)
    declared = set(per_layer_names())
    produced = set(metrics) | {
        "trace.synth_p50_s", "trace.untraced_p50_s", "trace.overhead_s"
    }
    assert declared == produced


def test_self_times_add_back_to_the_synth_span(traced):
    for tracer in traced.values():
        metrics = spans.layer_metrics(tracer.spans, 2, 0)
        assert metrics["trace.self_sum_share"][0] == pytest.approx(1.0, abs=1e-9)


def test_exact_counts_repeat_and_changes_are_reported(traced, tmp_path, monkeypatch):
    for tracer in traced.values():
        counts = spans.op_counts(tracer.spans)
        assert set(spans.EXACT_COUNTS) <= set(counts[0])
        assert counts[0] == counts[1]
    counts = spans.op_counts(traced["lp_mec"].spans)[0]
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.check_repeats({"k": [counts]}) == []
    assert run.check_repeats({"k": [counts]}) == []
    changed = dict(counts, **{"simplex.pivots": counts["simplex.pivots"] + 1})
    assert len(run.check_repeats({"k": [changed]})) == 1


def test_plans_are_seeded_and_pinned():
    refs = json.loads((run.BENCH / "refs.json").read_text())
    for workload in workloads.WORKLOADS:
        n = workloads.calls(workload, 1)
        first = workloads.plan(workload, 7, n)
        assert first == workloads.plan(workload, 7, n)
        assert first != workloads.plan(workload, 8, n)
        for inst in first:
            assert refs[inst.key]["model_sha256"] == run.digest(inst.model)
