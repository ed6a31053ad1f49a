"""Tests of the benchmark itself: workload checks, metric names, tracing.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

from qsimcost import costs, scenarios  # noqa: E402

KNOWN_REFUSALS = {
    "struct-1/rigorous/variance", "struct-1/rigorous/worst_case",
    "struct-2/rigorous/variance", "struct-2/rigorous/worst_case",
}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_one_pass_passes_its_checks(name):
    workload = wl.WORKLOADS[name](seed=3)
    records = run.measure(workload.requests(), 0, seed=3)
    assert len(records) == len(workload.requests())
    assert [r for r in records if r.outcome == "wrong"] == []
    refused = {r.request for r in records if r.outcome == "refused"}
    assert refused == (KNOWN_REFUSALS if name == "preset-grid" else set())


def _single(workload, request_id):
    request = next(r for r in workload.requests() if r.id == request_id)
    return request.judge(request.run())[0]


def test_preset_check_catches_a_changed_number():
    workload = wl.PresetGrid(seed=0)
    rid = "struct-1/rescaled/variance"
    row = workload.goldens[rid]["output"]["rows"][0]
    row["logical"]["t_count"] *= 1 + 1e-6
    assert _single(workload, rid) == "wrong"


def test_preset_check_catches_a_changed_markdown_cell():
    workload = wl.PresetGrid(seed=0)
    rid = "struct-1/rescaled/worst_case"
    golden = workload.goldens[rid]
    golden["output"] = golden["output"].replace("| 111 |", "| 112 |", 1)
    assert _single(workload, rid) == "wrong"


def test_sampled_check_catches_a_biased_h():
    workload = wl.FcidumpSampled(seed=0)
    ref = workload.reference["h"]["h8_chain"]
    ref["value"] *= 1.5
    assert _single(workload, "h8_chain") == "wrong"


def test_oracle_check_catches_a_violated_bound():
    workload = wl.OracleValidate(seed=0)
    workload.reference["h"]["h2_sto3g"]["value"] *= 1e-6
    assert _single(workload, "bundled") == "wrong"


def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS) == \
        set(run.WORKLOAD_NAMES)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace, units", [
    (0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS),
])
def test_main_prints_one_result_line(capsys, trace, units):
    code = run.main(["--workload", "preset-grid", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (16 if trace == 0 else 32)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["costs.share"]["value"] > 0.5
        assert result["metrics"]["costs.optimize_budget.calls"]["value"] == 2


def _span(span_id, parent, start, end, layer="costs"):
    return tr.Span(span_id, parent, "r", f"{layer}.f{span_id}", layer,
                   start, end)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(0, None, 0.0, 10.0, "bench"),
        _span(1, 0, 1.0, 4.0),    # worker thread 1
        _span(2, 0, 3.0, 6.0),    # worker thread 2, overlaps span 1
        _span(3, 0, 8.0, 12.0),   # outlives its parent: clipped at 10
        _span(4, 1, 2.0, 3.0),    # grandchild: only span 1 loses it
    ]
    own = tr.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_union_length_handles_nested_and_disjoint_intervals():
    intervals = [(5.0, 6.0), (0.0, 4.0), (1.0, 2.0), (3.5, 4.5)]
    assert tr.union_length(intervals, 0.0, 10.0) == pytest.approx(5.5)
    assert tr.union_length(intervals, 1.5, 5.5) == pytest.approx(3.5)
    assert tr.union_length([], 0.0, 1.0) == 0.0


def test_tracer_parents_worker_spans_and_restores_bindings():
    original = costs.optimize_budget
    argv = wl.preset_argv("struct-1", "rescaled", "variance")
    with tr.Tracer() as tracer:
        assert scenarios.optimize_budget is not original
        code, _, _ = tracer.run_request("r0", lambda: wl.run_cli(argv))
    assert code == 0
    assert costs.optimize_budget is original
    assert scenarios.optimize_budget is original
    by_id = {span.id: span for span in tracer.spans}
    assert all(span.request == "r0" for span in tracer.spans)
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == tr.ROOT
    budgets = [s for s in tracer.spans if s.name == "costs.optimize_budget"]
    assert len(budgets) == 2
    # run on run_scenario's worker threads, parented to run_scenario
    assert {by_id[s.parent].name for s in budgets} == {
        "scenarios.run_scenario"}
    assert tracer.counts["costs.evaluate_cost_smooth"] > 0
    # wrapped calls outside a request pass through unrecorded
    spans_before = len(tracer.spans)
    with tracer:
        wl.run_cli(argv)
    assert len(tracer.spans) == spans_before
