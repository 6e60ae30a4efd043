"""Tests of the benchmark itself: span arithmetic, tracer hygiene, the
output checker, traced-versus-untraced bytes and the BENCHMARK.json
contract. Run with ``python3 -m pytest -q perfbench`` from the repository
root."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from check import check_plan
from spans import LAYER_METRICS, Span, Tracer, layer_metrics, self_times

SEGMENTS = """id,x,y,scheduled_year,cost
a,0.0,0.0,2020,500.00
b,1.0,0.0,2020,10.00
c,50.0,50.0,2021,10.00
"""
BUDGETS = "year,budget\n2020,100.00\n2021,420.00\n"

SMALL_PLAN = run.Workload(
    300,
    3,
    range(2018, 2021),
    commands=run.WORKLOADS["plan-blobs-5y"].commands,
    artifacts=("plan.json", "plan.svg"),
    plans=("plan.json",),
)
SMALL_REVIEW = run.Workload(
    300,
    3,
    range(2018, 2021),
    setup=run.WORKLOADS["review-compare"].setup,
    setup_plans=("after.json",),
    commands=run.WORKLOADS["review-compare"].commands,
    artifacts=run.WORKLOADS["review-compare"].artifacts,
    plans=("before.json",),
)


def _span(id, name, start, end, parent=None, **counts):
    return Span(id, name, start, end, parent, "r", counts)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),
        _span(3, "d", 9.0, 12.0, 0),
        _span(4, "c", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_layer_metrics_sum_self_times_and_derive_ratios():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "radial._drain_pool", 1.0, 9.0, 0),
        _span(2, "refine.schedule_aware_cluster", 2.0, 6.0, 1, members=5),
        _span(3, "refine.build_tolerance_band", 2.5, 5.0, 2, band_offered=4, low_members=3),
        _span(4, "radial.radial_neighbor_clustering", 2.5, 3.0, 3, pool_points=10),
        _span(5, "radial.radial_neighbor_clustering", 3.0, 3.5, 3, pool_points=10),
        _span(6, "radial.radial_neighbor_clustering", 3.5, 4.0, 3, pool_points=10),
        _span(7, "refine.schedule_aware_cluster", 6.0, 7.0, 1, members=1),
        _span(8, "radial.radial_neighbor_clustering", 7.0, 8.0, 1, pool_points=6),
    ]
    values = layer_metrics(spans)
    assert values["cli.self_s"] == 2.0
    assert values["radial.driver.self_s"] == 2.0
    assert values["refine.schedule_aware_cluster.self_s"] == 2.5
    assert values["refine.build_tolerance_band.self_s"] == 1.0
    assert values["radial.radial_neighbor_clustering.self_s"] == 2.5
    assert values["radial.radial_neighbor_clustering.calls"] == 4
    assert values["radial.pool_points"] == 36
    assert values["refine.walks_per_cluster"] == 1.5
    assert values["refine.band_admit_ratio"] == 0.5
    assert values["geometry.center_pairs"] == 0
    assert set(values) == set(LAYER_METRICS) - {"trace.overhead_s"}


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "paveplan" or name.startswith("paveplan.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import paveplan.cli as cli
    import paveplan.radial as radial
    import paveplan.refine as refine

    tracer = Tracer()
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert refine.radial_neighbor_clustering is radial.radial_neighbor_clustering
            assert refine.radial_neighbor_clustering.__wrapped__ is before[
                ("paveplan.radial", "radial_neighbor_clustering")
            ]
            assert cli.compute_metrics.__wrapped__ is before[("paveplan.metrics", "compute_metrics")]
            raise RuntimeError("leave the block early")
    assert _bindings() == before
    assert not any(hasattr(value, "__wrapped__") for value in before.values())
    inputs = tmp_path / "in"
    run.setup(SMALL_PLAN, 5, inputs)
    with tracer.installed():
        assert not run.execute_in_process(SMALL_PLAN, inputs, tmp_path / "out").failures
    assert _bindings() == before
    assert "cli.main" in {span.name for span in tracer.spans}


@pytest.fixture
def over_budget_plan(tmp_path):
    import paveplan.cli as cli

    (tmp_path / "segments.csv").write_text(SEGMENTS)
    (tmp_path / "budgets.csv").write_text(BUDGETS)
    code = cli.main(
        ["cluster", "--segments", str(tmp_path / "segments.csv")]
        + ["--budgets", str(tmp_path / "budgets.csv"), "--algo", "landmark"]
        + ["--out", str(tmp_path / "plan.json")]
    )
    assert code == 0
    return json.loads((tmp_path / "plan.json").read_text())


def test_checker_accepts_a_flagged_over_budget_singleton(over_budget_plan):
    assert over_budget_plan["diagnostics"][0]["code"] == "over_budget_singleton"
    assert check_plan(json.dumps(over_budget_plan), SEGMENTS, BUDGETS) == []


def test_checker_rejects_an_over_budget_cluster_without_diagnostic(over_budget_plan):
    over_budget_plan["diagnostics"] = []
    problems = check_plan(json.dumps(over_budget_plan), SEGMENTS, BUDGETS)
    assert problems == ["budget: 2021 realizes 500.00 over 420.00 unflagged"]


def test_checker_rejects_a_duplicated_member(over_budget_plan):
    first = over_budget_plan["clusters"][0]
    duplicate = dict(first["members"][0])
    first["members"].append(duplicate)
    problems = check_plan(json.dumps(over_budget_plan), SEGMENTS, BUDGETS)
    assert f"partition: id {duplicate['id']} appears 2 times" in problems
    assert any(p.startswith("conservation: 2020 members sum") for p in problems)


def test_checker_rejects_a_missing_member_and_a_cent_off_total(over_budget_plan):
    over_budget_plan["unassigned"] = []
    over_budget_plan["clusters"][0]["members"].pop()
    over_budget_plan["clusters"][1]["realized_cost"] = "500.01"
    problems = check_plan(json.dumps(over_budget_plan), SEGMENTS, BUDGETS)
    assert any(p.startswith("partition: 1 input id(s) missing") for p in problems)
    assert "conservation: 2021 members sum 500.00 != realized 500.01" in problems


@pytest.mark.parametrize("workload", [SMALL_PLAN, SMALL_REVIEW], ids=["plan", "review"])
def test_traced_bytes_equal_untraced_bytes(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    outcome = run.trace("small", workload, 5, 1, tmp_path / "w", record=False)
    assert outcome.problems == []
    assert len(outcome.executions) >= run.TRACE_MIN_REPETITIONS
    assert [e.failures for e in outcome.executions] == [[]] * len(outcome.executions)
    for artifact in workload.artifacts:
        traced = (tmp_path / "w" / "traced" / artifact).read_bytes()
        assert traced == (tmp_path / "w" / "plain" / artifact).read_bytes()
        assert outcome.hashes[artifact]
    assert outcome.units is LAYER_METRICS and set(outcome.metrics) == set(LAYER_METRICS)
    assert outcome.metrics["metrics.compute_metrics.calls"] >= 1
    assert (tmp_path / "small-seed5-spans.jsonl").is_file()


def test_benchmark_json_matches_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for entry in spec["workloads"]:
        assert name.fullmatch(entry["name"]) and len(entry["why"]) <= 200
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert name.fullmatch(entry["name"]) and unit.fullmatch(entry["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-oneblob-30y"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
