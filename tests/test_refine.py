import ast
import hashlib
import random
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import paveplan.refine
from paveplan.io_formats import emit_plan
from paveplan.metrics import compute_metrics
from paveplan.model import BudgetEntry, BudgetSchedule, Segment, ValidationFailedError
from paveplan.radial import landmark_based_radial_clustering, schedule_aware_plan
from paveplan.refine import (
    STOP_CENTER_EXCEEDS_BUDGET,
    band_order,
    build_tolerance_band,
    radial_neighbor_clustering,
    schedule_aware_cluster,
)

from paveplan.synth import synthesize_dataset

from helpers import line_segments, random_segments, schedule, seg
from oracles import oracle_cluster_cost, oracle_prefix_cluster


class TestBuildToleranceBand:
    def test_zero_tolerances_collapse(self):
        pool = line_segments(range(6))
        band = build_tolerance_band(pool, pool[0], "3.00", "0.00", "0.00")
        assert band.low_cluster == band.mid_cluster == band.high_cluster
        assert band.band_ids == ()

    def test_line_band(self):
        pool = line_segments(range(6))
        band = build_tolerance_band(pool, pool[0], "3.00", "1.00", "1.00")
        assert band.low_cluster.member_ids == ("s0", "s1")
        assert band.mid_cluster.member_ids == ("s0", "s1", "s2")
        assert band.high_cluster.member_ids == ("s0", "s1", "s2", "s3")
        assert band.band_ids == ("s2", "s3")

    def test_heavy_center_collapses_to_singleton(self):
        pool = [seg("c", (0, 0), cost="10.00"), seg("n", (1, 0), cost="1.00")]
        band = build_tolerance_band(pool, pool[0], "5.00", "1.00", "1.00")
        for cluster in (band.low_cluster, band.mid_cluster, band.high_cluster):
            assert cluster.member_ids == ("c",)
        assert band.band_ids == ()

    def test_inner_budget_must_stay_positive(self):
        pool = line_segments(range(3))
        with pytest.raises(ValueError):
            build_tolerance_band(pool, pool[0], "1.00", "1.00", "0.00")

    @pytest.mark.parametrize(
        "caps",
        [
            ("0.00", "0.00", "0.00"),
            ("-3.00", "0.00", "0.00"),
            ("3.00", "-0.01", "0.00"),
            ("3.00", "0.00", "-1.00"),
            ("3.00", "3.00", "0.00"),
            ("3.00", "4.00", "1.00"),
            ("3.001", "0.00", "0.00"),
            ("3.00", "x", "0.00"),
        ],
    )
    def test_caps_are_refused_as_a_budget_entry_refuses_them(self, caps):
        pool = line_segments(range(3))
        with pytest.raises(ValueError) as refused:
            BudgetEntry(2018, *caps)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            build_tolerance_band(pool, pool[0], *caps)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60)
    def test_nesting(self, trial_seed):
        rng = random.Random(trial_seed)
        pool = random_segments(rng, rng.randint(1, 40))
        center = pool[rng.randrange(len(pool))]
        cap = Decimal(rng.randint(200, 60000)) / 100
        low = Decimal(rng.randint(0, int(cap * 100) - 1)) / 100
        high = Decimal(rng.randint(0, 30000)) / 100
        band = build_tolerance_band(pool, center, cap, low, high)
        low_ids = set(band.low_cluster.member_ids)
        mid_ids = set(band.mid_cluster.member_ids)
        high_ids = set(band.high_cluster.member_ids)
        assert low_ids <= mid_ids <= high_ids
        assert set(band.band_ids) == high_ids - low_ids
        by_id = {s.id: s for s in pool}
        for cluster, limit in (
            (band.low_cluster, cap - low),
            (band.mid_cluster, cap),
            (band.high_cluster, cap + high),
        ):
            expected = oracle_prefix_cluster(pool, center, limit)
            assert set(cluster.member_ids) == expected
            assert cluster.realized_cost == sum(
                by_id[sid].cost_by_year[by_id[sid].scheduled_year] for sid in expected
            )
            assert cluster.budget == limit


class TestBandOrder:
    def test_sorts_by_year(self):
        center = seg("c", (0, 0))
        # priced in the center's year, 2018
        band = [
            seg("a", (1, 0), year=2020, years=[2018]),
            seg("b", (2, 0), year=2018),
            seg("d", (3, 0), year=2019, years=[2018]),
        ]
        assert [s.id for s in band_order(band, center)] == ["b", "d", "a"]

    def test_equal_years_lower_cost_first(self):
        center = seg("c", (0, 0))
        band = [seg("a", (1, 0), cost="5.00"), seg("b", (2, 0), cost="2.00")]
        assert [s.id for s in band_order(band, center)] == ["b", "a"]

    def test_equal_years_and_costs_nearer_first(self):
        center = seg("c", (0, 0))
        band = [seg("a", (3, 0)), seg("b", (1, 0))]
        assert [s.id for s in band_order(band, center)] == ["b", "a"]

    def test_full_tie_falls_back_to_id(self):
        center = seg("c", (0, 0))
        band = [seg("b", (0, 1)), seg("a", (1, 0))]
        assert [s.id for s in band_order(band, center)] == ["a", "b"]


class TestScheduleAwareCluster:
    def test_zero_tolerances_reduce_to_radial(self):
        pool = line_segments(range(6))
        refined, refined_trace = schedule_aware_cluster(pool, pool[0], "3.00", "0.00", "0.00")
        plain, plain_trace = radial_neighbor_clustering(pool, pool[0], "3.00")
        assert refined == plain
        assert refined_trace == plain_trace

    def test_skip_mode_is_not_reduced_at_zero_tolerances(self):
        # skipping applies only to the band, which zero tolerances leave empty
        pool = [
            seg("c", (0, 0), cost="1.00"),
            seg("big", (1, 0), cost="5.00"),
            seg("small", (2, 0), cost="1.00"),
        ]
        refined, _ = schedule_aware_cluster(
            pool, pool[0], "2.50", "0.00", "0.00", skip_mode=True
        )
        plain, _ = radial_neighbor_clustering(pool, pool[0], "2.50", skip_mode=True)
        assert refined.member_ids == ("c",)
        assert plain.member_ids == ("c", "small")

    def test_earlier_year_beats_nearer_point(self):
        # band has room for exactly one more unit; the farther point with the
        # earlier scheduled year must win it
        pool = [
            seg("c", (0, 0), year=2019, years=[2018, 2019, 2020]),
            seg("fill", (1, 0), year=2019, years=[2018, 2019, 2020]),
            seg("near-later", (2, 0), year=2020, years=[2018, 2019, 2020]),
            seg("far-earlier", (3, 0), year=2018, years=[2018, 2019, 2020]),
        ]
        cluster, _ = schedule_aware_cluster(pool, pool[0], "3.00", "1.00", "1.00")
        assert "far-earlier" in cluster.member_ids
        assert "near-later" not in cluster.member_ids
        assert cluster.realized_cost == Decimal("3.00")

    def test_full_inner_cluster_blocks_band(self):
        pool = [
            seg("c", (0, 0), cost="2.00"),
            seg("a", (1, 0), cost="1.00"),
            seg("b", (2, 0), cost="1.00"),
        ]
        # inner cap 3.00 already uses the whole nominal budget
        cluster, _ = schedule_aware_cluster(pool, pool[0], "3.00", "0.00", "2.00")
        assert cluster.member_ids == ("c", "a")
        assert cluster.realized_cost == Decimal("3.00")

    def test_heavy_center_is_flagged_singleton(self):
        pool = [seg("c", (0, 0), cost="6.00"), seg("n", (1, 0))]
        cluster, trace = schedule_aware_cluster(pool, pool[0], "5.00", "1.00", "1.00")
        assert cluster.member_ids == ("c",)
        assert trace.stop_reason == STOP_CENTER_EXCEEDS_BUDGET

    def test_skip_mode_applies_to_band_admission(self):
        years = [2018, 2019]
        pool = [
            seg("c", (0, 0), year=2019, years=years),
            seg("f", (1, 0), year=2019, years=years),
            seg("big-early", (2, 0), year=2018, cost="2.00", years=years),
            seg("small-late", (3, 0), year=2019, years=years),
        ]
        prefix, _ = schedule_aware_cluster(pool, pool[0], "3.00", "1.00", "2.00")
        assert prefix.member_ids == ("c", "f")
        packed, _ = schedule_aware_cluster(
            pool, pool[0], "3.00", "1.00", "2.00", skip_mode=True
        )
        assert packed.member_ids == ("c", "f", "small-late")

    @pytest.mark.parametrize("center_cost", ["1.00", "6.00"])
    def test_one_radial_walk_builds_the_band(self, center_cost, monkeypatch):
        # the walk to cap + e_h is the outer cluster, flagged center or not
        walks, bands = [], []

        def spy(inner, calls):
            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                calls.append(result)
                return result
            return wrapper

        monkeypatch.setattr(
            paveplan.refine, "radial_neighbor_clustering",
            spy(radial_neighbor_clustering, walks),
        )
        monkeypatch.setattr(paveplan.refine, "build_tolerance_band", spy(build_tolerance_band, bands))
        pool = line_segments(range(6))
        pool[0] = seg("s0", (0, 0), cost=center_cost)
        schedule_aware_cluster(pool, pool[0], "5.00", "1.00", "1.00")
        assert len(walks) == len(bands) == 1
        assert bands[0].high_cluster == walks[0][0]
        assert walks[0][0].budget == Decimal("6.00")

    def test_outer_cap_past_the_money_limit_names_the_year(self):
        pool = line_segments(range(3))
        with pytest.raises(ValueError, match=r"^year 2021: budget \+ e_h 1000000000000000000.00 "):
            schedule_aware_cluster(pool, pool[0], "999999999999999999.00", "0.00", "1.00", year=2021)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60)
    def test_sandwich_and_cap(self, trial_seed):
        rng = random.Random(trial_seed)
        pool = random_segments(rng, rng.randint(1, 40), years=(2018, 2019, 2020))
        center = pool[rng.randrange(len(pool))]
        cap = Decimal(rng.randint(200, 60000)) / 100
        low = Decimal(rng.randint(0, int(cap * 100) - 1)) / 100
        high = Decimal(rng.randint(0, 30000)) / 100
        band = build_tolerance_band(pool, center, cap, low, high)
        cluster, trace = schedule_aware_cluster(pool, center, cap, low, high)
        members = set(cluster.member_ids)
        if trace.stop_reason == STOP_CENTER_EXCEEDS_BUDGET:
            assert members == {center.id}
        else:
            assert set(band.low_cluster.member_ids) <= members
            assert members <= set(band.high_cluster.member_ids)
            assert cluster.realized_cost <= cap


class TestScheduleAwarePlan:
    def test_reproduces_aligned_schedule(self):
        # two blobs already scheduled by geography with exact budgets: the
        # plan is a fixed point (the east blob holds the first plan year)
        east = [
            seg("e1", (100, 0), year=2018, years=[2018, 2019]),
            seg("e2", (101, 0), year=2018, years=[2018, 2019]),
        ]
        west = [
            seg("w1", (0, 0), year=2019, years=[2018, 2019]),
            seg("w2", (1, 0), year=2019, years=[2018, 2019]),
        ]
        plan = schedule_aware_plan(east + west, schedule([2, 2]), 0)
        assert set(plan.clusters[0].member_ids) == {"e1", "e2"}
        assert set(plan.clusters[1].member_ids) == {"w1", "w2"}
        assert plan.unassigned_ids == ()

    def test_admission_uses_cluster_year_cost(self):
        far = seg("far", (100, 0), year=2018, cost="5.00", years=[2018, 2019])
        moved = Segment(
            id="moved",
            coords=(0.0, 0.0),
            cost_by_year={2018: Decimal("10.00"), 2019: Decimal("12.00")},
            scheduled_year=2018,
        )
        near = seg("near", (1, 0), year=2019, cost="3.00", years=[2018, 2019])
        sched = schedule(["6.00", "15.00"])
        plan = schedule_aware_plan([far, moved, near], sched, 0)
        year_2019 = plan.clusters[1]
        assert set(year_2019.member_ids) == {"moved", "near"}
        assert year_2019.realized_cost == Decimal("15.00")  # 12 + 3, not 10 + 3
        assert oracle_cluster_cost(year_2019, [far, moved, near]) == year_2019.realized_cost

    def test_single_year_single_segment(self):
        plan = schedule_aware_plan([seg("a", (0, 0))], schedule([1]), 0)
        assert len(plan.clusters) == 1
        assert plan.clusters[0].member_ids == ("a",)
        assert plan.unassigned_ids == ()

    @pytest.mark.parametrize(
        "driver", [schedule_aware_plan, landmark_based_radial_clustering]
    )
    def test_inputs_checked_without_schedule_entries(self, driver):
        with pytest.raises(ValueError, match="must not be empty"):
            driver([], BudgetSchedule(()), 0)
        with pytest.raises(ValueError, match="axis 2 out of range"):
            driver([seg("a", (0, 0))], BudgetSchedule(()), 2)

    def test_strict_mode_raises(self):
        segments = [seg("a", (0, 0), cost="1.00")]
        with pytest.raises(ValidationFailedError):
            schedule_aware_plan(segments, schedule([5]), 0, strict=True)

    def test_loose_mode_carries_issues_as_diagnostics(self):
        segments = [seg("a", (0, 0), cost="1.00")]
        plan = schedule_aware_plan(segments, schedule([5]), 0)
        assert "conservation_mismatch" in [d.code for d in plan.diagnostics]

    def test_validation_diagnostics_carry_code_message_and_year(self):
        # the center a costs more than the budget, so no walk measures the
        # three-dimensional b and the plan is built despite the mismatch
        segments = [
            seg("a", (5, 0), cost="5.00"),
            seg("b", (1, 0, 0), cost="2.00"),
        ]
        plan = schedule_aware_plan(segments, schedule([2]), 0)
        validation = [
            (d.code, d.message, d.year, d.segment_ids) for d in plan.diagnostics[:2]
        ]
        assert validation == [
            ("dimension_mismatch", "segment b has 3 coordinates, expected 2", None, ()),
            ("conservation_mismatch",
             "total scheduled cost 7.00 deviates from total budget 2.00 by 5.00",
             None, ()),
        ]
        assert [d.code for d in plan.diagnostics[2:]] == [
            "over_budget_singleton", "unassigned_remainder"
        ]

    def test_realized_cost_recomputes_exactly_with_grown_costs(self):
        for trial_seed in range(10):
            segments, sched = synthesize_dataset(
                40, 3, (2018, 2019, 2020), seed=trial_seed, growth_rate=0.07,
                tolerance_fraction=0.1,
            )
            plan = schedule_aware_plan(segments, sched, 0)
            for cluster in plan.clusters:
                assert oracle_cluster_cost(cluster, segments) == cluster.realized_cost

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=30, deadline=None)
    def test_zero_tolerance_flat_costs_match_landmark(self, trial_seed):
        rng = random.Random(trial_seed)
        segments, sched = synthesize_dataset(
            rng.randint(3, 40), rng.randint(1, 3), (2018, 2019, 2020), trial_seed
        )
        assert schedule_aware_plan(segments, sched, 0) == landmark_based_radial_clustering(
            segments, sched, 0
        )


def test_plan_bytes_at_14400_segments():
    # the largest scale the benchmark leaves out, pinned on every supported
    # Python: center search prunes on math.dist's accuracy there
    segments, sched = synthesize_dataset(
        14400, 11, range(2018, 2023), 1, tolerance_fraction=0.05
    )
    plan = schedule_aware_plan(segments, sched)
    text = emit_plan(plan, compute_metrics(plan, sched, segments), sched, segments)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "02f04a3468c8ed33302b194f4fafb6ee4cb857535340d3ed19deca4be7149509"
    )


@pytest.mark.parametrize(
    "build",
    [
        radial_neighbor_clustering,
        lambda pool, center, cap: schedule_aware_cluster(pool, center, cap, "0.00", "0.00"),
    ],
    ids=["radial", "schedule"],
)
def test_builders_take_any_iterable_pool(build):
    # a plain iterable is read once, into the pool every walk streams from
    pool = line_segments([3, 0, 2, 1])
    cluster, _ = build(iter(pool), pool[1], "3.00")
    assert cluster.member_ids == ("s0", "s1", "s2")


def test_engine_modules_meet_at_one_seam():
    # refine builds one cluster around a given center and radial drives the
    # plans over it: imports between the two run one way, by public names only
    imported = []  # (importing module, source module, name)
    for path in sorted(Path(paveplan.refine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.removeprefix("paveplan.")
                if source in ("radial", "refine"):
                    imported += [(path.stem, source, alias.name) for alias in node.names]
    assert [entry for entry in imported if entry[0] == "refine" and entry[1] == "radial"] == []
    assert [entry for entry in imported if entry[2].startswith("_")] == []
    assert ("radial", "refine", "radial_neighbor_clustering") in imported
