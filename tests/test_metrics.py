import math
import random
from decimal import Decimal

import pytest

from paveplan.metrics import (
    compare_plans,
    compute_metrics,
    mean_pairwise_distance,
    plan_from_schedule,
)
from paveplan.model import Cluster, DimensionMismatchError, Plan, UnknownSegmentError
from paveplan.radial import landmark_based_radial_clustering

from helpers import random_segments, schedule, seg


def two_point_fixture():
    segments = [seg("a", (0, 0)), seg("b", (6, 0))]
    plan = Plan((Cluster(2018, "a", ("a", "b"), "2.00", "2.00"),))
    return segments, schedule([2]), plan


class TestComputeMetrics:
    def test_two_member_dispersion(self):
        segments, sched, plan = two_point_fixture()
        metrics = compute_metrics(plan, sched, segments)
        year = metrics.per_year[0]
        # center contributes 0, the other point 6: mean 3; one pair 6 apart
        assert year.mean_member_distance_to_center == 3.0
        assert year.mean_pairwise_distance == 6.0
        assert year.utilization == 1.0
        assert not year.over_budget

    def test_singleton_dispersion_is_zero(self):
        segments = [seg("a", (0, 0))]
        plan = Plan((Cluster(2018, "a", ("a",), "1.00", "2.00"),))
        metrics = compute_metrics(plan, schedule([2]), segments)
        assert metrics.per_year[0].mean_member_distance_to_center == 0.0
        assert metrics.per_year[0].mean_pairwise_distance == 0.0

    def test_pairwise_mean_is_one_left_to_right_sum(self):
        # the plan bytes depend on the summation order, so pin it exactly
        # mixed magnitudes: fsum() and a column-wise order give other floats
        rng = random.Random(0)
        segments = [
            seg(f"p{i}", (rng.choice([1e-3, 1.0, 1e6]) * rng.uniform(-1, 1), rng.uniform(-1, 1)))
            for i in range(25)
        ]
        ids = tuple(s.id for s in segments)
        cluster = Cluster(2018, ids[0], ids, "25.00", "25.00")
        total = 0.0
        for i, a in enumerate(segments):
            for b in segments[i + 1 :]:
                total += math.dist(a.coords, b.coords)
        lookup = {s.id: s for s in segments}
        assert mean_pairwise_distance(cluster, lookup) == total / 300

    def test_pairwise_mean_rejects_mixed_dimensions(self):
        segments = [seg("a", (0, 0)), seg("b", (1, 1)), seg("c", (1, 1, 1))]
        cluster = Cluster(2018, "a", ("a", "b", "c"), "3.00", "3.00")
        with pytest.raises(DimensionMismatchError):
            mean_pairwise_distance(cluster, {s.id: s for s in segments})

    def test_published_utilization(self):
        segments = [seg("a", (0, 0), cost="841152.51")]
        plan = Plan((Cluster(2018, "a", ("a",), "841152.51", "1374971.50"),))
        metrics = compute_metrics(plan, schedule(["1374971.50"]), segments)
        assert round(metrics.per_year[0].utilization, 4) == 0.6118

    def test_over_budget_utilization_flagged_not_clamped(self):
        segments = [seg("a", (0, 0), cost="3.00")]
        plan = Plan((Cluster(2018, "a", ("a",), "3.00", "2.00"),))
        metrics = compute_metrics(plan, schedule([2]), segments)
        assert metrics.per_year[0].utilization == 1.5
        assert metrics.per_year[0].over_budget

    def test_totals_are_exact_sums(self):
        rng = random.Random(4)
        years = (2018, 2019)
        segments = random_segments(rng, 30, years=years)
        sched = schedule(["400.00", "400.00"])
        plan = landmark_based_radial_clustering(segments, sched, 0)
        metrics = compute_metrics(plan, sched, segments)
        assert metrics.overall.total_cost == sum(
            (y.realized_cost for y in metrics.per_year), Decimal("0.00")
        )
        assert metrics.overall.total_budget == Decimal("800.00")
        assert metrics.unassigned_count == len(plan.unassigned_ids)

    def test_pure(self):
        segments, sched, plan = two_point_fixture()
        assert compute_metrics(plan, sched, segments) == compute_metrics(
            plan, sched, segments
        )

    def test_unknown_member_rejected(self):
        _, sched, plan = two_point_fixture()
        with pytest.raises(UnknownSegmentError):
            compute_metrics(plan, sched, [seg("a", (0, 0))])


class TestPlanFromSchedule:
    def test_partitions_by_scheduled_year(self):
        segments = [
            seg("a", (0, 0), year=2018, years=[2018, 2019]),
            seg("b", (9, 0), year=2019, years=[2018, 2019]),
            seg("c", (1, 0), year=2018, years=[2018, 2019]),
        ]
        plan = plan_from_schedule(segments, schedule([2, 1]))
        assert set(plan.clusters[0].member_ids) == {"a", "c"}
        assert plan.clusters[1].member_ids == ("b",)
        assert plan.clusters[0].realized_cost == Decimal("2.00")

    def test_medoid_center(self):
        segments = [
            seg("left", (0, 0), year=2018),
            seg("mid", (5, 0), year=2018),
            seg("right", (10, 0), year=2018),
        ]
        plan = plan_from_schedule(segments, schedule([3]))
        assert plan.clusters[0].center_id == "mid"

    def test_out_of_horizon_goes_unassigned(self):
        segments = [seg("a", (0, 0), year=2030, years=[2018])]
        plan = plan_from_schedule(segments, schedule([1]))
        assert plan.unassigned_ids == ("a",)
        assert plan.clusters[0].is_empty()


class TestComparePlans:
    def test_identity_comparison(self):
        segments, sched, plan = two_point_fixture()
        comparison = compare_plans(plan, plan, sched, segments)
        assert comparison.segments_moved == 0
        assert comparison.overall_dispersion_delta == 0.0
        assert dict(comparison.year_shift_histogram) == {}
        assert all(d.pairwise_delta == 0.0 for d in comparison.per_year)

    def test_merging_blobs_tightens_dispersion(self):
        # before: each year straddles both blobs; after: one blob per year
        years = [2018, 2019]
        blob_a = [seg(f"a{i}", (i, 0), year=years[i % 2], years=years) for i in range(4)]
        blob_b = [seg(f"b{i}", (100 + i, 0), year=years[(i + 1) % 2], years=years) for i in range(4)]
        segments = blob_a + blob_b
        sched = schedule([4, 4])
        before = plan_from_schedule(segments, sched)
        after = landmark_based_radial_clustering(segments, sched, 0)
        comparison = compare_plans(before, after, sched, segments)
        assert comparison.overall_dispersion_delta < 0

    def test_single_shift_histogram(self):
        segments = [
            seg("a", (0, 0), year=2019, years=[2018, 2019]),
            seg("b", (1, 0), year=2018, years=[2018, 2019]),
        ]
        sched = schedule([1, 1])
        before = plan_from_schedule(segments, sched)
        after = Plan(
            (
                Cluster(2018, "a", ("a", "b"), "2.00", "1.00"),
                Cluster(2019, None, (), "0.00", "1.00"),
            )
        )
        comparison = compare_plans(before, after, sched, segments)
        assert comparison.segments_moved == 1
        assert dict(comparison.year_shift_histogram) == {-1: 1}

    def test_universe_mismatch_rejected(self):
        segments, sched, plan = two_point_fixture()
        other = Plan((Cluster(2018, "a", ("a",), "1.00", "2.00"),))
        with pytest.raises(ValueError):
            compare_plans(plan, other, sched, segments)

    def test_two_blob_family_landmark_beats_split_assignment(self):
        # budgets sized one blob each; the geographic split must be tighter
        # than any schedule that spreads each blob across both years
        years = [2018, 2019]
        blob_a = [seg(f"a{i}", (i * 2, 0), year=years[i % 2], years=years) for i in range(4)]
        blob_b = [seg(f"b{i}", (200 + i * 2, 0), year=years[(i + 1) % 2], years=years) for i in range(4)]
        segments = blob_a + blob_b
        sched = schedule([4, 4])
        split = plan_from_schedule(segments, sched)
        grouped = landmark_based_radial_clustering(segments, sched, 0)
        split_metrics = compute_metrics(split, sched, segments)
        grouped_metrics = compute_metrics(grouped, sched, segments)
        assert (
            grouped_metrics.overall.weighted_mean_dispersion
            < split_metrics.overall.weighted_mean_dispersion
        )
