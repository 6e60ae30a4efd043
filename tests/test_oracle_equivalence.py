"""The brute-force oracles vs the engine, on the documented fixed cases.

The large randomized equivalence harnesses (1000+ seeded trials) live in
test_acceptance.py; this module pins down the oracle semantics themselves,
and replays the landmark drivers' year-by-year center choices and the
baseline plan's medoids against them. It also checks a property that no
oracle states: scaling every coordinate by a power of two changes no plan.
"""

import math
import random
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from paveplan.geometry import ClusterBalls, furthest_point_from_cluster
from paveplan.metrics import compute_metrics, plan_from_schedule
from paveplan.radial import landmark_based_radial_clustering, main_algorithm, schedule_aware_plan
from paveplan.model import Cluster, Segment
from paveplan.refine import radial_neighbor_clustering
from paveplan.synth import synthesize_dataset

from helpers import as_walked, line_segments, random_schedule, random_segments, seg
from oracles import (
    oracle_cluster_cost,
    oracle_furthest_point,
    oracle_medoid,
    oracle_prefix_cluster,
)


class TestOracleClusterCost:
    def test_singleton(self):
        s = seg("a", (0, 0), cost="7.50")
        c = Cluster(2018, "a", ("a",), "7.50", "10.00")
        assert oracle_cluster_cost(c, [s]) == Decimal("7.50")

    def test_sum(self):
        segments = [
            seg("a", (0, 0), cost="1.00"),
            seg("b", (1, 0), cost="2.00"),
            seg("c", (2, 0), cost="3.00"),
        ]
        c = Cluster(2018, "a", ("a", "b", "c"), "6.00", "10.00")
        assert oracle_cluster_cost(c, segments) == Decimal("6.00")

    def test_uses_cluster_year_not_scheduled_year(self):
        s = Segment(
            id="a",
            coords=(0.0, 0.0),
            cost_by_year={2018: Decimal("10.00"), 2019: Decimal("12.00")},
            scheduled_year=2018,
        )
        c = Cluster(2019, "a", ("a",), "12.00", "20.00")
        assert oracle_cluster_cost(c, [s]) == Decimal("12.00")


def test_oracle_prefix_on_line():
    pool = line_segments(range(5))
    assert oracle_prefix_cluster(pool, pool[0], Decimal("2.50")) == ["s0", "s1"]


def test_oracle_prefix_heavy_center():
    pool = [seg("c", (0, 0), cost="9.00"), seg("n", (1, 0))]
    assert oracle_prefix_cluster(pool, pool[0], Decimal("5.00")) == ["c"]


def test_oracle_prefix_matches_engine_on_examples():
    pool = line_segments([0, 1, 2, 3, 10])
    for cap in ("0.50", "1.00", "2.50", "3.50", "99.00"):
        cluster, _ = radial_neighbor_clustering(pool, pool[0], cap, year=2018)
        assert set(cluster.member_ids) == set(oracle_prefix_cluster(pool, pool[0], Decimal(cap)))


def test_oracle_furthest_mirrors_engine_examples():
    candidates = [seg("near", (1, 0)), seg("far", (5, 0))]
    assert oracle_furthest_point(candidates, [(0.0, 0.0)]) == "far"
    tied = [seg("first", (2, 0)), seg("second", (-2, 0))]
    assert oracle_furthest_point(tied, [(0.0, 0.0)]) == "first"


def test_oracle_furthest_single_candidate():
    assert oracle_furthest_point([seg("only", (3, 3))], [(0.0, 0.0)]) == "only"


def test_oracle_furthest_randomized_spot_check():
    rng = random.Random(99)
    for _ in range(200):
        segments = random_segments(rng, rng.randint(1, 30))
        clustered = [
            (rng.uniform(0, 10000), rng.uniform(0, 10000))
            for _ in range(rng.randint(1, 6))
        ]
        engine = furthest_point_from_cluster(segments, ClusterBalls([as_walked(clustered)]))
        assert engine.id == oracle_furthest_point(segments, clustered)


def _grid_dataset(rng):
    """Integer-grid points, so equal distances and coincident points occur."""
    years = list(range(2018, 2018 + rng.randint(1, 30)))
    segments = [
        seg(
            f"g{i:03d}",
            (rng.randint(0, 8), rng.randint(0, 8)),
            cost=Decimal(rng.randint(50, 300)) / 100,
            year=rng.choice(years),
            years=years,
        )
        for i in range(rng.randint(1, 80))
    ]
    return segments, random_schedule(rng, years, max_budget_cents=1000, with_tolerances=True)


@pytest.mark.parametrize("driver", [landmark_based_radial_clustering, schedule_aware_plan])
@pytest.mark.parametrize("trial", range(40))
def test_landmark_centers_match_oracle_every_year(driver, trial):
    rng = random.Random(60_000 + trial)
    segments, sched = _grid_dataset(rng)
    plan = driver(segments, sched, 0)
    by_id = {s.id: s for s in segments}
    assigned: set[str] = set()
    assigned_coords = []
    for cluster in plan.clusters:
        if cluster.center_id is None:
            continue  # the pool ran dry
        if assigned_coords:
            remaining = [s for s in segments if s.id not in assigned]
            assert cluster.center_id == oracle_furthest_point(remaining, assigned_coords)
        assigned.update(cluster.member_ids)
        assigned_coords.extend(by_id[sid].coords for sid in cluster.member_ids)


@pytest.mark.parametrize("trial", range(40))
def test_baseline_medoids_match_oracle(trial):
    rng = random.Random(70_000 + trial)
    segments, sched = _grid_dataset(rng)
    # out of id order, so a tie on the total is settled by id, not position
    rng.shuffle(segments)
    plan = plan_from_schedule(segments, sched)
    for cluster in plan.clusters:
        members = [s for s in segments if s.scheduled_year == cluster.year]
        assert cluster.member_ids == tuple(s.id for s in members)
        expected = oracle_medoid(members) if members else None
        assert cluster.center_id == expected


def _synth_dataset(rng):
    years = range(2018, 2018 + rng.randint(1, 4))
    n = rng.randint(len(years), 60)
    return synthesize_dataset(
        n, rng.randint(1, min(n, 3)), years, rng.randrange(1000), tolerance_fraction=0.05
    )


PLANNERS = {
    "random": lambda segments, sched: main_algorithm(segments, sched, 3),
    "landmark": lambda segments, sched: landmark_based_radial_clustering(segments, sched, 0),
    "schedule": lambda segments, sched: schedule_aware_plan(segments, sched, 0),
    "baseline": plan_from_schedule,
}


def _dispersions(metrics):
    figures = [metrics.overall.weighted_mean_dispersion]
    for year in metrics.per_year:
        figures += [year.mean_member_distance_to_center, year.mean_pairwise_distance]
    return figures


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([_synth_dataset, _grid_dataset]),
    st.integers(0, 2**32 - 1),
    st.integers(-900, 900),
)
@example(_synth_dataset, 0, 900)
@example(_grid_dataset, 0, -900)
def test_plans_are_exact_under_power_of_two_scaling(dataset, seed, k):
    # math.dist and left-to-right sums commute exactly with scaling by 2**k
    # away from overflow and subnormals, and the margins only prune less
    # (their absolute terms weigh most when k is small), so no pick may move
    segments, sched = dataset(random.Random(seed))
    scaled = [
        Segment(s.id, tuple(math.ldexp(c, k) for c in s.coords), s.cost_by_year, s.scheduled_year)
        for s in segments
    ]
    for name, planner in PLANNERS.items():
        plan = planner(segments, sched)
        assert planner(scaled, sched) == plan, name
        expected = [math.ldexp(d, k) for d in _dispersions(compute_metrics(plan, sched, segments))]
        assert _dispersions(compute_metrics(plan, sched, scaled)) == expected, name
