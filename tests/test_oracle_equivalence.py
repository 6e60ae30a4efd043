"""The brute-force oracles vs the engine, on the documented fixed cases.

The large randomized equivalence harnesses (1000+ seeded trials) live in
test_acceptance.py; this module pins down the oracle semantics themselves,
and replays the landmark drivers' year-by-year center choices against them.
"""

import random
from decimal import Decimal

import pytest

from paveplan.geometry import furthest_point_from_cluster
from paveplan.radial import landmark_based_radial_clustering, radial_neighbor_clustering
from paveplan.refine import schedule_aware_plan

from helpers import line_segments, random_schedule, random_segments, seg
from oracles import oracle_furthest_point, oracle_prefix_cluster


def test_oracle_prefix_on_line():
    pool = line_segments(range(5))
    assert oracle_prefix_cluster(pool, pool[0], Decimal("2.50")) == {"s0", "s1"}


def test_oracle_prefix_heavy_center():
    pool = [seg("c", (0, 0), cost="9.00"), seg("n", (1, 0))]
    assert oracle_prefix_cluster(pool, pool[0], Decimal("5.00")) == {"c"}


def test_oracle_prefix_matches_engine_on_examples():
    pool = line_segments([0, 1, 2, 3, 10])
    for cap in ("0.50", "1.00", "2.50", "3.50", "99.00"):
        cluster, _ = radial_neighbor_clustering(pool, pool[0], cap)
        assert set(cluster.member_ids) == oracle_prefix_cluster(
            pool, pool[0], Decimal(cap)
        )


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
        engine = furthest_point_from_cluster(segments, clustered)
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
