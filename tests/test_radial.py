import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from paveplan.io_formats import emit_plan, input_digest, parse_plan_document
from paveplan.metrics import compute_metrics
from paveplan.model import ZERO
from paveplan.radial import (
    landmark_based_radial_clustering,
    main_algorithm,
    schedule_aware_plan,
    select_initial_center,
)
from paveplan.refine import (
    STOP_BUDGET_REACHED,
    STOP_CENTER_EXCEEDS_BUDGET,
    STOP_DATA_EXHAUSTED,
    radial_neighbor_clustering,
)
from paveplan.synth import synthesize_dataset

from helpers import line_segments, random_segments, random_schedule, schedule, seg
from oracles import oracle_prefix_cluster


class TestRadialNeighborClustering:
    def test_prefix_walk_on_line(self):
        pool = line_segments([0, 1, 2, 3, 10])
        cluster, trace = radial_neighbor_clustering(pool, pool[0], "3.50")
        assert cluster.member_ids == ("s0", "s1", "s2")
        assert cluster.realized_cost == Decimal("3.00")
        assert trace.stop_reason == STOP_BUDGET_REACHED
        assert [cum for _, cum in trace.admitted] == [
            Decimal("1.00"),
            Decimal("2.00"),
            Decimal("3.00"),
        ]

    def test_center_at_cap_is_flagged_singleton(self):
        pool = [seg("c", (0, 0), cost="5.00"), seg("n", (1, 0), cost="1.00")]
        cluster, trace = radial_neighbor_clustering(pool, pool[0], "5.00")
        assert cluster.member_ids == ("c",)
        assert trace.stop_reason == STOP_CENTER_EXCEEDS_BUDGET
        assert cluster.realized_cost == Decimal("5.00")

    def test_lone_center_exhausts_data(self):
        pool = [seg("c", (0, 0), cost="1.00")]
        cluster, trace = radial_neighbor_clustering(pool, pool[0], "10.00")
        assert cluster.member_ids == ("c",)
        assert trace.stop_reason == STOP_DATA_EXHAUSTED

    def test_center_not_in_pool(self):
        pool = line_segments([0, 1])
        with pytest.raises(ValueError):
            radial_neighbor_clustering(pool, seg("z", (9, 9)), "1.00")

    @pytest.mark.parametrize("cap", ["1.00", "100.00"])
    def test_walk_refuses_a_center_outside_the_pool(self, cap):
        # at 1.00 the center is flagged and no candidate is read: the
        # center is still looked for before anything is admitted
        pool = line_segments([0, 1])
        center = seg("z", (9, 9), cost="5.00")
        with pytest.raises(ValueError, match="'z' is not in the segment list"):
            radial_neighbor_clustering(pool, center, Decimal(cap), year=2018)

    def test_walk_admits_the_pool_segments_nearest_first(self):
        pool = line_segments([3, 0, 2, 1])
        _, trace = radial_neighbor_clustering(pool, pool[1], Decimal("3.00"), year=2018)
        assert [s.id for s, _ in trace.admitted] == ["s0", "s1", "s2"]
        assert all(any(s is p for p in pool) for s, _ in trace.admitted)
        assert trace.stop_reason == STOP_BUDGET_REACHED

    def test_nonpositive_budget(self):
        pool = line_segments([0])
        with pytest.raises(ValueError):
            radial_neighbor_clustering(pool, pool[0], "0.00")

    def test_skip_mode_packs_past_first_miss(self):
        pool = [
            seg("c", (0, 0), cost="1.00"),
            seg("big", (1, 0), cost="5.00"),
            seg("small", (2, 0), cost="1.00"),
        ]
        prefix, trace = radial_neighbor_clustering(pool, pool[0], "2.50")
        assert prefix.member_ids == ("c",)
        assert trace.stop_reason == STOP_BUDGET_REACHED
        packed, trace = radial_neighbor_clustering(pool, pool[0], "2.50", skip_mode=True)
        assert packed.member_ids == ("c", "small")
        assert trace.stop_reason == STOP_BUDGET_REACHED

    def test_cumulative_costs_strictly_increase(self):
        rng = random.Random(7)
        pool = random_segments(rng, 30)
        cluster, trace = radial_neighbor_clustering(pool, pool[3], "400.00")
        cums = [cum for _, cum in trace.admitted]
        assert all(a < b for a, b in zip(cums, cums[1:]))
        assert cums[-1] == cluster.realized_cost

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60)
    def test_matches_prefix_oracle(self, trial_seed):
        rng = random.Random(trial_seed)
        pool = random_segments(rng, rng.randint(1, 40))
        center = pool[rng.randrange(len(pool))]
        cap = Decimal(rng.randint(1, 60000)) / 100
        cluster, _ = radial_neighbor_clustering(pool, center, cap)
        assert set(cluster.member_ids) == oracle_prefix_cluster(pool, center, cap)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60)
    def test_monotone_budgets(self, trial_seed):
        rng = random.Random(trial_seed)
        pool = random_segments(rng, rng.randint(1, 30))
        center = pool[rng.randrange(len(pool))]
        small = Decimal(rng.randint(1, 30000)) / 100
        big = small + Decimal(rng.randint(0, 30000)) / 100
        small_cluster, _ = radial_neighbor_clustering(pool, center, small)
        big_cluster, _ = radial_neighbor_clustering(pool, center, big)
        if small_cluster.realized_cost <= small:  # skip flagged-singleton caps
            assert set(small_cluster.member_ids) <= set(big_cluster.member_ids)


class TestSelectInitialCenter:
    def test_max_x(self):
        segments = [seg("a", (0, 0)), seg("b", (5, 1)), seg("c", (3, 9))]
        assert select_initial_center(segments, 0).id == "b"

    def test_max_y(self):
        segments = [seg("a", (0, 0)), seg("b", (5, 1)), seg("c", (3, 9))]
        assert select_initial_center(segments, 1).id == "c"

    def test_tie_breaks_by_id(self):
        segments = [seg("b", (5, 0)), seg("a", (5, 9))]
        assert select_initial_center(segments, 0).id == "a"

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            select_initial_center([seg("a", (0, 0))], 2)


class TestMainAlgorithm:
    def test_single_segment_single_year(self):
        plan = main_algorithm([seg("a", (0, 0))], schedule([1]), seed=0)
        assert plan.clusters[0].member_ids == ("a",)
        assert plan.unassigned_ids == ()

    def test_four_points_two_even_budgets(self):
        segments = line_segments([0, 1, 2, 3], years=[2018, 2019])
        for trial_seed in range(12):
            plan = main_algorithm(segments, schedule([2, 2]), seed=trial_seed)
            assert [c.size for c in plan.clusters] == [2, 2]
            assert plan.unassigned_ids == ()

    def test_leftover_goes_unassigned_with_diagnostic(self):
        segments = line_segments([0, 10])
        plan = main_algorithm(segments, schedule([1]), seed=3)
        assert sum(c.size for c in plan.clusters) == 1
        assert len(plan.unassigned_ids) == 1
        assert "unassigned_remainder" in [d.code for d in plan.diagnostics]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            main_algorithm([], schedule([1]), seed=0)

    def test_same_seed_same_plan(self):
        rng = random.Random(11)
        segments = random_segments(rng, 40, years=(2018, 2019, 2020))
        sched = random_schedule(rng, (2018, 2019, 2020))
        assert main_algorithm(segments, sched, seed=5) == main_algorithm(
            segments, sched, seed=5
        )


class TestLandmarkClustering:
    def test_two_blobs_split_cleanly(self):
        years = [2018, 2019]
        blob_a = [seg("a1", (0, 0), years=years), seg("a2", (1, 0), years=years),
                  seg("a3", (0, 1), years=years)]
        blob_b = [seg("b1", (100, 0), years=years), seg("b2", (101, 0), years=years),
                  seg("b3", (100, 1), years=years)]
        plan = landmark_based_radial_clustering(blob_a + blob_b, schedule([3, 3]), 0)
        assert set(plan.clusters[0].member_ids) == {"b1", "b2", "b3"}
        assert set(plan.clusters[1].member_ids) == {"a1", "a2", "a3"}
        assert plan.unassigned_ids == ()

    def test_single_point(self):
        plan = landmark_based_radial_clustering([seg("a", (0, 0))], schedule([2]), 0)
        assert plan.clusters[0].member_ids == ("a",)

    def test_schedule_outlasts_data(self):
        plan = landmark_based_radial_clustering([seg("a", (0, 0))], schedule([1, 1]), 0)
        assert plan.clusters[0].member_ids == ("a",)
        assert plan.clusters[1].is_empty()
        assert "empty_cluster" in [d.code for d in plan.diagnostics]

    def test_over_budget_center_is_diagnosed(self):
        years = [2018, 2019]
        segments = [seg("a", (0, 0), cost="9.00", years=years), seg("b", (1, 0), years=years)]
        plan = landmark_based_radial_clustering(segments, schedule([2, 2]), 0)
        flagged = [d for d in plan.diagnostics if d.code == "over_budget_singleton"]
        assert flagged and flagged[0].segment_ids == ("a",)

    def test_deterministic(self):
        rng = random.Random(23)
        segments = random_segments(rng, 60, years=(2018, 2019, 2020))
        sched = random_schedule(rng, (2018, 2019, 2020))
        first = landmark_based_radial_clustering(segments, sched, 0)
        second = landmark_based_radial_clustering(segments, sched, 0)
        assert first == second

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40)
    def test_partition_property(self, trial_seed):
        rng = random.Random(trial_seed)
        segments = random_segments(rng, rng.randint(1, 50), years=(2018, 2019))
        sched = random_schedule(rng, (2018, 2019))
        plan = landmark_based_radial_clustering(segments, sched, 0)
        assigned = [sid for c in plan.clusters for sid in c.member_ids]
        everything = assigned + list(plan.unassigned_ids)
        assert sorted(everything) == sorted(s.id for s in segments)
        assert len(everything) == len(set(everything))

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40)
    def test_budget_feasibility_or_flag(self, trial_seed):
        rng = random.Random(trial_seed)
        segments = random_segments(rng, rng.randint(1, 50), years=(2018, 2019, 2020))
        sched = random_schedule(rng, (2018, 2019, 2020))
        plan = landmark_based_radial_clustering(segments, sched, 0)
        flagged_years = {
            d.year for d in plan.diagnostics if d.code == "over_budget_singleton"
        }
        for cluster in plan.clusters:
            assert cluster.realized_cost <= cluster.budget or cluster.year in flagged_years


ENGINES = {
    "random": lambda segments, sched: main_algorithm(segments, sched, seed=3),
    "landmark": lambda segments, sched: landmark_based_radial_clustering(segments, sched, 0),
    "schedule": lambda segments, sched: schedule_aware_plan(segments, sched, 0),
}


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_refuses_a_repeated_id(engine):
    # a plan keys its members by id: planned, the twin would vanish
    segments = [seg("a", (0, 0)), seg("a", (10, 0)), seg("b", (1, 0))]
    with pytest.raises(ValueError, match="^segment id 'a' appears more than once$"):
        ENGINES[engine](segments, schedule([3]))


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_prices_members_at_the_cluster_year(engine):
    # costs grow 5% a year, so a project moved off its scheduled year costs
    # more or less there; the plan document records that year's price
    segments, sched = synthesize_dataset(60, 3, (2018, 2019, 2020), 5, growth_rate=0.05)
    plan = ENGINES[engine](segments, sched)
    lookup = {s.id: s for s in segments}
    moved = 0
    for cluster in plan.clusters:
        members = [lookup[sid] for sid in cluster.member_ids]
        assert cluster.realized_cost == sum((s.cost_at(cluster.year) for s in members), ZERO)
        moved += sum(s.scheduled_year != cluster.year for s in members)
    assert moved
    text = emit_plan(plan, compute_metrics(plan, sched, segments), sched, segments, input_digest(engine))
    assert parse_plan_document(text).plan == plan
