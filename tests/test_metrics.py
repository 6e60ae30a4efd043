import copy
import math
import pickle
import random
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from paveplan import metrics
from paveplan.cli import main
from paveplan.io_formats import load_budgets, load_segments
from paveplan.metrics import (
    PlanComparison,
    YearDispersionDelta,
    compare_plans,
    compute_metrics,
    mean_distance_to_center,
    mean_pairwise_distance,
    plan_from_schedule,
)
from paveplan.model import (
    BudgetSchedule,
    Cluster,
    DimensionMismatchError,
    PavePlanError,
    Plan,
    UnknownSegmentError,
)
from paveplan.radial import landmark_based_radial_clustering

from helpers import (
    NEAR_TIE_POINTS, SUBNORMAL_SPREADS, kernel_point_sets, random_segments, schedule, seg,
)
from oracles import oracle_cluster_cost, oracle_medoid


def two_point_fixture():
    segments = [seg("a", (0, 0)), seg("b", (6, 0))]
    plan = Plan((Cluster(2018, "a", ("a", "b"), "2.00", "2.00"),))
    return segments, schedule([2]), plan


class TestComputeMetrics:
    def test_overflowing_dispersion_names_the_year(self):
        # finite points 1.8e308 apart: their distance overflows to inf
        segments = [seg("a", (9e307, 0)), seg("b", (-9e307, 0)), seg("c", (0, 1))]
        plan = Plan(
            (
                Cluster(2018, "c", ("c",), "1.00", "1.00"),
                Cluster(2019, "a", ("a", "b"), "2.00", "2.00"),
            )
        )
        with pytest.raises(PavePlanError, match="^year 2019: "):
            compute_metrics(plan, schedule([1, 2]), segments)

    def test_overflowing_weighted_dispersion_names_the_year(self):
        # each mean is finite, but twice the second one is not
        segments = [seg("a", (9e307, 0)), seg("c", (0, 1))]
        plan = Plan((Cluster(2018, "a", ("a", "c"), "2.00", "2.00"),))
        with pytest.raises(PavePlanError, match="^year 2018: "):
            compute_metrics(plan, schedule([2]), segments)

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
        coords = [s.coords for s in segments]
        assert mean_pairwise_distance(cluster, coords) == total / 300

    def test_pairwise_mean_rejects_mixed_dimensions(self):
        segments = [seg("a", (0, 0)), seg("b", (1, 1)), seg("c", (1, 1, 1))]
        cluster = Cluster(2018, "a", ("a", "b", "c"), "3.00", "3.00")
        with pytest.raises(DimensionMismatchError):
            mean_pairwise_distance(cluster, [s.coords for s in segments])

    def test_center_mean_is_one_left_to_right_sum(self):
        # the 1.0s vanish into 1e16 one at a time; a compensated sum() (as on
        # Python >= 3.12) or fsum() keeps them and yields another float
        segments = [seg("c", (0, 0)), seg("far", (1e16, 0)), seg("u", (1, 0)), seg("v", (0, 1))]
        ids = tuple(s.id for s in segments)
        cluster = Cluster(2018, "c", ids, "4.00", "4.00")
        expected = ((0.0 + 1e16) + 1.0 + 1.0) / 4
        assert expected != math.fsum([0.0, 1e16, 1.0, 1.0]) / 4
        assert mean_distance_to_center(cluster, [s.coords for s in segments]) == expected

    def test_pairwise_mean_loses_what_a_compensated_sum_keeps(self):
        # the first row adds 1e16, then twenty 1.0s that vanish one at a time,
        # then 1e16 per later member; a compensated sum() keeps the 1.0s
        coords = [(0.0, 0.0), (1e16, 0.0)] + [(0.0, 1.0)] * 20
        distances = [1e16] + [1.0] * 20 + [1e16] * 20 + [0.0] * 190
        cluster = Cluster(2018, "p0", tuple(f"p{k}" for k in range(22)), "22.00", "22.00")
        expected = 0.0
        for d in distances:
            expected += d
        assert expected == 21e16 != math.fsum(distances)
        assert mean_pairwise_distance(cluster, coords) == expected / 231

    def test_center_mean_rejects_mixed_dimensions(self):
        segments = [seg("a", (0, 0)), seg("b", (1, 1)), seg("c", (1, 1, 1))]
        cluster = Cluster(2018, "a", ("a", "b", "c"), "3.00", "3.00")
        with pytest.raises(DimensionMismatchError):
            mean_distance_to_center(cluster, [s.coords for s in segments])

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


# Published five-year budget/cost pairs whose columns both total
# 21,311,945.11: the canonical conservation fixture.
PUBLISHED_ROWS = [
    (2018, "1047131.09", "1080947.98"),
    (2019, "7481612.12", "7742091.49"),
    (2020, "6551389.79", "6751923.97"),
    (2021, "4856840.61", "4895829.16"),
    (2022, "1374971.50", "841152.51"),
]
PUBLISHED_TOTAL = Decimal("21311945.11")


def _published_fixture():
    years = [row[0] for row in PUBLISHED_ROWS]
    sched = BudgetSchedule(
        tuple(
            schedule([budget], start_year=year).entries[0]
            for year, budget, _ in PUBLISHED_ROWS
        )
    )
    segments = [
        seg(f"city{year}", (float(i), 0.0), cost=cost, year=year, years=years)
        for i, (year, _, cost) in enumerate(PUBLISHED_ROWS)
    ]
    clusters = tuple(
        Cluster(year, f"city{year}", (f"city{year}",), Decimal(cost), Decimal(budget))
        for year, budget, cost in PUBLISHED_ROWS
    )
    return segments, sched, Plan(clusters)


class TestConservation:
    """A year's deviation is its ``realized_cost - budget``; the plan's is
    ``overall.total_deviation``, within tolerance when its magnitude is at
    most the schedule's ``conservation_tolerance``."""

    def test_published_rows_reproduce_deviations(self):
        segments, sched, plan = _published_fixture()
        metrics = compute_metrics(plan, sched, segments)
        recomputed = [
            oracle_cluster_cost(c, segments) - e.budget
            for c, e in zip(plan.clusters, sched.entries)
        ]
        deviations = [y.realized_cost - y.budget for y in metrics.per_year]
        assert recomputed == deviations == [
            Decimal("33816.89"),
            Decimal("260479.37"),
            Decimal("200534.18"),
            Decimal("38988.55"),
            Decimal("-533818.99"),
        ]
        overall = metrics.overall
        assert overall.total_budget == PUBLISHED_TOTAL
        assert overall.total_cost == PUBLISHED_TOTAL
        assert overall.total_deviation == Decimal("0.00")
        assert abs(overall.total_deviation) <= sched.conservation_tolerance

    def test_stored_and_recomputed_agree(self):
        segments, sched, plan = _published_fixture()
        metrics = compute_metrics(plan, sched, segments)
        assert [y.realized_cost for y in metrics.per_year] == [
            oracle_cluster_cost(c, segments) for c in plan.clusters
        ]

    def test_empty_plan_zero_budgets(self):
        sched = BudgetSchedule(())
        metrics = compute_metrics(Plan(()), sched, [])
        assert metrics.per_year == ()
        overall = metrics.overall
        assert overall.total_budget == Decimal("0.00")
        assert overall.total_cost == Decimal("0.00")
        assert overall.total_deviation == Decimal("0.00")
        assert abs(overall.total_deviation) <= sched.conservation_tolerance

    def test_exact_budget_has_zero_deviation(self):
        sched = schedule(["5.00"])
        plan = Plan((Cluster(2018, "a", ("a",), "5.00", "5.00"),))
        (year,) = compute_metrics(plan, sched, [seg("a", (0, 0), cost="5.00")]).per_year
        assert year.realized_cost - year.budget == Decimal("0.00")

    def test_misaligned_plan_rejected(self):
        sched = schedule(["5.00"])
        plan = Plan((Cluster(2020, "a", ("a",), "5.00", "5.00"),))
        with pytest.raises(ValueError, match="do not align with the schedule years"):
            compute_metrics(plan, sched, [seg("a", (0, 0), cost="5.00", year=2020)])


@st.composite
def _symmetric_point_sets(draw):
    """Points symmetric under x -> -x and y -> -y, in any order: a point's
    true total equals each mirror image's, while the float totals, added in
    member order, may differ by a rounding or not at all."""
    coordinate = st.integers(0, 40).map(float) | st.floats(0.0, 1e9)
    corners = draw(st.lists(st.tuples(coordinate, coordinate), min_size=5, max_size=40))
    points = [(sx * x, sy * y) for x, y in corners for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
    return draw(st.permutations(points))


RING = [
    (1000.0 * math.cos(2 * math.pi * k / 1440), 1000.0 * math.sin(2 * math.pi * k / 1440))
    for k in range(1440)
]


@settings(deadline=None)  # the oracle measures 1440² pairs of the ring
# past 16 points the medoid search splits the members into groups of at
# most max(16, 3 * isqrt(m)); 150 points make up to 8 of them
@given(kernel_point_sets(max_size=150))
@example([(1.0, 2.0)])
@example([(0.0, 0.0), (3.0, 4.0)])
@example([(1.5, -2.0)] * 30 + [(-0.0, 5e-324), (0.0, -0.0)])
@example([(9e307, 0.0), (-9e307, 0.0), (0.0, 1.0)] * 7)
@example([(5e-324,), (-5e-324,), (-0.0,), (1e16,), (1.0,), (1.0,)] * 5)
@example(RING)  # every total is equal
@example([(2.5, -1.0, 7.0)] * 200)  # every total is 0
@example([(3.0 * k % 101, 0.5 * (3.0 * k % 101)) for k in range(150)])  # collinear
# a tight cluster far from the origin: the group means round by more than
# the members' spread, and the margin must stop the pruning
@example([(1e15 + k % 13, 1e15 + k // 13) for k in range(200)])
@example([(4e15 + k % 20, 4e15 + k // 20) for k in range(200)])
# 3 * (max / 3) overflows, so every bound is inf and bounds nothing: read as
# 0, the tied totals are all measured; read as inf, the search stops at one
@example([(0.0,), (0.0,), (1.7976931348623157e308,)])
def test_medoid_is_the_least_total_distance(coords):
    # ids run against input order, so a tie does not go to the first member
    segments = [seg(f"p{len(coords) - k:04d}", c) for k, c in enumerate(coords)]
    (cluster,) = plan_from_schedule(segments, schedule([len(coords)])).clusters
    assert cluster.center_id == oracle_medoid(segments, dist=math.dist)


@settings(deadline=None)
@given(_symmetric_point_sets())
@example([(sx * 3.0, sy * 4.0) for sx in (1.0, -1.0) for sy in (1.0, -1.0)] * 5)
def test_medoid_breaks_mirror_ties_as_the_oracle(coords):
    # 20 to 160 points: always past the leaf size, so the grouped bound runs
    segments = [seg(f"p{len(coords) - k:04d}", c) for k, c in enumerate(coords)]
    (cluster,) = plan_from_schedule(segments, schedule([len(coords)])).clusters
    assert cluster.center_id == oracle_medoid(segments, dist=math.dist)


@settings(deadline=None)
@given(NEAR_TIE_POINTS)
def test_medoid_picks_near_ties_as_the_oracle(coords):
    segments = [seg(f"p{len(coords) - k:04d}", c) for k, c in enumerate(coords)]
    (cluster,) = plan_from_schedule(segments, schedule([len(coords)])).clusters
    assert cluster.center_id == oracle_medoid(segments, dist=math.dist)


# kernel_point_sets holds points 1.8e308 apart, whose distance overflows to inf
@given(
    NEAR_TIE_POINTS | SUBNORMAL_SPREADS | kernel_point_sets(max_size=150),
    st.sampled_from([1e16, -1e16, 0.5, 5e-324, -1.7976931348623157e308])
    | st.floats(allow_nan=False, allow_infinity=False).filter(bool),
)
@example([(0.0,), (1.0,)] * 20, 1e16)  # each 1.0 vanishes into the start
def test_distance_total_adds_left_to_right(coords, start):
    expected = start
    for b in coords:
        expected += math.dist(coords[0], b)
    assert metrics._distance_total(coords[0], coords, start).hex() == expected.hex()


# CPython's sum() adds floats left to right in C before 3.12 (gh-100425)
SUM_IN_ORDER = sys.implementation.name == "cpython" and sys.version_info < (3, 12)


def test_each_kernel_gives_the_pairwise_bits(monkeypatch):
    # mixed magnitudes, so that any other order of the additions shows;
    # the C sum is forced only where it adds in order
    rng = random.Random(11)
    coords = [
        (rng.choice([1e-3, 1.0, 1e16]) * rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(60)
    ]
    cluster = Cluster(2018, "p0", tuple(f"p{k}" for k in range(60)), "60.00", "60.00")
    expected = _oracle_figures(coords, 0)[1]
    kernels = [metrics._loop_total] + [metrics._sum_total] * SUM_IN_ORDER
    assert metrics._distance_total is kernels[-1]
    for kernel in kernels:
        monkeypatch.setattr(metrics, "_distance_total", kernel)
        assert mean_pairwise_distance(cluster, coords).hex() == expected.hex(), kernel


def test_distance_total_uses_sum_only_where_it_adds_in_order(monkeypatch):
    # CPython's sum() adds floats left to right in C before 3.12 and
    # compensates from 3.12 (gh-100425); no other order is documented
    summed = []
    monkeypatch.setattr(
        metrics, "sum", lambda *args: summed.append(args) or sum(*args), raising=False
    )
    assert metrics._distance_total((0.0,), [(1.0,), (3.0,)], 0.5) == 4.5
    in_order = sys.implementation.name == "cpython" and sys.version_info < (3, 12)
    assert bool(summed) == in_order


def _synth_1200_by_4(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(
        ["synth", "--n", "1200", "--blobs", "2", "--years", "2018:2021", "--seed", "3",
         "--out-segments", "s.csv", "--out-budgets", "b.csv"]
    ) == 0


def test_baseline_names_a_repeated_id():
    # the twins share a year, so one cluster would hold the id twice
    segments = [seg("a", (0, 0)), seg("a", (10, 0)), seg("b", (1, 0))]
    with pytest.raises(ValueError, match="^segment id 'a' appears more than once$"):
        plan_from_schedule(segments, schedule([3]))


def test_baseline_refuses_a_repeated_id_in_another_year():
    # a in 2018 and 2019 would be planned in both clusters
    segments = [seg("a", (0, 0), year=2018), seg("a", (10, 0), year=2019)]
    with pytest.raises(ValueError, match="^segment id 'a' appears more than once$"):
        plan_from_schedule(segments, schedule([1, 1]))


def test_medoid_search_measures_few_distances(tmp_path, monkeypatch):
    _synth_1200_by_4(tmp_path, monkeypatch)
    segments = load_segments(Path("s.csv").read_text())
    sched = load_budgets(Path("b.csv").read_text())
    calls = 0
    dist = math.dist

    def counting_dist(a, b):
        nonlocal calls
        calls += 1
        return dist(a, b)

    monkeypatch.setattr(math, "dist", counting_dist)
    plan_from_schedule(segments, sched)
    # with groups of at most max(16, isqrt(300)) = 17 members, 32 per year,
    # the search measured 41,400 distances here: 4 * 300 * 32 to groups and
    # 10 exact totals of 300; groups of at most 51 measure 15,600
    assert calls < 0.4 * 41_400


def test_baseline_measures_few_exact_totals(tmp_path, monkeypatch):
    _synth_1200_by_4(tmp_path, monkeypatch)
    sizes = Counter(s.scheduled_year for s in load_segments(Path("s.csv").read_text()))
    calls = pairwise_calls = 0
    dist = math.dist
    pairwise = metrics.mean_pairwise_distance
    distance_total = metrics._distance_total
    totals_over = []  # the member coordinates of each exact total

    def counting_dist(a, b):
        nonlocal calls
        calls += 1
        return dist(a, b)

    def counting_pairwise(cluster, coords):
        nonlocal pairwise_calls
        before = calls
        result = pairwise(cluster, coords)
        pairwise_calls += calls - before
        return result

    def recording_total(point, coords, *start):
        if not start:  # a pairwise row carries its running total as start
            totals_over.append(coords)
        return distance_total(point, coords, *start)

    monkeypatch.setattr(math, "dist", counting_dist)
    monkeypatch.setattr(metrics, "mean_pairwise_distance", counting_pairwise)
    monkeypatch.setattr(metrics, "_distance_total", recording_total)
    assert main(["baseline", "--segments", "s.csv", "--budgets", "b.csv", "--out", "p.json"]) == 0
    assert pairwise_calls == sum(m * (m - 1) // 2 for m in sizes.values())
    # per year, one list for the medoid search and one for the mean to center
    exact_totals = Counter(map(id, totals_over))
    assert len(exact_totals) == 2 * len(sizes)
    for coords in totals_over:
        assert exact_totals[id(coords)] < len(coords) / 10


def _oracle_figures(coords, center):
    """The mean distance to ``coords[center]`` and the mean pairwise
    distance of two or more points, each distance ``math.dist`` of the given
    values, added left to right from 0.0 by a plain double loop."""
    to_center = 0.0
    for b in coords:
        to_center += math.dist(coords[center], b)
    pairwise = 0.0
    for i, a in enumerate(coords):
        for b in coords[i + 1 :]:
            pairwise += math.dist(a, b)
    m = len(coords)
    return to_center / m, pairwise / (m * (m - 1) // 2)


class Coordinate(float):
    """A float subclass, as a caller's own point type may hold."""


def _check_figures(coords, center):
    """The year's figures that ``compute_metrics`` and ``compare_plans`` find
    for ``coords``, looked up by ids whose order runs against member order,
    against ``_oracle_figures``; returns the member coordinates that
    ``compute_metrics`` measures."""
    ids = tuple(f"p{len(coords) - k:03d}" for k in range(len(coords)))
    lookup = dict(zip(ids, coords))
    plan = Plan((Cluster(2018, ids[center], ids, "1.00", "1.00"),))
    before = Plan((Cluster(2018, ids[0], ids, "1.00", "1.00"),))
    (year,) = compute_metrics(plan, schedule([1]), lookup).per_year
    (delta,) = compare_plans(before, plan, schedule([1]), lookup).per_year
    to_center, pairwise = _oracle_figures(coords, center)
    figures = [
        year.mean_member_distance_to_center, year.mean_pairwise_distance,
        delta.center_delta, delta.pairwise_delta,
    ]
    expected = [to_center, pairwise, to_center - _oracle_figures(coords, 0)[0], 0.0]
    assert list(map(float.hex, figures)) == list(map(float.hex, expected))
    return metrics._member_coords(plan.clusters[0], lookup)


class TestMemberCoordinates:
    """``compute_metrics`` copies a year's float coordinates in member order
    before its O(m²) sums; every figure is the bits of the given values."""

    def test_points_allocated_in_shuffled_order(self):
        rng = random.Random(3)
        values = [(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)) for _ in range(300)]
        order = list(range(300))
        rng.shuffle(order)
        made = {k: tuple(float(repr(x)) for x in values[k]) for k in order}
        given = [made[k] for k in range(300)]
        copied = _check_figures(given, center=17)
        assert copied == given
        assert all(type(p) is tuple for p in copied)
        assert not any(c is g or c[0] is g[0] for c, g in zip(copied, given))

    @pytest.mark.parametrize(
        "kind",
        [int, Coordinate, Decimal, lambda v: -0.0 if v == 0 else float(v)],
        ids=["int", "float-subclass", "Decimal", "negative-zero"],
    )
    def test_coordinate_kinds(self, kind):
        rng = random.Random(5)
        given = [
            (kind(rng.randint(-50, 50)), kind(rng.randint(-50, 50)), kind(0)) for _ in range(40)
        ]
        copied = _check_figures(given, center=3)
        assert copied == given
        # only floats are copied: other values reach math.dist as given
        assert (copied[0] is given[0]) is (kind in (int, Coordinate, Decimal))
        signs = {math.copysign(1.0, p[2]) for p in copied}
        assert signs == {math.copysign(1.0, kind(0))}

    def test_zero_dimensional_points(self):
        assert _check_figures([()] * 4, center=2) == [()] * 4

    # each as raised before the member-order copy, type and message; the
    # center, the last member, is measured against each member in turn
    @pytest.mark.parametrize(
        "coords, error, message",
        [
            ([(0.0, 0.0), (1.0, 0.0)], UnknownSegmentError,
             "cluster 2018 references unknown segment 'p001'"),
            ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0, 1.0)], DimensionMismatchError,
             "points have dimensions 2 and 3"),
            ([(0.0, 0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], DimensionMismatchError,
             "points have dimensions 3 and 2"),
            ([(), (1.0,), ()], DimensionMismatchError, "points have dimensions 0 and 1"),
            ([(0.0, 0.0), (1.0, "x"), (1.0, 1.0)], TypeError, "must be real number, not str"),
            ([("x", 0.0), (0.0, 0.0, 0.0), (1.0, 1.0)], TypeError,
             "must be real number, not str"),
            ([(0.0, 0.0), None, (1.0, 1.0)], TypeError, "'NoneType' object is not iterable"),
            ([(0.0, 0.0), None, 5], TypeError, "'int' object is not iterable"),
            ([(0.0, 0.0), (10**400, 0.0), (1.0, 1.0)], OverflowError,
             "int too large to convert to float"),
        ],
        ids=["unknown", "mixed", "mixed-first", "mixed-zero", "str", "str-mixed", "none",
             "none-and-int", "big-int"],
    )
    def test_refusals_are_unchanged(self, coords, error, message):
        ids = ("p003", "p002", "p001")
        lookup = dict(zip(ids, coords))
        plan = Plan((Cluster(2018, ids[-1], ids, "1.00", "1.00"),))
        for run in (
            lambda: compute_metrics(plan, schedule([1]), lookup),
            lambda: compare_plans(plan, plan, schedule([1]), lookup),
        ):
            with pytest.raises(error) as raised:
                run()
            assert type(raised.value) is error and str(raised.value) == message


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

    def test_medoid_tie_goes_to_smaller_id(self):
        # two members: each total is the one distance between them
        segments = [seg("b", (0, 0)), seg("a", (3, 4))]
        plan = plan_from_schedule(segments, schedule([2]))
        assert plan.clusters[0].center_id == "a"

    def test_medoid_rejects_mixed_dimensions(self):
        segments = [seg("a", (0, 0)), seg("b", (1, 1)), seg("c", (1, 1, 1))]
        with pytest.raises(DimensionMismatchError):
            plan_from_schedule(segments, schedule([3]))

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

    def test_comparison_pickles_and_deep_copies(self):
        histogram = {-1: 1, 2: 1}
        comparison = PlanComparison((YearDispersionDelta(2018, -1.5, -3.0),), -1.5, 2, histogram)
        histogram[3] = 1  # the comparison holds a copy
        for twin in (copy.deepcopy(comparison), pickle.loads(pickle.dumps(comparison))):
            assert twin == comparison
            assert dict(twin.year_shift_histogram) == {-1: 1, 2: 1}
            with pytest.raises(TypeError):
                twin.year_shift_histogram[3] = 1

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
