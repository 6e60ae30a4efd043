import math
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from paveplan.geometry import (
    ClusterBalls,
    Pool,
    furthest_point_from_cluster,
    nearest_first,
    order_by_distance,
)
from paveplan.metrics import compute_metrics, plan_from_schedule
from paveplan.model import Cluster, DimensionMismatchError, Plan
from paveplan.radial import (
    landmark_based_radial_clustering, main_algorithm, schedule_aware_plan, select_initial_center,
)
from paveplan.refine import band_order, radial_neighbor_clustering

from helpers import (
    NEAR_TIE_POINTS,
    SUBNORMAL_SPREADS,
    kernel_point_sets,
    line_segments,
    random_segments,
    schedule,
    seg,
)
from oracles import oracle_furthest_point


def test_order_by_distance_and_band_order_dimension_mismatch():
    anchor, flat = seg("a", (0, 0)), seg("b", (0,))
    with pytest.raises(DimensionMismatchError):
        order_by_distance([anchor, flat], anchor)
    with pytest.raises(DimensionMismatchError):
        band_order([flat], anchor, year=2018)


def _one_cluster_plan(segments):
    ids = tuple(s.id for s in segments)
    return Plan((Cluster(2018, ids[0], ids, "5.00", "5.00"),))


# every call below measures every point; a budget of 5.00 admits all five
MIXED_DIMENSION_CALLS = {
    "nearest_first": lambda segs: list(nearest_first(segs, segs[0])),
    "order_by_distance": lambda segs: order_by_distance(segs, segs[0]),
    "main_algorithm": lambda segs: main_algorithm(segs, schedule([5]), seed=0),
    "landmark_based_radial_clustering": lambda segs: landmark_based_radial_clustering(
        segs, schedule([5])
    ),
    "schedule_aware_plan": lambda segs: schedule_aware_plan(segs, schedule([5])),
    "band_order": lambda segs: band_order(segs[1:], segs[0], year=2018),
    "compute_metrics": lambda segs: compute_metrics(_one_cluster_plan(segs), schedule([5]), segs),
    "plan_from_schedule": lambda segs: plan_from_schedule(segs, schedule([5])),
    # on axis 1 the odd point is one-dimensional: it has no coordinate there
    "select_initial_center-axis-1": lambda segs: select_initial_center(segs, 1),
    "landmark_based_radial_clustering-axis-1": lambda segs: landmark_based_radial_clustering(
        segs, schedule([5]), 1
    ),
    "schedule_aware_plan-axis-1": lambda segs: schedule_aware_plan(segs, schedule([5]), 1),
}


@pytest.mark.parametrize("odd", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("call", sorted(MIXED_DIMENSION_CALLS))
def test_mixed_dimensions_raise_dimension_mismatch(call, odd):
    # DimensionMismatchError is no ValueError, so math.dist's own error fails this
    on_axis_1 = call.endswith("-axis-1")
    segments = [seg(f"s{i}", (i, 1.0)) for i in range(5)]
    segments[odd] = seg(f"s{odd}", (odd,) if on_axis_1 else (odd, 1.0, 2.0))
    if on_axis_1 and odd == 0:  # the first point sets the dimension the axis must fit
        error, message = ValueError, "^axis 1 out of range for 1-dimensional data$"
    else:
        d = "[12]" if on_axis_1 else "[23]"
        error, message = DimensionMismatchError, f"points have dimensions {d} and {d}"
    with pytest.raises(error, match=message):
        MIXED_DIMENSION_CALLS[call](segments)


def test_order_by_distance_line():
    segments = [seg(f"s{x}", (x, 0)) for x in range(4)]
    ordering = order_by_distance(segments, segments[0])
    assert ordering.ordered_ids == ("s1", "s2", "s3")
    assert ordering.anchor_id == "s0"


def test_order_by_distance_tie_breaks_by_id():
    anchor = seg("o", (0, 0))
    segments = [anchor, seg("b", (1, 0)), seg("a", (0, 1))]
    assert order_by_distance(segments, anchor).ordered_ids == ("a", "b")


def test_order_by_distance_single_other():
    anchor = seg("o", (0, 0))
    other = seg("p", (5, 5))
    assert order_by_distance([anchor, other], anchor).ordered_ids == ("p",)


def test_order_by_distance_anchor_missing():
    with pytest.raises(ValueError):
        order_by_distance([seg("a", (0, 0))], seg("b", (1, 1)))


@st.composite
def _grid_pools(draw):
    # a small integer grid: many equal distances, and repeated points
    dimension = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 2)] * dimension)
    points = draw(st.lists(point, min_size=1, max_size=25))
    points += draw(st.lists(st.sampled_from(points), max_size=5))
    ids = draw(st.permutations([f"s{i:02d}" for i in range(len(points))]))
    segments = [seg(sid, coords) for sid, coords in zip(ids, points)]
    return segments, draw(st.sampled_from(segments))


@given(_grid_pools())
def test_nearest_first_is_the_sorted_order(pool):
    segments, anchor = pool
    expected = sorted(
        (math.dist(anchor.coords, s.coords), s.id) for s in segments if s is not anchor
    )
    streamed = list(nearest_first(segments, anchor))
    assert [s.id for s in streamed] == [sid for _, sid in expected]
    by_id = {s.id: s for s in segments}
    assert all(s is by_id[s.id] for s in streamed)  # the pool's own segments
    assert order_by_distance(segments, anchor).ordered_ids == tuple(
        sid for _, sid in expected
    )


@pytest.fixture
def measured(monkeypatch):
    """The second point of every ``math.dist`` call, in call order."""
    points = []
    dist = math.dist
    monkeypatch.setattr(math, "dist", lambda a, b: points.append(b) or dist(a, b))
    return points


# points at the float limit, whose gaps and distances overflow to inf
LIMIT_POINTS = st.lists(
    st.tuples(*[st.sampled_from([0.0, 9e307, -9e307, 1e308, -1e308, 1.7976931348623157e308,
                                 -1.7976931348623157e308])] * 2),
    min_size=2, max_size=20,
)
# subnormal spreads, and points whose distances overflow
EXTREME_POINTS = (SUBNORMAL_SPREADS | kernel_point_sets(max_size=40) | LIMIT_POINTS).filter(
    lambda points: len(points) > 1
)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 10),
    reason="math.dist is faithfully rounded from CPython 3.10",
)
@given(EXTREME_POINTS)
@example([(1.7976931348623157e308, 0.0), (-1.7976931348623157e308, 1.0)])
@example([(5e-324, 1e-323), (0.0, 0.0), (-5e-324, 5e-324)])
@example([(1e16, 1.0, 0.0), (0.0, 0.0, 1e-300)])
def test_a_distance_is_never_below_its_first_coordinate_gap(points):
    # the slab margin's argument (geometry module notes): no unmeasured point
    # is nearer than the computed gap, so the walk pops the same points with
    # the margin as without it
    for p in points:
        for q in points:
            assert math.dist(p, q) >= abs(p[0] - q[0]), (p, q)


def _streams_as_the_sorted_pool(points, data):
    # ids run against input order, so a tie does not go to the first point
    segments = [seg(f"p{len(points) - k:02d}", c) for k, c in enumerate(points)]
    anchor = data.draw(st.sampled_from(segments))
    expected = sorted(
        (s for s in segments if s is not anchor),
        key=lambda s: (math.dist(anchor.coords, s.coords), s.id),
    )
    assert [s.id for s in nearest_first(segments, anchor)] == [s.id for s in expected]


@given(NEAR_TIE_POINTS, st.data())
def test_nearest_first_orders_near_ties_as_the_sorted_pool(points, data):
    _streams_as_the_sorted_pool(points, data)


@given(EXTREME_POINTS, st.data())
def test_nearest_first_orders_extreme_spreads_as_the_sorted_pool(points, data):
    _streams_as_the_sorted_pool(points, data)


def test_nearest_first_measures_each_point_once_and_only_when_read(measured):
    segments = [seg(f"s{x}", (x, 0)) for x in range(6)]
    stream = nearest_first(segments, segments[2])
    assert measured == []
    assert next(stream).id == "s1"
    assert len(measured) == len(set(measured))
    assert [s.id for s in stream] == ["s3", "s0", "s4", "s5"]
    assert sorted(measured) == sorted(s.coords for s in segments if s is not segments[2])


def test_a_walk_measures_about_what_it_reads(measured):
    # only the slab the walk reaches is measured: the 10 members' and the
    # first misfit's ring, plus at most one point measured ahead
    pool = line_segments(range(1000))
    cluster, _ = radial_neighbor_clustering(pool, pool[500], "10.00", year=2018)
    assert cluster.size == 10
    assert len(measured) <= 10 + 1


def test_a_tie_at_the_slab_edge_goes_to_the_smaller_id():
    # b is measured first (|dx| = 3) at distance 5; a, unmeasured then, lies
    # at |dx| = 5 = its distance (dy = 0) and has the smaller id, so it must
    # come first: a pop test of h <= |dx| without a margin would yield b
    anchor = seg("o", (0, 0))
    pool = [anchor, seg("b", (-3, 4)), seg("a", (5, 0)), seg("c", (9, 0))]
    assert [s.id for s in nearest_first(pool, anchor)] == ["a", "b", "c"]


@st.composite
def _drains(draw):
    """A pool, walks with removals between them, and a row permutation."""
    dimension = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dimension), min_size=1, max_size=25))
    points += draw(st.lists(st.sampled_from(points), max_size=5))  # repeated points
    shape = draw(st.sampled_from(["grid", "column", "far"]))
    if shape == "column":  # one first coordinate: the slab prunes nothing
        points = [(7, *p[1:]) for p in points]
    elif shape == "far":  # unit steps on large offsets
        offset = draw(st.sampled_from([1e15, -3e15, 2.0**53, 1e17]))
        points = [tuple(offset + c for c in p) for p in points]
    n = len(points)
    ids = draw(st.permutations([f"s{i:02d}" for i in range(n)]))
    segments = [seg(sid, p) for sid, p in zip(ids, points)]
    walk = st.tuples(st.integers(0, 99), st.integers(0, 6))  # (anchor pick, ids taken)
    walks = draw(st.lists(walk, min_size=1, max_size=4))
    return segments, walks, draw(st.permutations(range(n)))


def _drain(segments, walks):
    """The ids each walk streams; after each walk its anchor's id and the
    first ``taken`` streamed ids leave the pool."""
    pool, streamed = Pool(segments), []
    for pick, taken in walks:
        live = list(pool)
        assert len(pool) == len(live)
        if not live:
            break
        anchor = sorted(live, key=lambda s: s.id)[pick % len(live)]
        stream = list(nearest_first(pool, anchor))
        alive = {id(s) for s in live}
        expected = sorted(
            (math.dist(anchor.coords, s.coords), s.id, k)
            for k, s in enumerate(segments)
            if id(s) in alive and s.id != anchor.id
        )
        assert len(stream) == len(expected)
        assert all(s is segments[k] for s, (_, _, k) in zip(stream, expected))
        streamed.append([s.id for s in stream])
        pool.remove([anchor.id, *streamed[-1][:taken]])
    return streamed


@given(_drains())
def test_nearest_first_is_the_sorted_order_through_a_drain(drain):
    segments, walks, order = drain
    streamed = _drain(segments, walks)
    assert _drain([segments[k] for k in order], walks) == streamed


def test_nearest_first_checks_the_anchor_before_any_read():
    with pytest.raises(ValueError, match="anchor 'b' is not in the segment list"):
        nearest_first([seg("a", (0, 0))], seg("b", (1, 1)))


def test_furthest_point_larger_distance_wins():
    x = [seg("near", (1, 0)), seg("far", (5, 0))]
    assert furthest_point_from_cluster(x, ClusterBalls([[(0.0, 0.0)]])).id == "far"


def test_furthest_point_tie_keeps_input_order():
    x = [seg("first", (2, 0)), seg("second", (-2, 0))]
    assert furthest_point_from_cluster(x, ClusterBalls([[(0.0, 0.0)]])).id == "first"


def test_furthest_point_degenerate_all_zero():
    x = [seg("a", (1, 1)), seg("b", (2, 2))]
    clustered = [(1.0, 1.0), (2.0, 2.0)]
    assert furthest_point_from_cluster(x, ClusterBalls([clustered])).id == "a"


def test_furthest_point_argument_roles_differ():
    # swapping the roles asks a different question, so answers may differ
    a = [seg("a1", (0, 0)), seg("a2", (10, 0))]
    b = [seg("b1", (4, 0))]
    from_b = furthest_point_from_cluster(a, ClusterBalls([[s.coords for s in b]]))
    from_a = furthest_point_from_cluster(b, ClusterBalls([[s.coords for s in a]]))
    assert from_b.id == "a2"
    assert from_a.id == "b1"


def test_furthest_point_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        furthest_point_from_cluster(
            [seg("a", (0, 0)), seg("b", (1, 1, 1))], ClusterBalls([[(0.0, 0.0)]])
        )
    with pytest.raises(DimensionMismatchError):
        furthest_point_from_cluster(
            [seg("a", (0, 0))], ClusterBalls([[(0.0, 0.0), (1.0, 1.0, 1.0)]])
        )
    with pytest.raises(DimensionMismatchError):
        furthest_point_from_cluster([seg("a", (0, 0, 0))], ClusterBalls([[(0.0, 0.0)]]))


def test_furthest_point_bounds_keep_shared_ids_apart():
    # a bound keyed by segment id would let "dup" far inherit "dup" near's
    near, far = seg("dup", (1, 0)), seg("dup", (10, 0))
    candidates = [near, seg("mid", (5, 0)), far]
    clustered = []
    balls = ClusterBalls()
    winners = []
    for point in [(0.0, 0.0), (3.0, 0.0), (9.0, 0.0), (1.0, 1.0)]:
        clustered.append(point)
        balls.add([point])
        winners.append(furthest_point_from_cluster(candidates, balls))
        assert winners[-1] is furthest_point_from_cluster(
            candidates, ClusterBalls([clustered])
        )
    assert winners[0] is far


def test_furthest_point_bounds_carry_over_a_growing_set():
    rng = random.Random(7)
    segments = [seg(f"g{i}", (rng.randint(0, 9), rng.randint(0, 9))) for i in range(40)]
    clustered = [(0.0, 0.0)]
    balls = ClusterBalls([clustered])
    while len(clustered) < 30:
        stateful = furthest_point_from_cluster(segments, balls)
        assert stateful is furthest_point_from_cluster(segments, ClusterBalls([clustered]))
        assert stateful.id == oracle_furthest_point(segments, clustered)
        group = [
            (float(rng.randint(0, 9)), float(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 3))
        ]
        clustered.extend(group)
        balls.add(group)
    assert len(balls) == len(clustered)


# (offsets, unit, dimensions): coordinates are offset + k * unit. On the
# integer grid distances tie and points coincide; around 1e7 one ulp apart
# every distance sits at the margin's absolute term; and in 1-D, points near
# -1e7, 0 and 1e7 tie or miss a tie by an ulp at distances of 1e7 and 2e7.
# Each is exact in math.dist and the oracle's sum of squares alike.
ULP = math.ulp(1e7)
SCALES = [((0.0,), 1.0, (1, 2, 3)), ((1e7,), ULP, (1, 2, 3)), ((-1e7, 0.0, 1e7), ULP, (1,))]


@st.composite
def grown_clusters(draw):
    offsets, unit, dimensions = draw(st.sampled_from(SCALES))
    coordinate = st.builds(
        lambda offset, k: offset + k * unit, st.sampled_from(offsets), st.integers(0, 4)
    )
    point = st.tuples(*[coordinate] * draw(st.sampled_from(dimensions)))
    candidates = draw(st.lists(point, min_size=1, max_size=30))
    groups = draw(st.lists(st.lists(point, min_size=1, max_size=8), min_size=1, max_size=6))
    return [seg(f"c{i}", p) for i, p in enumerate(candidates)], groups


@given(grown_clusters())
def test_carried_ball_search_matches_fresh_scan_and_oracle(case):
    candidates, groups = case
    balls = ClusterBalls()
    clustered = []
    for group in groups:
        # each year's cluster joins with its center first, as the drivers add it
        balls.add(group)
        clustered.extend(group)
        if not candidates:
            break
        stateful = furthest_point_from_cluster(candidates, balls)
        assert stateful is furthest_point_from_cluster(
            candidates, ClusterBalls([clustered])
        )
        assert stateful.id == oracle_furthest_point(candidates, clustered)
        candidates.remove(stateful)


def test_cluster_balls_refuse_non_finite_and_empty_groups():
    balls = ClusterBalls([[(0.0, 0.0)]])
    for bad in [(math.inf, 0.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            balls.add([(1.0, 1.0), bad])
    with pytest.raises(ValueError):
        balls.add([])
    with pytest.raises(DimensionMismatchError):
        balls.add([(1.0, 1.0, 1.0)])
    assert len(balls) == 1 and len(balls.balls) == 1


@pytest.mark.parametrize(
    "member, p",
    [
        ((0.7e308,), (0.8e308,)),  # dist(p, center) overflows to inf
        ((0.8e308,), (0.7e308,)),  # the member's radius overflows to inf
    ],
)
def test_overflowing_distances_are_measured_not_pruned(member, p):
    # p's true nearest member is 1e307 away: a margin of inf must not make
    # the member look out of reach
    center = (-1e308,)
    p, q = seg("p", p), seg("q", (0.0,))
    balls = ClusterBalls([[center, member]])
    winner = furthest_point_from_cluster([p, q], balls)
    plain = max([p, q], key=lambda s: min(math.dist(s.coords, c) for c in (center, member)))
    assert winner is plain is q


def test_subnormal_distances_keep_the_absolute_margin():
    # in units of the least subnormal every distance rounds to a whole unit:
    # the ball's radius sqrt(13) reads 4 and c0's distance to its center
    # sqrt(5) reads 2, so without the absolute margin the member (1, 3)
    # seems at least 2 from c0; it is sqrt(2) away, which reads 1
    unit = 2.0**-1074
    c0, c1 = seg("c0", (2 * unit, 2 * unit)), seg("c1", (3 * unit, 2 * unit))
    clustered = [(3 * unit, 0.0), (unit, 3 * unit)]
    winner = furthest_point_from_cluster([c0, c1], ClusterBalls([clustered]))
    plain = max([c0, c1], key=lambda s: min(math.dist(s.coords, c) for c in clustered))
    assert winner is plain is c1


def test_furthest_point_empty_inputs():
    with pytest.raises(ValueError):
        furthest_point_from_cluster([], ClusterBalls([[(0.0, 0.0)]]))
    with pytest.raises(ValueError):
        furthest_point_from_cluster([seg("a", (0, 0))], ClusterBalls())


@given(st.integers(min_value=0, max_value=10_000))
def test_ordering_properties(trial_seed):
    rng = random.Random(trial_seed)
    segments = random_segments(rng, rng.randint(2, 20))
    anchor = segments[rng.randrange(len(segments))]
    ordering = order_by_distance(segments, anchor)
    assert len(ordering.ordered_ids) == len(segments) - 1
    assert anchor.id not in ordering.ordered_ids
    by_id = {s.id: s for s in segments}
    dists = [math.dist(anchor.coords, by_id[sid].coords) for sid in ordering.ordered_ids]
    assert dists == sorted(dists)
    assert order_by_distance(segments, anchor) == ordering  # re-run bit-identical


@given(st.integers(min_value=0, max_value=10_000))
def test_furthest_point_maximality(trial_seed):
    rng = random.Random(trial_seed)
    segments = random_segments(rng, rng.randint(1, 25))
    clustered = [
        (rng.uniform(0, 10000), rng.uniform(0, 10000))
        for _ in range(rng.randint(1, 8))
    ]
    best = furthest_point_from_cluster(segments, ClusterBalls([clustered]))
    def min_linkage(point):
        return min(math.dist(member, point) for member in clustered)

    best_d = min_linkage(best.coords)
    for other in segments:
        assert best_d >= min_linkage(other.coords)
    assert best.id == oracle_furthest_point(segments, clustered)


@given(NEAR_TIE_POINTS, st.data())
def test_furthest_point_picks_near_ties_as_the_oracle(points, data):
    _picks_as_the_oracle(points, data)


@given(EXTREME_POINTS, st.data())
def test_furthest_point_picks_on_extreme_spreads_as_the_oracle(points, data):
    _picks_as_the_oracle(points, data)


def _picks_as_the_oracle(points, data):
    # the first points join year by year as clusters, the rest are candidates
    cut = data.draw(st.integers(1, len(points) - 1))
    ends = sorted(data.draw(st.sets(st.integers(1, cut), max_size=5)) | {cut})
    groups = [points[start:end] for start, end in zip([0, *ends], ends)]
    candidates = [seg(f"c{len(points) - k:02d}", p) for k, p in enumerate(points[cut:])]
    balls, clustered = ClusterBalls(), []
    for group in groups:
        balls.add(group)
        clustered.extend(group)
        if not candidates:
            break
        best = furthest_point_from_cluster(candidates, balls)
        assert best.id == oracle_furthest_point(candidates, clustered, dist=math.dist)
        candidates.remove(best)
