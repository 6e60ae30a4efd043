import random

import pytest
from hypothesis import given, strategies as st

from paveplan.geometry import (
    distance,
    furthest_point_from_cluster,
    order_by_distance,
    point_set_distance,
)
from paveplan.model import DimensionMismatchError

from helpers import random_segments, seg
from oracles import oracle_furthest_point


def test_distance_identity():
    assert distance((0.0, 0.0), (0.0, 0.0)) == 0.0


def test_distance_3_4_5():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_distance_offset_3_4_5():
    assert distance((1.0, 1.0), (4.0, 5.0)) == 5.0


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        distance((0.0,), (0.0, 0.0))


def test_point_set_distance_singleton():
    assert point_set_distance([(0.0, 0.0)], (3.0, 4.0)) == 5.0


def test_point_set_distance_takes_min():
    assert point_set_distance([(0.0, 0.0), (10.0, 0.0)], (4.0, 0.0)) == 4.0


def test_point_set_distance_zero_for_member():
    assert point_set_distance([(1.0, 2.0), (3.0, 4.0)], (3.0, 4.0)) == 0.0


def test_point_set_distance_empty_set():
    with pytest.raises(ValueError):
        point_set_distance([], (0.0, 0.0))


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


def test_furthest_point_larger_distance_wins():
    x = [seg("near", (1, 0)), seg("far", (5, 0))]
    assert furthest_point_from_cluster(x, [(0.0, 0.0)]).id == "far"


def test_furthest_point_tie_keeps_input_order():
    x = [seg("first", (2, 0)), seg("second", (-2, 0))]
    assert furthest_point_from_cluster(x, [(0.0, 0.0)]).id == "first"


def test_furthest_point_degenerate_all_zero():
    x = [seg("a", (1, 1)), seg("b", (2, 2))]
    clustered = [(1.0, 1.0), (2.0, 2.0)]
    assert furthest_point_from_cluster(x, clustered).id == "a"


def test_furthest_point_argument_roles_differ():
    # swapping the roles asks a different question, so answers may differ
    a = [seg("a1", (0, 0)), seg("a2", (10, 0))]
    b = [seg("b1", (4, 0))]
    from_b = furthest_point_from_cluster(a, [s.coords for s in b])
    from_a = furthest_point_from_cluster(b, [s.coords for s in a])
    assert from_b.id == "a2"
    assert from_a.id == "b1"


def test_furthest_point_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        furthest_point_from_cluster([seg("a", (0, 0)), seg("b", (1, 1, 1))], [(0.0, 0.0)])
    with pytest.raises(DimensionMismatchError):
        furthest_point_from_cluster([seg("a", (0, 0))], [(0.0, 0.0), (1.0, 1.0, 1.0)])
    with pytest.raises(DimensionMismatchError):
        furthest_point_from_cluster([seg("a", (0, 0, 0))], [(0.0, 0.0)])


def test_furthest_point_bounds_keep_shared_ids_apart():
    # a bound keyed by segment id would let "dup" far inherit "dup" near's
    near, far = seg("dup", (1, 0)), seg("dup", (10, 0))
    candidates = [near, seg("mid", (5, 0)), far]
    clustered = []
    bounds = {}
    winners = []
    for point in [(0.0, 0.0), (3.0, 0.0), (9.0, 0.0), (1.0, 1.0)]:
        clustered.append(point)
        winners.append(furthest_point_from_cluster(candidates, clustered, bounds))
        assert winners[-1] is furthest_point_from_cluster(candidates, clustered)
    assert winners[0] is far


def test_furthest_point_bounds_carry_over_a_growing_set():
    rng = random.Random(7)
    segments = [seg(f"g{i}", (rng.randint(0, 9), rng.randint(0, 9))) for i in range(40)]
    clustered = [(0.0, 0.0)]
    bounds = {}
    while len(clustered) < 30:
        stateful = furthest_point_from_cluster(segments, clustered, bounds)
        assert stateful is furthest_point_from_cluster(segments, clustered)
        assert stateful.id == oracle_furthest_point(segments, clustered)
        clustered.extend(
            (float(rng.randint(0, 9)), float(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 3))
        )


def test_furthest_point_empty_inputs():
    with pytest.raises(ValueError):
        furthest_point_from_cluster([], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        furthest_point_from_cluster([seg("a", (0, 0))], [])


@given(st.integers(min_value=0, max_value=10_000))
def test_ordering_properties(trial_seed):
    rng = random.Random(trial_seed)
    segments = random_segments(rng, rng.randint(2, 20))
    anchor = segments[rng.randrange(len(segments))]
    ordering = order_by_distance(segments, anchor)
    assert len(ordering.ordered_ids) == len(segments) - 1
    assert anchor.id not in ordering.ordered_ids
    by_id = {s.id: s for s in segments}
    dists = [distance(anchor.coords, by_id[sid].coords) for sid in ordering.ordered_ids]
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
    best = furthest_point_from_cluster(segments, clustered)
    best_d = point_set_distance(clustered, best.coords)
    for other in segments:
        assert best_d >= point_set_distance(clustered, other.coords)
    assert best.id == oracle_furthest_point(segments, clustered)
