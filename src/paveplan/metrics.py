"""Plan quality measures.

Spatial grouping is reported two ways per fiscal year: mean member distance
to the cluster center, and mean pairwise member distance. The second does
not privilege center-grown clusters, so the overall figure weights it by
member count. Budget use is a plain utilization fraction, flagged (not
clamped) when an over-budget singleton pushes it past 1.

Every float sum behind a figure or a medoid total is added left to right
from ``0.0``, so they are the same bits on every supported Python: ``sum()``
compensates its float total on Python >= 3.12 and ``math.fsum`` rounds once
at the end.

**The baseline medoid.** ``plan_from_schedule`` centers each year on its
medoid: the member whose ``_distance_total`` over all ``m`` members
(``math.dist`` in member order) is least, the smaller id on a tie.
``compute_metrics`` divides that same total by ``m``, so the baseline's
figures are the bits ``metrics`` recomputes. The search totals few members
(the lower-bound pruning of exact medoid search, Newling & Fleuret, AISTATS
2017). The members are split at the median of one axis after another,
cycling the axes, into groups of at most ``max(16, isqrt(m))``. For a group
of ``n_g`` members with mean ``mu_g``, convexity of the norm gives
``sum(|p - x_j| for j in g) >= n_g * |p - mu_g|``, so ``LB(p) = sum(n_g *
|p - mu_g|)`` bounds ``p``'s total from below. Candidates are visited in
ascending ``LB``, each given its exact total, and the search stops at the
first whose ``LB`` less the margin below is strictly above the best total:
every later candidate has at least that ``LB``, so its total is above the
best, and the strict test still measures one whose total may equal the
best with a smaller id. A ``LB`` that is not finite bounds nothing and
counts as 0: on members at 0, 0 and the largest float every ``LB``
overflows, yet two totals are equal and finite. On the benchmark's years
(1,440 members over 11 blobs) about one candidate in a thousand gets a
total. When every total is equal, as on a ring or on identical points,
every candidate gets one: ``m**2`` distances, against the ``m(m-1)/2`` of
the pairwise mean.

**The float margin.** With ``u = 2**-53``, ``math.dist`` rounds each
coordinate difference once and is within about one ulp after that, so a
computed distance is within a relative ``3u`` of the true one, and a
computed total of ``m`` of them within ``(m + 3)u`` of the true total. The
computed ``LB`` adds one rounding per product and per addition: ``(G +
4)u`` relative, for ``G <= m`` groups. Each group mean is a float sum
(plain or compensated) divided by ``n_g``; per axis it is off by at most
about ``2u * sum(|x_ji| for j in g)``, so the means move ``LB`` by at most
``2u * L * S1``, where ``L`` is the largest group and ``S1`` the sum of the
members' L1 norms. That term grows with the coordinates' magnitude, not
their spread, so a tight cluster far from the origin is barely pruned. The
test reads ``LB * (1 - eps) - eps * L * S1 - tiny > best`` with ``eps =
8(m + 8)u``, which covers ``(m + G + 7)u`` and ``2u`` more than twice over,
and ``tiny = 8(m + 1)(d + 1) * 2**-1074`` for ``d`` dimensions, which
covers the subnormal range, where relative bounds fail and each rounding to
a subnormal errs by at most ``2**-1075``. A larger margin only prunes less;
it never changes a pick. If ``S1`` overflows, the margin is ``inf`` and
nothing is pruned; if the best total is ``inf``, nothing is above it. The
margin also keeps each computed total strictly above its candidate's
lowered ``LB``, so a stop test reading ``>=`` would pick the same: a lowered
``LB`` equal to the best total puts that candidate, and every later one,
above the best.
"""

from __future__ import annotations

import math
from decimal import Decimal
from functools import reduce
from itertools import repeat
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .geometry import Coords, check_same_dimension
from .model import (
    UNASSIGNED_REMAINDER,
    ZERO,
    BudgetSchedule,
    Cluster,
    Diagnostic,
    PavePlanError,
    Plan,
    Record,
    Segment,
    UnknownSegmentError,
    segment_lookup,
)


class YearMetrics(Record):
    __slots__ = (
        "year", "budget", "realized_cost", "utilization", "member_count",
        "mean_member_distance_to_center", "mean_pairwise_distance", "over_budget",
    )

    def __init__(
        self, year: int, budget: Decimal, realized_cost: Decimal, utilization: float,
        member_count: int, mean_member_distance_to_center: float,
        mean_pairwise_distance: float, over_budget: bool,
    ) -> None:
        self._set(
            year, budget, realized_cost, utilization, member_count,
            mean_member_distance_to_center, mean_pairwise_distance, over_budget,
        )


class OverallMetrics(Record):
    __slots__ = ("total_budget", "total_cost", "total_deviation", "weighted_mean_dispersion")

    def __init__(
        self, total_budget: Decimal, total_cost: Decimal, total_deviation: Decimal,
        weighted_mean_dispersion: float,
    ) -> None:
        self._set(total_budget, total_cost, total_deviation, weighted_mean_dispersion)


class PlanMetrics(Record):
    __slots__ = ("per_year", "overall", "unassigned_count")

    def __init__(
        self, per_year: tuple[YearMetrics, ...], overall: OverallMetrics, unassigned_count: int
    ) -> None:
        self._set(per_year, overall, unassigned_count)


def _member_coords(cluster: Cluster, lookup: Mapping[str, Segment]) -> list[Coords]:
    """The members' coordinates in member order; none below two members."""
    if cluster.size <= 1:
        return []
    try:
        return [lookup[sid].coords for sid in cluster.member_ids]
    except KeyError as unknown:
        raise UnknownSegmentError(
            f"cluster {cluster.year} references unknown segment {unknown.args[0]!r}"
        ) from None


def _distance_total(point: Sequence[float], coords: Iterable[Sequence[float]]) -> float:
    """Sum of the distances from ``point`` to each of ``coords``, added left
    to right from 0.0 in one C-level loop; dimensions are the caller's check."""
    return reduce(add, map(math.dist, repeat(point), coords), 0.0)


def mean_distance_to_center(cluster: Cluster, coords: Sequence[Coords]) -> float:
    """Mean over the members' ``coords`` (in member order) of their distance
    to the center, 0 for the center itself; 0 below two members."""
    if cluster.size <= 1:
        return 0.0
    center = coords[cluster.member_ids.index(cluster.center_id)]
    try:
        return _distance_total(center, coords) / len(coords)
    except ValueError:
        check_same_dimension(coords)
        raise


def mean_pairwise_distance(cluster: Cluster, coords: Sequence[Coords]) -> float:
    """Mean distance over unordered pairs of the members' ``coords`` (in
    member order); 0 below two members."""
    if cluster.size <= 1:
        return 0.0
    dist = math.dist
    # one left-to-right running sum: sum() and fsum() round differently
    total = 0.0
    try:
        for i, a in enumerate(coords):
            for b in coords[i + 1 :]:
                total += dist(a, b)
    except ValueError:
        check_same_dimension(coords)
        raise
    return total / (len(coords) * (len(coords) - 1) // 2)


def compute_metrics(
    plan: Plan,
    schedule: BudgetSchedule,
    segments: Iterable[Segment] | Mapping[str, Segment],
) -> PlanMetrics:
    """Fill every metrics field for the plan; purely a function of its inputs.
    A year whose distances overflow the float range raises PavePlanError."""
    if len(plan.clusters) != len(schedule.entries) or any(
        c.year != e.year for c, e in zip(plan.clusters, schedule.entries)
    ):
        raise ValueError("plan clusters do not align with the schedule years")
    lookup = segment_lookup(segments)
    for sid in plan.unassigned_ids:
        if sid not in lookup:
            raise UnknownSegmentError(f"unassigned id {sid!r} is unknown")
    per_year = []
    weighted = 0.0
    weight = 0
    for cluster in plan.clusters:
        coords = _member_coords(cluster, lookup)
        to_center = mean_distance_to_center(cluster, coords)
        pairwise = mean_pairwise_distance(cluster, coords)
        per_year.append(_year_metrics(
            cluster.year, cluster.budget, cluster.realized_cost, cluster.size, to_center, pairwise
        ))
        weighted += cluster.size * pairwise
        weight += cluster.size
        if not (math.isfinite(to_center) and math.isfinite(weighted)):
            raise PavePlanError(f"year {cluster.year}: member distances overflow floats")
    return _plan_metrics(
        per_year, weighted / weight if weight else 0.0, len(plan.unassigned_ids)
    )


def _year_metrics(
    year: int, budget: Decimal, realized_cost: Decimal, member_count: int, to_center: float,
    pairwise: float,
) -> YearMetrics:
    """One year's figures; utilization is NaN for a budget of zero, which no
    schedule holds."""
    utilization = float(realized_cost / budget) if budget else math.nan
    over_budget = realized_cost > budget
    return YearMetrics(
        year, budget, realized_cost, utilization, member_count, to_center, pairwise, over_budget
    )


def _plan_metrics(
    per_year: Sequence[YearMetrics], dispersion: float, unassigned_count: int
) -> PlanMetrics:
    """The plan's figures: ``per_year``, the money totals over it, and the
    weighted mean ``dispersion``."""
    total_budget = sum((y.budget for y in per_year), ZERO)
    total_cost = sum((y.realized_cost for y in per_year), ZERO)
    overall = OverallMetrics(total_budget, total_cost, total_cost - total_budget, dispersion)
    return PlanMetrics(tuple(per_year), overall, unassigned_count)


def _groups(points: list[Sequence[float]], leaf: int, axis: int = 0) -> list[list]:
    """``points`` split at the median of one axis after another, cycling the
    axes, into groups of at most ``leaf`` points."""
    if len(points) <= leaf:
        return [points]
    points = sorted(points, key=itemgetter(axis))
    half = len(points) // 2
    axis = (axis + 1) % len(points[0])
    return _groups(points[:half], leaf, axis) + _groups(points[half:], leaf, axis)


def _medoid(members: Sequence[Segment]) -> str:
    """The id of the member with the least ``_distance_total`` to all
    members, the smaller id on a tie, found by the bounded search the module
    docstring argues."""
    coords = [seg.coords for seg in members]
    check_same_dimension(coords)
    m = len(coords)
    groups = _groups(coords, max(16, math.isqrt(m)))
    sizes = [len(group) for group in groups]
    means = [[sum(axis) / len(group) for axis in zip(*group)] for group in groups]
    eps = (m + 8) * 2.0**-50
    slack = eps * max(sizes) * sum(sum(map(abs, p)) for p in coords)
    slack += (m + 1) * (len(coords[0]) + 1) * 2.0**-1071

    def bound(point: Sequence[float]) -> float:
        lower = sum(map(mul, sizes, map(math.dist, repeat(point), means)))
        return lower if math.isfinite(lower) else 0.0

    ranked = sorted(zip(map(bound, coords), members), key=itemgetter(0))
    best = (_distance_total(ranked[0][1].coords, coords), ranked[0][1].id)
    for lower, seg in ranked[1:]:
        if lower * (1.0 - eps) - slack > best[0]:
            break
        best = min(best, (_distance_total(seg.coords, coords), seg.id))
    return best[1]


def plan_from_schedule(segments: Iterable[Segment], schedule: BudgetSchedule) -> Plan:
    """The plan the input schedule already implies: one cluster per year
    holding the segments scheduled in it, centered on the medoid (the member
    with the least total distance to all members; the smaller id on a tie).

    Useful as the before side of a comparison against any re-clustering.
    """
    segments = list(segments)
    plan_years = set(schedule.years)
    clusters = []
    for entry in schedule.entries:
        members = [seg for seg in segments if seg.scheduled_year == entry.year]
        center_id = _medoid(members) if members else None
        ids = tuple(seg.id for seg in members)
        realized = sum((seg.cost_at(entry.year) for seg in members), ZERO)
        clusters.append(Cluster(entry.year, center_id, ids, realized, entry.budget))
    unassigned = tuple(seg.id for seg in segments if seg.scheduled_year not in plan_years)
    diagnostics = ()
    if unassigned:
        diagnostics = (
            Diagnostic(
                UNASSIGNED_REMAINDER,
                f"{len(unassigned)} project(s) scheduled outside the plan years",
                segment_ids=unassigned,
            ),
        )
    return Plan(tuple(clusters), unassigned, diagnostics)


class YearDispersionDelta(Record):
    __slots__ = ("year", "center_delta", "pairwise_delta")

    def __init__(self, year: int, center_delta: float, pairwise_delta: float) -> None:
        self._set(year, center_delta, pairwise_delta)


class PlanComparison(Record):
    """Negative dispersion deltas mean the after plan is tighter. The
    histogram is held as a read-only copy of the mapping given."""

    __slots__ = (
        "per_year", "overall_dispersion_delta", "segments_moved", "year_shift_histogram"
    )

    def __init__(
        self, per_year: tuple[YearDispersionDelta, ...], overall_dispersion_delta: float,
        segments_moved: int, year_shift_histogram: Mapping[int, int],
    ) -> None:
        histogram = MappingProxyType(dict(year_shift_histogram))
        self._set(per_year, overall_dispersion_delta, segments_moved, histogram)

    def __reduce__(self) -> tuple:
        # a mapping proxy neither pickles nor deep-copies; its dict does
        *fields, histogram = self._fields()
        return type(self), (*fields, dict(histogram))


def compare_plans(
    before: Plan,
    after: Plan,
    schedule: BudgetSchedule,
    segments: Iterable[Segment] | Mapping[str, Segment],
) -> PlanComparison:
    """Dispersion deltas plus how many segments moved and by how many years.

    The histogram only counts segments assigned in both plans whose year
    changed (after minus before, so -1 means one year earlier); transitions
    to or from unassigned count as moved but have no shift entry.
    """
    lookup = segment_lookup(segments)
    if before.all_ids() != after.all_ids():
        raise ValueError("plans cover different segment universes")
    metrics_before = compute_metrics(before, schedule, lookup)
    metrics_after = compute_metrics(after, schedule, lookup)
    per_year = tuple(
        YearDispersionDelta(
            year=b.year,
            center_delta=a.mean_member_distance_to_center
            - b.mean_member_distance_to_center,
            pairwise_delta=a.mean_pairwise_distance - b.mean_pairwise_distance,
        )
        for b, a in zip(metrics_before.per_year, metrics_after.per_year)
    )
    years_before = before.assigned_years()
    years_after = after.assigned_years()
    moved = 0
    histogram: dict[int, int] = {}
    for sid in sorted(before.all_ids()):
        year_before = years_before.get(sid)
        year_after = years_after.get(sid)
        if year_before != year_after:
            moved += 1
            if year_before is not None and year_after is not None:
                shift = year_after - year_before
                histogram[shift] = histogram.get(shift, 0) + 1
    return PlanComparison(
        per_year=per_year,
        overall_dispersion_delta=metrics_after.overall.weighted_mean_dispersion
        - metrics_before.overall.weighted_mean_dispersion,
        segments_moved=moved,
        year_shift_histogram=dict(sorted(histogram.items())),
    )
