"""Plan quality measures.

Spatial grouping is reported two ways per fiscal year: mean member distance
to the cluster center, and mean pairwise member distance. The second does
not privilege center-grown clusters, so the overall figure weights it by
member count. Budget use is a plain utilization fraction, flagged (not
clamped) when an over-budget singleton pushes it past 1.

Every float sum here is added left to right from ``0.0``, so the figures are
the same bits on every supported Python: ``sum()`` compensates its float
total on Python >= 3.12 and ``math.fsum`` rounds once at the end.

``baseline_plan`` measures each member pair once for its medoid and both
dispersion figures, and gets ``compute_metrics``' bits: ``math.dist(a, b)``
is ``math.dist(b, a)``, and ``_pair_sums`` adds every sum in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import reduce
from itertools import repeat
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .geometry import check_same_dimension
from .model import (
    UNASSIGNED_REMAINDER,
    ZERO,
    BudgetSchedule,
    Cluster,
    Diagnostic,
    PavePlanError,
    Plan,
    Segment,
    UnknownSegmentError,
    segment_lookup,
)


@dataclass(frozen=True)
class YearMetrics:
    year: int
    budget: Decimal
    realized_cost: Decimal
    utilization: float
    member_count: int
    mean_member_distance_to_center: float
    mean_pairwise_distance: float
    over_budget: bool


@dataclass(frozen=True)
class OverallMetrics:
    total_budget: Decimal
    total_cost: Decimal
    total_deviation: Decimal
    weighted_mean_dispersion: float


@dataclass(frozen=True)
class PlanMetrics:
    per_year: tuple[YearMetrics, ...]
    overall: OverallMetrics
    unassigned_count: int


def _member_coords(cluster: Cluster, lookup: Mapping[str, Segment]):
    coords = []
    for sid in cluster.member_ids:
        if sid not in lookup:
            raise UnknownSegmentError(
                f"cluster {cluster.year} references unknown segment {sid!r}"
            )
        coords.append(lookup[sid].coords)
    return coords


def _distance_total(point: Sequence[float], coords: Iterable[Sequence[float]]) -> float:
    """Sum of the distances from ``point`` to each of ``coords``, added left
    to right from 0.0 in one C-level loop; dimensions are the caller's check."""
    return reduce(add, map(math.dist, repeat(point), coords), 0.0)


def mean_distance_to_center(cluster: Cluster, lookup: Mapping[str, Segment]) -> float:
    """Mean over all members of their distance to the center (0 for the
    center itself); 0 for empty and singleton clusters."""
    if cluster.size <= 1:
        return 0.0
    coords = _member_coords(cluster, lookup)  # the center is a member
    center = lookup[cluster.center_id].coords
    check_same_dimension(coords)
    return _distance_total(center, coords) / len(coords)


def mean_pairwise_distance(cluster: Cluster, lookup: Mapping[str, Segment]) -> float:
    """Mean distance over unordered member pairs; 0 below two members."""
    if cluster.size <= 1:
        return 0.0
    coords = _member_coords(cluster, lookup)
    check_same_dimension(coords)
    dist = math.dist
    # one left-to-right running sum: sum() and fsum() round differently
    total = 0.0
    for i, a in enumerate(coords):
        for b in coords[i + 1 :]:
            total += dist(a, b)
    return total / (len(coords) * (len(coords) - 1) // 2)


def _plan_metrics(plan: Plan, figures: Iterable[tuple[float, float]]) -> PlanMetrics:
    """``plan``'s metrics from each cluster's (mean distance to center, mean
    pairwise distance); a year whose distances overflow raises PavePlanError."""
    per_year = []
    weighted = 0.0
    weight = 0
    for cluster, (to_center, pairwise) in zip(plan.clusters, figures):
        per_year.append(
            YearMetrics(
                year=cluster.year,
                budget=cluster.budget,
                realized_cost=cluster.realized_cost,
                utilization=float(cluster.realized_cost / cluster.budget),
                member_count=cluster.size,
                mean_member_distance_to_center=to_center,
                mean_pairwise_distance=pairwise,
                over_budget=cluster.realized_cost > cluster.budget,
            )
        )
        weighted += cluster.size * pairwise
        weight += cluster.size
        if not (math.isfinite(to_center) and math.isfinite(weighted)):
            raise PavePlanError(f"year {cluster.year}: member distances overflow floats")
    total_budget = sum((c.budget for c in plan.clusters), ZERO)
    total_cost = sum((c.realized_cost for c in plan.clusters), ZERO)
    overall = OverallMetrics(
        total_budget=total_budget,
        total_cost=total_cost,
        total_deviation=total_cost - total_budget,
        weighted_mean_dispersion=weighted / weight if weight else 0.0,
    )
    return PlanMetrics(tuple(per_year), overall, len(plan.unassigned_ids))


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
    figures = (
        (mean_distance_to_center(c, lookup), mean_pairwise_distance(c, lookup))
        for c in plan.clusters
    )
    return _plan_metrics(plan, figures)


def _pair_sums(coords: Sequence[Sequence[float]]) -> tuple[list[float], float]:
    """Each point's ``_distance_total`` over ``coords`` (in member order,
    skipping only its own ``+ 0.0``) and ``mean_pairwise_distance``'s
    row-major pair sum, from one distance per pair; dimensions are the
    caller's check."""
    totals = [0.0] * len(coords)
    pair_total = 0.0
    for k, a in enumerate(coords):
        row = list(map(math.dist, repeat(a), coords[k + 1 :]))
        totals[k] = reduce(add, row, totals[k])
        totals[k + 1 :] = map(add, totals[k + 1 :], row)
        pair_total = reduce(add, row, pair_total)
    return totals, pair_total


def _schedule_plan(
    segments: Iterable[Segment], schedule: BudgetSchedule
) -> tuple[Plan, list[tuple[float, float]]]:
    """``plan_from_schedule``'s plan, and each cluster's figures for ``_plan_metrics``."""
    segments = list(segments)
    plan_years = set(schedule.years)
    clusters = []
    figures = []
    for entry in schedule.entries:
        members = [seg for seg in segments if seg.scheduled_year == entry.year]
        center_id, to_center, pairwise = None, 0.0, 0.0
        if members:
            coords = [seg.coords for seg in members]
            check_same_dimension(coords)
            totals, pair_total = _pair_sums(coords)
            # the medoid: least total distance, the smaller id on a tie
            total, center_id = min(zip(totals, (seg.id for seg in members)))
            m = len(members)
            to_center = total / m
            pairwise = pair_total / (m * (m - 1) // 2) if m > 1 else 0.0
        ids = tuple(seg.id for seg in members)
        realized = sum((seg.cost_at(entry.year) for seg in members), ZERO)
        clusters.append(Cluster(entry.year, center_id, ids, realized, entry.budget))
        figures.append((to_center, pairwise))
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
    return Plan(tuple(clusters), unassigned, diagnostics), figures


def plan_from_schedule(segments: Iterable[Segment], schedule: BudgetSchedule) -> Plan:
    """The plan the input schedule already implies: one cluster per year
    holding the segments scheduled in it, centered on the medoid (the member
    with the least total distance to all members; the smaller id on a tie).

    Useful as the before side of a comparison against any re-clustering.
    """
    return _schedule_plan(segments, schedule)[0]


def baseline_plan(
    segments: Iterable[Segment], schedule: BudgetSchedule
) -> tuple[Plan, PlanMetrics]:
    """``plan_from_schedule``'s plan and its metrics, from one distance per pair."""
    plan, figures = _schedule_plan(segments, schedule)
    return plan, _plan_metrics(plan, figures)


@dataclass(frozen=True)
class YearDispersionDelta:
    year: int
    center_delta: float
    pairwise_delta: float


@dataclass(frozen=True)
class PlanComparison:
    """Negative dispersion deltas mean the after plan is tighter."""

    per_year: tuple[YearDispersionDelta, ...]
    overall_dispersion_delta: float
    segments_moved: int
    year_shift_histogram: Mapping[int, int]


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
        year_shift_histogram=MappingProxyType(dict(sorted(histogram.items()))),
    )
