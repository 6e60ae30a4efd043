"""Plan quality measures.

Spatial grouping is reported two ways per fiscal year: mean member distance
to the cluster center, and mean pairwise member distance. The second does
not privilege center-grown clusters, so the overall figure weights it by
member count. Budget use is a plain utilization fraction, flagged (not
clamped) when an over-budget singleton pushes it past 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .geometry import check_same_dimension, distance
from .model import (
    UNASSIGNED_REMAINDER,
    ZERO,
    BudgetSchedule,
    Cluster,
    Diagnostic,
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


def mean_distance_to_center(cluster: Cluster, lookup: Mapping[str, Segment]) -> float:
    """Mean over all members of their distance to the center (0 for the
    center itself); 0 for empty and singleton clusters."""
    if cluster.size <= 1:
        return 0.0
    center = lookup[cluster.center_id].coords
    coords = _member_coords(cluster, lookup)
    return sum(distance(center, c) for c in coords) / len(coords)


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


def compute_metrics(
    plan: Plan,
    schedule: BudgetSchedule,
    segments: Iterable[Segment] | Mapping[str, Segment],
) -> PlanMetrics:
    """Fill every metrics field for the plan; purely a function of its inputs."""
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
        to_center = mean_distance_to_center(cluster, lookup)
        pairwise = mean_pairwise_distance(cluster, lookup)
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
    total_budget = sum((c.budget for c in plan.clusters), ZERO)
    total_cost = sum((c.realized_cost for c in plan.clusters), ZERO)
    overall = OverallMetrics(
        total_budget=total_budget,
        total_cost=total_cost,
        total_deviation=total_cost - total_budget,
        weighted_mean_dispersion=weighted / weight if weight else 0.0,
    )
    return PlanMetrics(tuple(per_year), overall, len(plan.unassigned_ids))


def _medoid(members: Sequence[Segment]) -> Segment:
    best = members[0]
    best_key = None
    for seg in members:
        total = sum(distance(seg.coords, other.coords) for other in members)
        key = (total, seg.id)
        if best_key is None or key < best_key:
            best, best_key = seg, key
    return best


def plan_from_schedule(
    segments: Iterable[Segment], schedule: BudgetSchedule
) -> Plan:
    """The plan the input schedule already implies: one cluster per year
    holding the segments scheduled in it, centered on the medoid.

    Useful as the before side of a comparison against any re-clustering.
    """
    segments = list(segments)
    plan_years = set(schedule.years)
    clusters = []
    for entry in schedule.entries:
        members = [seg for seg in segments if seg.scheduled_year == entry.year]
        if members:
            center = _medoid(members)
            realized = sum((seg.cost_at(entry.year) for seg in members), ZERO)
            clusters.append(
                Cluster(
                    year=entry.year,
                    center_id=center.id,
                    member_ids=tuple(seg.id for seg in members),
                    realized_cost=realized,
                    budget=entry.budget,
                )
            )
        else:
            clusters.append(
                Cluster(
                    year=entry.year,
                    center_id=None,
                    member_ids=(),
                    realized_cost=ZERO,
                    budget=entry.budget,
                )
            )
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
