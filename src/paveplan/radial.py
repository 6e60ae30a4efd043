"""Greedy radial cluster growth under a budget cap, plus the two whole-plan
drivers that differ only in how each year's center is picked: seeded random
choice, or the farthest remaining point from everything already assigned
(the landmark rule).

Admission follows prefix semantics: pool points are visited nearest-first
and enumeration stops at the first point that would overflow the cap, with
no skipping. ``skip_mode`` relaxes that as a documented extension (keep
scanning for smaller projects further out); it is off by default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Iterable, Sequence

from .geometry import (
    Coords,
    MinLinkageBounds,
    furthest_point_from_cluster,
    order_by_distance,
)
from .model import (
    EMPTY_CLUSTER,
    OVER_BUDGET_SINGLETON,
    UNASSIGNED_REMAINDER,
    ZERO,
    BudgetEntry,
    BudgetSchedule,
    Cluster,
    Diagnostic,
    Plan,
    Segment,
    money,
)

CostFn = Callable[[Segment], Decimal]

STOP_BUDGET_REACHED = "budget_reached"
STOP_DATA_EXHAUSTED = "data_exhausted"
STOP_CENTER_EXCEEDS_BUDGET = "center_exceeds_budget"


def scheduled_year_cost(segment: Segment) -> Decimal:
    """Default cost function: what the project costs in its own planned year."""
    return segment.base_cost()


def cost_fn_for_year(year: int) -> CostFn:
    """Cost function pricing every project at one fixed fiscal year."""

    def cost(segment: Segment) -> Decimal:
        return segment.cost_at(year)

    return cost


@dataclass(frozen=True)
class ClusterBuildTrace:
    """Audit trail of one cluster build: admissions with running totals."""

    center_id: str
    admitted: tuple[tuple[str, Decimal], ...]
    stop_reason: str


def _admit(
    center: Segment,
    candidates: Iterable[Segment],
    cap: Decimal,
    cost: CostFn,
    skip_mode: bool = False,
) -> tuple[list[tuple[str, Decimal]], str]:
    """The center, then each candidate in turn while the running total stays
    within ``cap``: the admitted ``(id, running total)`` pairs and the stop
    reason. A center at or over the cap is admitted alone, without reading
    ``candidates``, so the overrun is reported, never silent."""
    if cap <= 0:
        raise ValueError("cluster budget must be positive")
    total = cost(center)
    admitted = [(center.id, total)]
    if total >= cap:
        return admitted, STOP_CENTER_EXCEEDS_BUDGET
    stop_reason = STOP_DATA_EXHAUSTED
    for seg in candidates:
        candidate_cost = cost(seg)
        if total + candidate_cost <= cap:
            total += candidate_cost
            admitted.append((seg.id, total))
        else:
            stop_reason = STOP_BUDGET_REACHED
            if not skip_mode:
                break
    return admitted, stop_reason


def _walk(
    pool: Sequence[Segment],
    center: Segment,
    cap: Decimal,
    cost: CostFn,
    skip_mode: bool = False,
) -> tuple[list[tuple[str, Decimal]], str]:
    """:func:`_admit` over the rest of the pool, nearest to ``center`` first."""
    by_id = {seg.id: seg for seg in pool}
    if center.id not in by_id:
        raise ValueError(f"center {center.id!r} is not in the pool")

    def nearest_first():
        # a generator, so a flagged center never pays for the sort
        for sid in order_by_distance(pool, center).ordered_ids:
            yield by_id[sid]

    return _admit(center, nearest_first(), cap, cost, skip_mode)


def radial_neighbor_clustering(
    pool: Sequence[Segment],
    center: Segment,
    budget,
    *,
    year: int | None = None,
    cost: CostFn | None = None,
    skip_mode: bool = False,
) -> tuple[Cluster, ClusterBuildTrace]:
    """Grow one cluster outward from ``center`` until the budget stops it.

    The center is always a member; a center at or over the budget comes
    back as a flagged singleton. Otherwise the remaining pool is visited
    nearest-first and each point is admitted while the running total stays
    within the cap.
    """
    cap = money(budget)
    admitted, stop_reason = _walk(
        list(pool), center, cap, cost or scheduled_year_cost, skip_mode
    )
    cluster = Cluster(
        year=center.scheduled_year if year is None else year,
        center_id=center.id,
        member_ids=tuple(sid for sid, _ in admitted),
        realized_cost=admitted[-1][1],
        budget=cap,
    )
    return cluster, ClusterBuildTrace(center.id, tuple(admitted), stop_reason)


def _check_segments(segments: Iterable[Segment], axis: int = 0) -> list[Segment]:
    """``segments`` as a list; rejects empty input and an out-of-range axis."""
    segments = list(segments)
    if not segments:
        raise ValueError("segment list must not be empty")
    if axis < 0 or axis >= segments[0].dimension:
        raise ValueError(
            f"axis {axis} out of range for {segments[0].dimension}-dimensional data"
        )
    return segments


def select_initial_center(segments: Sequence[Segment], axis: int = 0) -> Segment:
    """The segment with the largest coordinate on ``axis``; ties by ascending id."""
    segments = _check_segments(segments, axis)
    best = segments[0]
    for seg in segments[1:]:
        value, best_value = seg.coords[axis], best.coords[axis]
        if value > best_value or (value == best_value and seg.id < best.id):
            best = seg
    return best


CenterPicker = Callable[[list[Segment], list[Coords], int], Segment]
ClusterBuilder = Callable[
    [list[Segment], Segment, BudgetEntry], tuple[Cluster, ClusterBuildTrace]
]


def _empty_cluster(entry: BudgetEntry) -> Cluster:
    return Cluster(
        year=entry.year,
        center_id=None,
        member_ids=(),
        realized_cost=ZERO,
        budget=entry.budget,
    )


def _drain_pool(
    schedule: BudgetSchedule,
    segments: Sequence[Segment],
    next_center: CenterPicker,
    build_cluster: ClusterBuilder,
    initial_diagnostics: Iterable[Diagnostic] = (),
) -> tuple[Plan, tuple[ClusterBuildTrace | None, ...]]:
    """One cluster per schedule entry, each subtracted from the pool.

    Shared by the random and landmark drivers so diagnostics and leftover
    handling are identical across pipelines.
    """
    remaining = list(segments)
    by_id = {seg.id: seg for seg in remaining}
    assigned_coords: list[Coords] = []
    clusters: list[Cluster] = []
    traces: list[ClusterBuildTrace | None] = []
    diagnostics = list(initial_diagnostics)
    for index, entry in enumerate(schedule.entries):
        if not remaining:
            clusters.append(_empty_cluster(entry))
            traces.append(None)
            diagnostics.append(
                Diagnostic(
                    EMPTY_CLUSTER,
                    f"no projects left for year {entry.year}",
                    year=entry.year,
                )
            )
            continue
        center = next_center(remaining, assigned_coords, index)
        cluster, trace = build_cluster(remaining, center, entry)
        if trace.stop_reason == STOP_CENTER_EXCEEDS_BUDGET:
            diagnostics.append(
                Diagnostic(
                    OVER_BUDGET_SINGLETON,
                    f"center {center.id} costs {cluster.realized_cost} against "
                    f"budget {entry.budget} for year {entry.year}",
                    year=entry.year,
                    segment_ids=(center.id,),
                )
            )
        member_set = set(cluster.member_ids)
        remaining = [seg for seg in remaining if seg.id not in member_set]
        assigned_coords.extend(by_id[sid].coords for sid in cluster.member_ids)
        clusters.append(cluster)
        traces.append(trace)
    if remaining:
        diagnostics.append(
            Diagnostic(
                UNASSIGNED_REMAINDER,
                f"{len(remaining)} project(s) did not fit in any year",
                segment_ids=tuple(seg.id for seg in remaining),
            )
        )
    plan = Plan(
        clusters=tuple(clusters),
        unassigned_ids=tuple(seg.id for seg in remaining),
        diagnostics=tuple(diagnostics),
    )
    return plan, tuple(traces)


def _radial_builder(skip_mode: bool) -> ClusterBuilder:
    """One plain radial walk per schedule entry, at the entry's budget."""

    def build(remaining, center, entry):
        return radial_neighbor_clustering(
            remaining, center, entry.budget, year=entry.year, skip_mode=skip_mode
        )

    return build


def main_algorithm(
    segments: Sequence[Segment],
    schedule: BudgetSchedule,
    seed: int,
    *,
    skip_mode: bool = False,
) -> Plan:
    """Whole-plan driver with uniformly random centers.

    The generator is a seeded Mersenne Twister (``random.Random``) drawing
    one ``randrange`` per cluster, so the same seed and input order always
    reproduce the same plan.
    """
    segments = _check_segments(segments)
    rng = random.Random(seed)

    def next_center(remaining, assigned_coords, index):
        return remaining[rng.randrange(len(remaining))]

    plan, _ = _drain_pool(schedule, segments, next_center, _radial_builder(skip_mode))
    return plan


def landmark_next_center(axis: int) -> CenterPicker:
    """First center: max coordinate on ``axis``; afterwards: the remaining
    point farthest from everything already clustered.

    The farthest-point search carries its per-candidate bounds from year to
    year, which relies on ``assigned_coords`` only growing by appending
    within one driver run; a run starts afresh at its first year."""
    bounds: MinLinkageBounds = {}

    def next_center(remaining, assigned_coords, index):
        if not assigned_coords:
            bounds.clear()
            return select_initial_center(remaining, axis)
        return furthest_point_from_cluster(remaining, assigned_coords, bounds)

    return next_center


def landmark_based_radial_clustering(
    segments: Sequence[Segment],
    schedule: BudgetSchedule,
    axis: int = 0,
    *,
    skip_mode: bool = False,
) -> Plan:
    """Deterministic whole-plan driver using landmark centers."""
    segments = _check_segments(segments, axis)
    plan, _ = _drain_pool(
        schedule, segments, landmark_next_center(axis), _radial_builder(skip_mode)
    )
    return plan
