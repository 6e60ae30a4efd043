"""Greedy radial cluster growth under a budget cap, plus the two whole-plan
drivers that differ only in how each year's center is picked: seeded random
choice, or the farthest remaining point from everything already assigned
(the landmark rule). Every cluster prices each member at the cluster's year.

Admission follows prefix semantics: pool points are popped nearest-first from
the heap of ``geometry.nearest_first`` as the walk reads them, and the walk
stops at the first point that would overflow the cap, with no skipping.
``skip_mode`` (off by default) keeps scanning for smaller projects further out.
"""

from __future__ import annotations

import random
from decimal import Decimal
from typing import Callable, Iterable, Sequence

from .geometry import (
    ClusterBalls,
    furthest_point_from_cluster,
    nearest_first,
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
    Record,
    Segment,
    money,
)

STOP_BUDGET_REACHED = "budget_reached"
STOP_DATA_EXHAUSTED = "data_exhausted"
STOP_CENTER_EXCEEDS_BUDGET = "center_exceeds_budget"


class ClusterBuildTrace(Record):
    """Audit trail of one cluster build: admissions with running totals."""

    __slots__ = ("center_id", "admitted", "stop_reason")

    def __init__(
        self, center_id: str, admitted: tuple[tuple[Segment, Decimal], ...], stop_reason: str
    ) -> None:
        self._set(center_id, admitted, stop_reason)


def _admit(
    center: Segment,
    candidates: Iterable[Segment],
    cap: Decimal,
    year: int,
    skip_mode: bool = False,
) -> tuple[list[tuple[Segment, Decimal]], str]:
    """The center, then each candidate in turn while the running total of
    their costs in ``year`` stays within ``cap``: the admitted ``(segment,
    running total)`` pairs and the stop reason. A center at or over the cap
    is admitted alone, without reading ``candidates``, so the overrun is
    reported, never silent."""
    if cap <= 0:
        raise ValueError("cluster budget must be positive")
    total = center.cost_at(year)
    admitted = [(center, total)]
    if total >= cap:
        return admitted, STOP_CENTER_EXCEEDS_BUDGET
    stop_reason = STOP_DATA_EXHAUSTED
    for seg in candidates:
        candidate_cost = seg.cost_at(year)
        if total + candidate_cost <= cap:
            total += candidate_cost
            admitted.append((seg, total))
        else:
            stop_reason = STOP_BUDGET_REACHED
            if not skip_mode:
                break
    return admitted, stop_reason


def _walk(
    pool: Sequence[Segment],
    center: Segment,
    cap: Decimal,
    year: int,
    skip_mode: bool = False,
) -> tuple[list[tuple[Segment, Decimal]], str]:
    """:func:`_admit` over the rest of the pool, nearest to ``center`` first."""
    # the stream looks for the center at once: a flagged center must be in the pool too
    return _admit(center, nearest_first(pool, center), cap, year, skip_mode)


def _cluster(
    year: int,
    center: Segment,
    admitted: Sequence[tuple[Segment, Decimal]],
    cap: Decimal,
) -> Cluster:
    """The cluster of the ``admitted`` (segment, running total) pairs around
    ``center`` under ``cap`` in ``year``."""
    return Cluster(
        year=year,
        center_id=center.id,
        member_ids=tuple(seg.id for seg, _ in admitted),
        realized_cost=admitted[-1][1],
        budget=cap,
    )


def radial_neighbor_clustering(
    pool: Sequence[Segment],
    center: Segment,
    budget,
    *,
    year: int | None = None,
    skip_mode: bool = False,
) -> tuple[Cluster, ClusterBuildTrace]:
    """Grow one cluster outward from ``center`` until the budget stops it.

    The center is always a member; a center at or over the budget comes
    back as a flagged singleton. Otherwise the remaining pool is streamed
    nearest-first and each point is admitted while the running total stays
    within the cap. Every cost is taken in ``year``, or else in the
    center's scheduled year, which is the cluster's year.
    """
    cap = money(budget)
    year = center.scheduled_year if year is None else year
    admitted, stop_reason = _walk(list(pool), center, cap, year, skip_mode)
    cluster = _cluster(year, center, admitted, cap)
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


ClusterBuilder = Callable[
    [list[Segment], Segment, BudgetEntry], tuple[Cluster, ClusterBuildTrace]
]


def _drain_pool(
    schedule: BudgetSchedule,
    segments: Sequence[Segment],
    build_cluster: ClusterBuilder,
    *,
    rng: random.Random | None = None,
    axis: int = 0,
    initial_diagnostics: Iterable[Diagnostic] = (),
) -> Plan:
    """One cluster per schedule entry, each subtracted from the pool.

    With ``rng``, each center is one ``randrange`` draw from the remaining
    pool. Without it, centers follow the landmark rule: first the point
    with the largest coordinate on ``axis``, then the remaining point
    farthest from everything already clustered. Each placed cluster joins
    that search as one ball around its center when the next center is
    picked, and the search carries what it learnt about each candidate from
    year to year, so a year mostly measures distances to the newest cluster.
    """
    remaining = list(segments)
    clustered = ClusterBalls()
    trace = None  # the last placed cluster's, until it joins ``clustered``
    clusters: list[Cluster] = []
    diagnostics = list(initial_diagnostics)
    for entry in schedule.entries:
        if not remaining:
            clusters.append(Cluster(entry.year, None, (), ZERO, entry.budget))
            diagnostics.append(
                Diagnostic(
                    EMPTY_CLUSTER,
                    f"no projects left for year {entry.year}",
                    year=entry.year,
                )
            )
            continue
        if rng is not None:
            center = remaining[rng.randrange(len(remaining))]
        elif trace is None:
            center = select_initial_center(remaining, axis)
        else:
            clustered.add([seg.coords for seg, _ in trace.admitted])
            center = furthest_point_from_cluster(remaining, clustered)
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
        clusters.append(cluster)
    if remaining:
        diagnostics.append(
            Diagnostic(
                UNASSIGNED_REMAINDER,
                f"{len(remaining)} project(s) did not fit in any year",
                segment_ids=tuple(seg.id for seg in remaining),
            )
        )
    return Plan(
        clusters=tuple(clusters),
        unassigned_ids=tuple(seg.id for seg in remaining),
        diagnostics=tuple(diagnostics),
    )


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
    return _drain_pool(
        schedule, segments, _radial_builder(skip_mode), rng=random.Random(seed)
    )


def landmark_based_radial_clustering(
    segments: Sequence[Segment],
    schedule: BudgetSchedule,
    axis: int = 0,
    *,
    skip_mode: bool = False,
) -> Plan:
    """Deterministic whole-plan driver using landmark centers."""
    segments = _check_segments(segments, axis)
    return _drain_pool(schedule, segments, _radial_builder(skip_mode), axis=axis)
