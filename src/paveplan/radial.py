"""The three plan drivers: one cluster per schedule entry, each taken out of
the pool before the next center is picked. They differ only in how each
year's center is picked and how its cluster grows (see ``refine``):

- ``main_algorithm``: a seeded random choice, plain radial clusters;
- ``landmark_based_radial_clustering``: the farthest remaining point from
  everything already assigned (the landmark rule), plain radial clusters;
- ``schedule_aware_plan``: landmark centers and tolerance-band clusters,
  after dataset validation.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .geometry import ClusterBalls, Pool, check_same_dimension, furthest_point_from_cluster
from .model import (
    EMPTY_CLUSTER,
    OVER_BUDGET_SINGLETON,
    UNASSIGNED_REMAINDER,
    ZERO,
    BudgetSchedule,
    Cluster,
    Diagnostic,
    Plan,
    Segment,
    ValidationFailedError,
    validate_dataset,
)
from .refine import (
    STOP_CENTER_EXCEEDS_BUDGET,
    radial_neighbor_clustering,
    schedule_aware_cluster,
)


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
    try:
        for seg in segments[1:]:
            value, best_value = seg.coords[axis], best.coords[axis]
            if value > best_value or (value == best_value and seg.id < best.id):
                best = seg
    except IndexError:
        check_same_dimension(seg.coords for seg in segments)
        raise
    return best


def _drain_pool(
    schedule: BudgetSchedule,
    pool: Pool,
    *,
    banded: bool = False,
    skip_mode: bool = False,
    rng: random.Random | None = None,
    axis: int = 0,
    initial_diagnostics: Iterable[Diagnostic] = (),
) -> Plan:
    """One cluster per schedule entry, each subtracted from the pool: a
    tolerance-band cluster at the entry's tolerances when ``banded``, else a
    plain radial walk, each at the entry's budget and year.

    With ``rng``, each center is one ``randrange`` draw from the remaining
    pool. Without it, centers follow the landmark rule: first the point
    with the largest coordinate on ``axis``, then the remaining point
    farthest from everything already clustered. Each placed cluster joins
    that search as one ball around its center when the next center is
    picked, and the search carries what it learnt about each candidate from
    year to year, so a year mostly measures distances to the newest cluster.
    """
    clustered = ClusterBalls()
    trace = None  # the last placed cluster's, until it joins ``clustered``
    clusters: list[Cluster] = []
    diagnostics = list(initial_diagnostics)
    for entry in schedule.entries:
        if not pool:
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
            center = list(pool)[rng.randrange(len(pool))]
        elif trace is None:
            center = select_initial_center(pool, axis)
        else:
            clustered.add([(distance, seg.coords) for seg, distance, _ in trace.admitted])
            center = furthest_point_from_cluster(pool, clustered)
        if banded:
            cluster, trace = schedule_aware_cluster(pool, center, entry, skip_mode=skip_mode)
        else:
            cluster, trace = radial_neighbor_clustering(
                pool, center, entry.budget, year=entry.year, skip_mode=skip_mode
            )
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
        pool.remove(cluster.member_ids)
        clusters.append(cluster)
    if pool:
        diagnostics.append(
            Diagnostic(
                UNASSIGNED_REMAINDER,
                f"{len(pool)} project(s) did not fit in any year",
                segment_ids=tuple(seg.id for seg in pool),
            )
        )
    return Plan(
        clusters=tuple(clusters),
        unassigned_ids=tuple(seg.id for seg in pool),
        diagnostics=tuple(diagnostics),
    )


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
    pool = Pool(_check_segments(segments))
    return _drain_pool(schedule, pool, skip_mode=skip_mode, rng=random.Random(seed))


def landmark_based_radial_clustering(
    segments: Sequence[Segment],
    schedule: BudgetSchedule,
    axis: int = 0,
    *,
    skip_mode: bool = False,
) -> Plan:
    """Deterministic whole-plan driver using landmark centers."""
    pool = Pool(_check_segments(segments, axis))
    return _drain_pool(schedule, pool, skip_mode=skip_mode, axis=axis)


def schedule_aware_plan(
    segments: Sequence[Segment],
    schedule: BudgetSchedule,
    axis: int = 0,
    *,
    strict: bool = False,
    skip_mode: bool = False,
) -> Plan:
    """Flagship pipeline: landmark centers and tolerance-band clusters.

    Dataset validation runs first; in strict mode any issue aborts,
    otherwise its diagnostics lead the plan's.
    """
    pool = Pool(_check_segments(segments, axis))
    issues = validate_dataset(pool.segments, schedule)
    if strict and issues:
        raise ValidationFailedError(issues)
    return _drain_pool(
        schedule, pool, banded=True, skip_mode=skip_mode, axis=axis,
        initial_diagnostics=issues,
    )
