"""Tolerance-band cluster construction.

Around one center, three nested clusters are cut from one nearest-first
walk by the per-year tolerances: inner (cap - low), nominal (cap), and
outer (cap + high). Points inside the inner cluster enter the final cluster
purely by distance; the band between inner and outer is then refilled by
urgency (earlier or overdue scheduled year first, then lower cost) while
the nominal cap holds. Every cost is taken in the cluster's year, as in
``radial``. The flagship pipeline combines this with landmark centers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from decimal import Decimal
from itertools import chain
from typing import Sequence

from .geometry import check_same_dimension
from .model import (
    BudgetSchedule,
    Cluster,
    Plan,
    Record,
    Segment,
    ValidationFailedError,
    money,
    validate_dataset,
)
from .radial import (
    STOP_BUDGET_REACHED,
    STOP_CENTER_EXCEEDS_BUDGET,
    STOP_DATA_EXHAUSTED,
    ClusterBuildTrace,
    _admit,
    _check_segments,
    _cluster,
    _drain_pool,
    _walk,
    radial_neighbor_clustering,  # noqa: F401  perfbench tests read this binding
)


class ToleranceBand(Record):
    """The three nested clusters, the inner one's segments and the band's in refill order."""

    __slots__ = ("low_cluster", "mid_cluster", "high_cluster", "inner", "band")

    def __init__(
        self, low_cluster: Cluster, mid_cluster: Cluster, high_cluster: Cluster,
        inner: tuple[Segment, ...], band: tuple[Segment, ...],
    ) -> None:
        self._set(low_cluster, mid_cluster, high_cluster, inner, band)

    @property
    def band_ids(self) -> tuple[str, ...]:
        return tuple(seg.id for seg in self.band)


def band_order(
    band: Sequence[Segment], center: Segment, *, year: int | None = None
) -> list[Segment]:
    """Urgency order for band points: ascending scheduled year (overdue work
    naturally sorts first), then ascending cost in ``year`` (or else the
    center's scheduled year), then distance to the center, then id."""
    dist, point = math.dist, center.coords
    year = center.scheduled_year if year is None else year
    try:
        return sorted(
            band,
            key=lambda seg: (
                seg.scheduled_year, seg.cost_at(year), dist(point, seg.coords), seg.id
            ),
        )
    except ValueError:
        check_same_dimension(chain((point,), (seg.coords for seg in band)))
        raise


def build_tolerance_band(
    pool: Sequence[Segment],
    center: Segment,
    budget,
    low_tolerance,
    high_tolerance,
    *,
    year: int | None = None,
) -> ToleranceBand:
    """Cut the inner/nominal/outer clusters from one walk around ``center``,
    pricing at ``year`` or else the center's scheduled year.

    The walk runs once, to the outer cap. Prefix admission makes each
    smaller cap a cut of the same walk: the admissions whose running total
    stays within it, and at least the center, which is how a center at or
    over a cap becomes that cap's flagged singleton.
    """
    cap = money(budget)
    low = money(low_tolerance)
    high = money(high_tolerance)
    if low < 0 or high < 0:
        raise ValueError("tolerances must be non-negative")
    if cap - low <= 0:
        raise ValueError("low tolerance must leave a positive inner budget")
    year = center.scheduled_year if year is None else year
    admitted, _ = _walk(list(pool), center, cap + high, year)
    totals = [total for _, total in admitted]

    def cut(limit: Decimal) -> Cluster:
        size = max(1, bisect_right(totals, limit))
        return _cluster(year, center, admitted[:size], limit)

    low_cluster = cut(cap - low)
    walked = tuple(seg for seg, _ in admitted)
    band = tuple(band_order(walked[low_cluster.size :], center, year=year))
    return ToleranceBand(low_cluster, cut(cap), cut(cap + high), walked[: low_cluster.size], band)


def schedule_aware_cluster(
    pool: Sequence[Segment],
    center: Segment,
    budget,
    low_tolerance,
    high_tolerance,
    *,
    year: int | None = None,
    skip_mode: bool = False,
) -> tuple[Cluster, ClusterBuildTrace]:
    """Final cluster: all of the inner cluster, then band points in urgency
    order while the nominal cap holds, priced at ``year`` or else the
    center's scheduled year.

    Without ``skip_mode``, both tolerances at zero reduce exactly to
    :func:`radial_neighbor_clustering` (same members, same trace). With it
    they need not: skipping applies only to the band, which is then empty.
    """
    cap = money(budget)
    pool = list(pool)
    year = center.scheduled_year if year is None else year
    band = build_tolerance_band(pool, center, cap, low_tolerance, high_tolerance, year=year)
    # the inner cluster fits under cap - low, so all of it is admitted again
    candidates = band.inner[1:] + band.band
    admitted, stop_reason = _admit(center, candidates, cap, year, skip_mode)
    if stop_reason != STOP_CENTER_EXCEEDS_BUDGET:
        # the outer walk may have stopped short of the pool
        stop_reason = (
            STOP_DATA_EXHAUSTED if len(admitted) == len(pool) else STOP_BUDGET_REACHED
        )
    cluster = _cluster(year, center, admitted, cap)
    return cluster, ClusterBuildTrace(center.id, tuple(admitted), stop_reason)


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
    segments = _check_segments(segments, axis)
    issues = validate_dataset(segments, schedule)
    if strict and issues:
        raise ValidationFailedError(issues)

    def build(remaining, center, entry):
        return schedule_aware_cluster(
            remaining,
            center,
            entry.budget,
            entry.low_tolerance,
            entry.high_tolerance,
            year=entry.year,
            skip_mode=skip_mode,
        )

    return _drain_pool(schedule, segments, build, axis=axis, initial_diagnostics=issues)
