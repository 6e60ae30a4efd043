"""One cluster around a given center, grown under a budget cap.

Admission follows prefix semantics: pool points come nearest-first from
``geometry.nearest_first``, measured only as far as the walk reads, and the
walk stops at the first point that would overflow the cap. ``skip_mode`` (off
by default) scans on for smaller projects, so it measures the whole pool.

The tolerance band refines that walk: three nested clusters are cut from one
nearest-first walk by the per-year tolerances, inner (cap - low), nominal
(cap), and outer (cap + high). Points inside the inner cluster enter the
final cluster purely by distance; the band between inner and outer is then
refilled by urgency (earlier or overdue scheduled year first, then lower
cost) while the nominal cap holds. Every cost is taken in the cluster's year.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from decimal import Decimal
from itertools import chain
from typing import Iterable, Sequence

from .geometry import Pool, check_same_dimension, nearest_first
from .model import MONEY_LIMIT, BudgetEntry, Cluster, Record, Segment, money

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
    pool: Sequence[Segment] | Pool,
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
    # the stream looks for the center at once: a flagged center must be in the pool too
    admitted, stop_reason = _admit(center, nearest_first(pool, center), cap, year, skip_mode)
    cluster = _cluster(year, center, admitted, cap)
    return cluster, ClusterBuildTrace(center.id, tuple(admitted), stop_reason)


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
    pool: Sequence[Segment] | Pool,
    center: Segment,
    budget,
    low_tolerance,
    high_tolerance,
    *,
    year: int | None = None,
) -> ToleranceBand:
    """Cut the inner/nominal/outer clusters from one walk around ``center``,
    pricing at ``year`` or else the center's scheduled year.

    The walk is :func:`radial_neighbor_clustering` to the outer cap, and its
    cluster is the outer one. Prefix admission makes each smaller cap a cut
    of the same walk: the admissions whose running total stays within it,
    and at least the center, which is how a center at or over a cap becomes
    that cap's flagged singleton. The caps must make a :class:`BudgetEntry`
    for the year, refused with its messages, and the outer one stay below
    ``MONEY_LIMIT``.
    """
    year = center.scheduled_year if year is None else year
    entry = BudgetEntry(year, budget, low_tolerance, high_tolerance)
    cap, low, high = entry.budget, entry.low_tolerance, entry.high_tolerance
    if cap + high >= MONEY_LIMIT:
        raise ValueError(f"year {year}: budget + e_h {cap + high} is not below {MONEY_LIMIT:.0E}")
    high_cluster, trace = radial_neighbor_clustering(pool, center, cap + high, year=year)
    totals = [total for _, total in trace.admitted]

    def cut(limit: Decimal) -> Cluster:
        size = max(1, bisect_right(totals, limit))
        return _cluster(year, center, trace.admitted[:size], limit)

    low_cluster = cut(cap - low)
    walked = tuple(seg for seg, _ in trace.admitted)
    band = tuple(band_order(walked[low_cluster.size :], center, year=year))
    return ToleranceBand(low_cluster, cut(cap), high_cluster, walked[: low_cluster.size], band)


def schedule_aware_cluster(
    pool: Sequence[Segment] | Pool,
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
    pool = pool if isinstance(pool, Pool) else Pool(pool)
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
