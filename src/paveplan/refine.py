"""One cluster around a given center, grown under a budget cap.

Admission follows prefix semantics: pool points come nearest-first from
``geometry.nearest_first``, measured only as far as the walk reads, and the
walk stops at the first point that would overflow the cap. ``skip_mode`` (off
by default) scans on for smaller projects, so it measures the whole pool.
Each point keeps the distance the stream measured it at, for the band order,
the trace and the ball that the next center search reads.

The tolerance band refines that walk: three nested clusters are cut from one
nearest-first walk by the per-year tolerances, inner (cap - low), nominal
(cap), and outer (cap + high). Points inside the inner cluster enter the
final cluster purely by distance; the band between inner and outer is then
refilled by urgency (earlier or overdue scheduled year first, then lower
cost) while the nominal cap holds. Every cost is taken in the cluster's year.
"""

from __future__ import annotations

from bisect import bisect_right
from decimal import Decimal
from typing import Iterable, Sequence

from .geometry import Pool, Walked, nearest_first
from .model import MONEY_LIMIT, BudgetEntry, Cluster, Record, Segment, money

STOP_BUDGET_REACHED = "budget_reached"
STOP_DATA_EXHAUSTED = "data_exhausted"
STOP_CENTER_EXCEEDS_BUDGET = "center_exceeds_budget"


class ClusterBuildTrace(Record):
    """Audit trail of one cluster build: admissions as (segment, distance from the
    walk, running total); the center's distance is 0.0."""

    __slots__ = ("center_id", "admitted", "stop_reason")

    def __init__(
        self, center_id: str, admitted: tuple[tuple[Segment, float, Decimal], ...], stop_reason: str
    ) -> None:
        self._set(center_id, admitted, stop_reason)


def _admit(
    center: Segment,
    candidates: Iterable[Walked],
    cap: Decimal,
    year: int,
    skip_mode: bool = False,
) -> tuple[list[tuple[Segment, float, Decimal]], str]:
    """The center, then each ``(distance, segment)`` candidate in turn while
    the running total of their costs in ``year`` stays within ``cap``: the
    admitted ``(segment, distance, running total)`` triples and the stop
    reason. A center at or over the cap is admitted alone, without reading
    ``candidates``, so the overrun is reported, never silent."""
    if cap <= 0:
        raise ValueError("cluster budget must be positive")
    total = center.cost_at(year)
    admitted = [(center, 0.0, total)]
    if total >= cap:
        return admitted, STOP_CENTER_EXCEEDS_BUDGET
    stop_reason = STOP_DATA_EXHAUSTED
    for distance, seg in candidates:
        candidate_cost = seg.cost_at(year)
        if total + candidate_cost <= cap:
            total += candidate_cost
            admitted.append((seg, distance, total))
        else:
            stop_reason = STOP_BUDGET_REACHED
            if not skip_mode:
                break
    return admitted, stop_reason


def _cluster(
    year: int,
    center: Segment,
    admitted: Sequence[tuple[Segment, float, Decimal]],
    cap: Decimal,
) -> Cluster:
    """The cluster of the ``admitted`` (segment, distance, running total)
    triples around ``center`` under ``cap`` in ``year``."""
    return Cluster(
        year=year,
        center_id=center.id,
        member_ids=tuple(seg.id for seg, _, _ in admitted),
        realized_cost=admitted[-1][2],
        budget=cap,
    )


def radial_neighbor_clustering(
    pool: Sequence[Segment] | Pool,
    center: Segment,
    budget,
    *,
    year: int,
    skip_mode: bool = False,
) -> tuple[Cluster, ClusterBuildTrace]:
    """Grow one cluster outward from ``center`` until the budget stops it.

    The center is always a member; a center at or over the budget comes
    back as a flagged singleton. Otherwise the remaining pool is streamed
    nearest-first and each point is admitted while the running total stays
    within the cap. Every cost is taken in ``year``, the cluster's year.
    """
    cap = money(budget)
    # the stream looks for the center at once: a flagged center must be in the pool too
    admitted, stop_reason = _admit(center, nearest_first(pool, center), cap, year, skip_mode)
    cluster = _cluster(year, center, admitted, cap)
    return cluster, ClusterBuildTrace(center.id, tuple(admitted), stop_reason)


class ToleranceBand(Record):
    """The three nested clusters, the inner one's walked points and the band's in refill order."""

    __slots__ = ("low_cluster", "mid_cluster", "high_cluster", "inner", "band")

    def __init__(
        self, low_cluster: Cluster, mid_cluster: Cluster, high_cluster: Cluster,
        inner: tuple[Walked, ...], band: tuple[Walked, ...],
    ) -> None:
        self._set(low_cluster, mid_cluster, high_cluster, inner, band)

    @property
    def band_ids(self) -> tuple[str, ...]:
        return tuple(seg.id for _, seg in self.band)


def band_order(band: Sequence[Walked], *, year: int) -> list[Walked]:
    """Urgency order for walked band points: ascending scheduled year (overdue
    work naturally sorts first), then ascending cost in ``year``, then the
    walk's distance, then id."""
    return sorted(band, key=lambda p: (p[1].scheduled_year, p[1].cost_at(year), p[0], p[1].id))


def build_tolerance_band(
    pool: Sequence[Segment] | Pool,
    center: Segment,
    entry: BudgetEntry,
) -> ToleranceBand:
    """Cut the inner/nominal/outer clusters from one walk around ``center``,
    at the caps of ``entry`` and priced in its year.

    The walk is :func:`radial_neighbor_clustering` to the outer cap, and its
    cluster is the outer one. Prefix admission makes each smaller cap a cut
    of the same walk: the admissions whose running total stays within it,
    and at least the center, which is how a center at or over a cap becomes
    that cap's flagged singleton. The outer cap must stay below
    ``MONEY_LIMIT``.
    """
    year, cap, low, high = entry.year, entry.budget, entry.low_tolerance, entry.high_tolerance
    if cap + high >= MONEY_LIMIT:
        raise ValueError(f"year {year}: budget + e_h {cap + high} is not below {MONEY_LIMIT:.0E}")
    high_cluster, trace = radial_neighbor_clustering(pool, center, cap + high, year=year)
    totals = [total for _, _, total in trace.admitted]

    def cut(limit: Decimal) -> Cluster:
        size = max(1, bisect_right(totals, limit))
        return _cluster(year, center, trace.admitted[:size], limit)

    low_cluster = cut(cap - low)
    walked = tuple((distance, seg) for seg, distance, _ in trace.admitted)
    band = tuple(band_order(walked[low_cluster.size :], year=year))
    return ToleranceBand(low_cluster, cut(cap), high_cluster, walked[: low_cluster.size], band)


def schedule_aware_cluster(
    pool: Sequence[Segment] | Pool,
    center: Segment,
    entry: BudgetEntry,
    *,
    skip_mode: bool = False,
) -> tuple[Cluster, ClusterBuildTrace]:
    """Final cluster: all of the inner cluster, then band points in urgency
    order while ``entry``'s nominal cap holds, priced in its year.

    Without ``skip_mode``, both tolerances at zero reduce exactly to
    :func:`radial_neighbor_clustering` (same members, same trace). With it
    they need not: skipping applies only to the band, which is then empty.
    """
    year, cap = entry.year, entry.budget
    pool = pool if isinstance(pool, Pool) else Pool(pool)
    band = build_tolerance_band(pool, center, entry)
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
