"""Distance kernel: point-point and point-to-set distances, distance-ordered
enumeration around an anchor, and the farthest-remaining-point search used
to seed new clusters.

Everything here is deterministic and exact. The farthest-point search is
incremental: across the years of one plan, each candidate point keeps the
exact minimum of its distances to a prefix of the (append-only) clustered
set, and resumes from there. A candidate whose minimum already fails to
beat the best so far is skipped or stops scanning, because the minimum can
only shrink. So no candidate/assigned pair is measured twice, most are
never measured, and the chosen point is exactly the one a full quadratic
scan picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .model import DimensionMismatchError, Segment

Coords = tuple[float, ...]


def distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance; raises on mixed dimensionality."""
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"points have dimensions {len(a)} and {len(b)}"
        )
    return math.dist(a, b)


def point_set_distance(point_set: Iterable[Coords], point: Sequence[float]) -> float:
    """Min-linkage distance from ``point`` to the set; 0 when it belongs."""
    best: float | None = None
    for member in point_set:
        d = distance(member, point)
        if best is None or d < best:
            best = d
    if best is None:
        raise ValueError("point set must not be empty")
    return best


@dataclass(frozen=True)
class DistanceOrdering:
    """All segments except the anchor, nearest first; ties by ascending id."""

    anchor_id: str
    ordered_ids: tuple[str, ...]


def order_by_distance(segments: Sequence[Segment], anchor: Segment) -> DistanceOrdering:
    if not any(seg.id == anchor.id for seg in segments):
        raise ValueError(f"anchor {anchor.id!r} is not in the segment list")
    ranked = sorted(
        (distance(anchor.coords, seg.coords), seg.id)
        for seg in segments
        if seg.id != anchor.id
    )
    return DistanceOrdering(anchor.id, tuple(sid for _, sid in ranked))


# candidate coords -> (m, k): m is the exact min-linkage distance from that
# point to clustered[:k]. The bound depends on the point alone, so keying it
# by coordinates (never by segment id) is exact: segments sharing an id but
# not their coords get bounds of their own.
MinLinkageBounds = dict[Coords, tuple[float, int]]


def check_same_dimension(points: Iterable[Sequence[float]]) -> None:
    """Raise unless every point has the dimension of the first; lets hot
    loops call ``math.dist`` directly instead of :func:`distance`."""
    dimension = None
    for point in points:
        if dimension is None:
            dimension = len(point)
        elif len(point) != dimension:
            raise DimensionMismatchError(
                f"points have dimensions {dimension} and {len(point)}"
            )


def furthest_point_from_cluster(
    candidates: Sequence[Segment],
    clustered: Sequence[Coords],
    bounds: MinLinkageBounds | None = None,
) -> Segment:
    """The candidate farthest (min-linkage) from the clustered coordinates.

    A later candidate must be strictly farther to take over, so ties keep
    the earliest one in input order. Note the two arguments play different
    roles: swapping them asks a different question.

    ``bounds`` carries the search across calls whose ``clustered`` only
    ever grows by appending (one plan's assigned coordinates, year after
    year); it is updated in place. Without it every call starts afresh.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list must not be empty")
    clustered = list(clustered)
    if not clustered:
        raise ValueError("clustered point set must not be empty")
    check_same_dimension(chain(clustered, (seg.coords for seg in candidates)))
    if bounds is None:
        bounds = {}
    dist = math.dist
    size = len(clustered)
    first = clustered[0]
    best: Segment | None = None
    best_distance = -math.inf
    for seg in candidates:
        point = seg.coords
        m, k = bounds.get(point) or (dist(first, point), 1)
        # m only shrinks as the scan goes on, so once m <= best_distance the
        # candidate cannot win; the first candidate is always scanned in full
        if m > best_distance or best is None:
            while k < size:
                d = dist(clustered[k], point)
                k += 1
                if d < m:
                    m = d
                    if m <= best_distance:
                        break
            else:
                best, best_distance = seg, m
        bounds[point] = (m, k)
    return best
