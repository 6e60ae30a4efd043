"""Distance kernel: a nearest-first stream around an anchor, and the
farthest-remaining-point search used to seed new clusters.

Everything here is deterministic and exact. The stream (:func:`nearest_first`)
heapifies ``(distance, id, index)`` at its first read and pops lazily, so a
walk that stops at its cap pops only what it reads (incremental nearest
neighbours, Hjaltason & Samet, ACM TODS 1999); ties go by ascending id. It
measures every point, so it checks dimensions only once ``math.dist``
refuses a pair; the farthest-point search, which skips points, checks them
all up front (:func:`check_same_dimension`). That search picks the very
candidate a plain scan of every candidate/clustered pair with ``math.dist``
picks, ties included (the earliest candidate in input order).

**How the search prunes.** The clustered set is held as balls
(:class:`ClusterBalls`), one per cluster: a center ``c`` and the other
members sorted by their radius ``r = dist(c, x)``. For a candidate ``p`` at
``dpc = dist(p, c)`` the triangle inequality puts every member at least
``|dpc - r|`` away (Elkan, ICML 2003), so a member whose ``|dpc - r|``
already reaches the candidate's running minimum ``m`` cannot lower it, and
neither can any member further out in ``r`` on that side. A candidate's
balls are scanned nearest center first, outward from ``bisect(radii,
dpc)``, each side stopping at the first such member; a ball lying wholly
beyond ``m`` (``dpc - r_max >= m``) is the case where the scan stops at
once. Across the years of one plan each candidate keeps ``(m, the balls it
has fully scanned)``, so a new year only scans the new cluster. A candidate
stops as soon as ``m`` falls to the best minimum found so far, because
``m`` only shrinks; it wins only with every ball scanned and ``m`` strictly
above the best, which is the plain scan's tie rule (farthest-point
traversal, Gonzalez, TCS 1985).

**The float margin.** The pruning tests compare computed values, so each
carries a margin ``eps = 1e-9 * (dpc + r_max) + 1e-9`` and reads ``|dpc -
r| - eps >= m``. A member may be skipped only when the ``math.dist`` value
the plain scan would have computed for it is itself ``>= m``: then that
scan would not have lowered ``m`` either, and the minimum comes out the
same float. ``math.dist`` rounds each coordinate difference once and is
accurate to about one ulp after that, so each computed distance is within a
relative ``4u`` of the true one (``u = 2**-53``). The lower bound ``|dpc -
r|``, the margin and the subtraction add a few more roundings, each at most
``u`` relative to ``dpc + r_max``. All of it stays under ``12u * (dpc +
r_max)``, about ``1.3e-15`` of it, which the relative ``1e-9`` covers about
a million times over; the absolute ``1e-9`` covers subnormal results, where
relative bounds fail. A larger margin only prunes less; it never changes a
pick. The input is finite (``Segment`` and :meth:`ClusterBalls.add` refuse
anything else), but a distance between finite points can still overflow to
``inf``: then the margin is ``inf`` too and the test reads ``nan`` or
``-inf``, which never skips, so such members are measured.
"""

from __future__ import annotations

import math
from bisect import bisect
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .model import DimensionMismatchError, Record, Segment

Coords = tuple[float, ...]


class DistanceOrdering(Record):
    """All segments except the anchor, nearest first; ties by ascending id."""

    __slots__ = ("anchor_id", "ordered_ids")

    def __init__(self, anchor_id: str, ordered_ids: tuple[str, ...]) -> None:
        self._set(anchor_id, ordered_ids)


def nearest_first(segments: Sequence[Segment], anchor: Segment) -> Iterator[Segment]:
    """Every segment but the anchor (by id), nearest to it first. The anchor
    is looked for at once; nothing is measured before the first read."""
    if anchor.id not in map(attrgetter("id"), segments):
        raise ValueError(f"anchor {anchor.id!r} is not in the segment list")

    def pop_nearest() -> Iterator[Segment]:
        from heapq import heapify, heappop  # imported by the commands that walk only
        dist, point, anchor_id = math.dist, anchor.coords, anchor.id
        try:
            heap = [
                (dist(point, s.coords), s.id, i)
                for i, s in enumerate(segments)
                if s.id != anchor_id
            ]
        except ValueError:
            check_same_dimension(chain((point,), (seg.coords for seg in segments)))
            raise
        heapify(heap)
        while heap:
            yield segments[heappop(heap)[2]]

    return pop_nearest()


def order_by_distance(segments: Sequence[Segment], anchor: Segment) -> DistanceOrdering:
    return DistanceOrdering(anchor.id, tuple(s.id for s in nearest_first(segments, anchor)))


def check_same_dimension(points: Iterable[Sequence[float]]) -> None:
    """Raise :class:`DimensionMismatchError`, not ``math.dist``'s bare
    ``ValueError``, unless every point has the first one's dimension. Code
    that may skip points calls it up front: the farthest-point search,
    :meth:`ClusterBalls.add` and the baseline medoid (whose axis sort would
    fail first). Code that measures every point calls it only once
    ``math.dist`` has refused a pair: the heap build of :func:`nearest_first`,
    ``refine.band_order`` and the ``metrics`` means."""
    dimension = None
    for point in points:
        if dimension is None:
            dimension = len(point)
        elif len(point) != dimension:
            raise DimensionMismatchError(
                f"points have dimensions {dimension} and {len(point)}"
            )


class ClusterBalls:
    """An append-only clustered point set held as one ball per cluster, plus
    what the farthest-point search has learnt about each candidate so far.

    ``len()`` is the number of clustered points. Hand one instance to
    :func:`furthest_point_from_cluster` year after year, adding each year's
    cluster as it is placed, and every call resumes from the last.
    """

    def __init__(self, groups: Iterable[Sequence[Coords]] = ()) -> None:
        # (center, radii ascending, the other members in that order)
        self.balls: list[tuple[Coords, list[float], list[Coords]]] = []
        self._size = 0
        # candidate coords -> (m, bit set of fully scanned balls): m is the
        # minimum of distances actually measured from that point, and no
        # member of a scanned ball is nearer than m. It depends on the point
        # alone, so keying it by coordinates (never by segment id) is exact.
        self.bounds: dict[Coords, tuple[float, int]] = {}
        for group in groups:
            self.add(group)

    def __len__(self) -> int:
        return self._size

    def add(self, group: Sequence[Coords]) -> None:
        """Append one cluster's coordinates; the first is its ball's center."""
        group = list(group)
        if not group:
            raise ValueError("a clustered group must not be empty")
        anchor = [self.balls[0][0]] if self.balls else []
        check_same_dimension(chain(anchor, group))
        if not all(map(math.isfinite, chain.from_iterable(group))):
            raise ValueError("clustered coordinates must be finite")
        dist, center = math.dist, group[0]
        ranked = sorted((dist(center, x), i) for i, x in enumerate(group) if i)
        self.balls.append(
            (center, [r for r, _ in ranked], [group[i] for _, i in ranked])
        )
        self._size += len(group)


def _scan_ball(
    point: Coords,
    dpc: float,
    radii: list[float],
    members: list[Coords],
    m: float,
    floor: float,
) -> float:
    """``m`` lowered by the ball's members that can lower it: outward from
    ``dpc`` in radius, each side up to the first member provably at ``>= m``
    (see the module notes for the margin). Returns early, incomplete, once
    ``m <= floor``."""
    dist = math.dist
    eps = 1e-9 * (dpc + radii[-1]) + 1e-9 if radii else 0.0
    start = bisect(radii, dpc)
    for k in range(start, len(radii)):
        if radii[k] - dpc - eps >= m:
            break
        d = dist(point, members[k])
        if d < m:
            m = d
            if m <= floor:
                return m
    for k in range(start - 1, -1, -1):
        if dpc - radii[k] - eps >= m:
            break
        d = dist(point, members[k])
        if d < m:
            m = d
            if m <= floor:
                return m
    return m


def furthest_point_from_cluster(
    candidates: Sequence[Segment], clustered: ClusterBalls
) -> Segment:
    """The candidate farthest (min-linkage) from the clustered points.

    A later candidate must be strictly farther to take over, so ties keep
    the earliest one in input order. Note the two arguments play different
    roles: swapping them asks a different question.

    ``clustered`` carries the search from call to call and is updated in
    place; plain coordinates are searched as ``ClusterBalls([coords])``, one
    ball around the first.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list must not be empty")
    if not len(clustered):
        raise ValueError("clustered point set must not be empty")
    balls, bounds = clustered.balls, clustered.bounds
    check_same_dimension(chain((balls[0][0],), (seg.coords for seg in candidates)))
    dist = math.dist
    scanned_all = (1 << len(balls)) - 1
    best: Segment | None = None
    best_distance = -math.inf
    for seg in candidates:
        point = seg.coords
        m, scanned = bounds.get(point, (math.inf, 0))
        # m only shrinks, so once m <= best_distance the candidate cannot win
        if m <= best_distance:
            continue
        if scanned != scanned_all:
            pending = []
            for index, (center, _, _) in enumerate(balls):
                if not scanned >> index & 1:
                    dpc = dist(center, point)
                    if dpc < m:
                        m = dpc
                    pending.append((dpc, index))
            pending.sort()
            for dpc, index in pending:
                if m <= best_distance:
                    break
                _, radii, members = balls[index]
                m = _scan_ball(point, dpc, radii, members, m, best_distance)
                if m > best_distance:
                    scanned |= 1 << index
            bounds[point] = (m, scanned)
        if m > best_distance:
            best, best_distance = seg, m
    return best
