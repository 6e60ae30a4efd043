"""Distance kernel: a nearest-first stream around an anchor, and the
farthest-remaining-point search used to seed new clusters.

Everything here is deterministic and exact. The stream (:func:`nearest_first`)
yields a pool in ``(math.dist, id)`` order but measures only the slab it
reaches: a :class:`Pool` is sorted on the first coordinate, whose gap ``|dx|``
bounds a distance (Friedman, Baskett & Shustek, 1975), and the nearer side's
next point is measured until the heap top lies below the next ``|dx|``. Both
searches skip points, so check dimensions first (:func:`check_same_dimension`);
the farthest-point search picks what a plain scan of every candidate/clustered
pair picks, ties included (the earliest candidate in input order).

**The slab margin.** The heap top ``h`` pops only when ``h < g * (1 - 1e-9) -
1e-9``, for ``g`` the computed ``|dx|`` of the nearest unmeasured point. Each
unmeasured point's ``math.dist`` is at least ``g * (1 - 5u)``: ``g`` rounds an
exact gap once, and ``math.dist`` is within ``4u`` (see below) of a true
distance no smaller than that gap. So ``h`` is strictly nearer, and ``<=``
pops the same. A subnormal ``g`` pops nothing; an overflowing ``g`` is
``inf``, as is that point's ``math.dist``. From 3.10 CPython's ``math.dist``
is faithfully rounded, never below ``g``, so no input there needs the margin.

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
from bisect import bisect, bisect_left
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

from .model import DimensionMismatchError, Record, Segment, first_repeat

Coords = tuple[float, ...]


class DistanceOrdering(Record):
    """All segments except the anchor, nearest first; ties by ascending id."""

    __slots__ = ("anchor_id", "ordered_ids")

    def __init__(self, anchor_id: str, ordered_ids: tuple[str, ...]) -> None:
        self._set(anchor_id, ordered_ids)


class Pool:
    """Segments not yet placed, sorted once on the first coordinate. ``len()``
    and iteration (in input order) see the live ones; :meth:`remove` drops ids.
    Each id may appear once, as a plan keys its members by id. Pools only
    shrink, so the first walk that reads checks every dimension."""

    def __init__(self, segments: Iterable[Segment]) -> None:
        self.segments = segments = list(segments)
        self.first = {seg.id: i for i, seg in enumerate(segments)}  # id -> input position
        if len(self.first) < len(segments):
            twin = first_repeat(seg.id for seg in segments)
            raise ValueError(f"segment id {twin!r} appears more than once")
        xs = [seg.coords[0] for seg in segments]
        self.order = sorted(range(len(xs)), key=xs.__getitem__)
        self.xs = list(map(xs.__getitem__, self.order))
        self.live = bytearray(b"\1") * len(segments)
        self.checked: tuple[Coords, ...] = ()  # a point of the checked dimension

    def __len__(self) -> int:
        return self.live.count(1)

    def __iter__(self) -> Iterator[Segment]:
        return compress(self.segments, self.live)

    def remove(self, ids: Iterable[str]) -> None:
        for seg_id in ids:
            i = self.first.pop(seg_id, None)
            if i is not None:
                self.live[i] = 0


def nearest_first(segments: Sequence[Segment] | Pool, anchor: Segment) -> Iterator[Segment]:
    """The live segments but the anchor's id, nearest first, from a :class:`Pool` or a
    wrapped sequence. A missing anchor raises at once; nothing is measured till read."""
    pool = segments if isinstance(segments, Pool) else Pool(segments)
    if anchor.id not in pool.first:
        raise ValueError(f"anchor {anchor.id!r} is not in the segment list")

    def pop_nearest() -> Iterator[Segment]:
        from heapq import heappop, heappush, merge  # imported by the commands that walk only
        point, anchor_id = anchor.coords, anchor.id
        check_same_dimension(chain((point,), pool.checked or (s.coords for s in pool)))
        pool.checked = (point,)
        dist, x, xs, order, live = math.dist, point[0], pool.xs, pool.order, pool.live
        segs, hi, heap = pool.segments, bisect_left(xs, x), []
        left = ((x - xs[k], order[k]) for k in range(hi - 1, -1, -1) if live[order[k]])
        right = ((xs[k] - x, order[k]) for k in range(hi, len(xs)) if live[order[k]])
        for gap, i in merge(left, right):
            bound = gap * (1 - 1e-9) - 1e-9  # see the module notes
            while heap and heap[0][0] < bound:
                yield segs[heappop(heap)[2]]
            if segs[i].id != anchor_id:
                heappush(heap, (dist(point, segs[i].coords), segs[i].id, i))
        while heap:
            yield segs[heappop(heap)[2]]

    return pop_nearest()


def order_by_distance(segments: Sequence[Segment], anchor: Segment) -> DistanceOrdering:
    return DistanceOrdering(anchor.id, tuple(s.id for s in nearest_first(segments, anchor)))


def check_same_dimension(points: Iterable[Sequence[float]]) -> None:
    """Raise :class:`DimensionMismatchError`, not ``math.dist``'s bare
    ``ValueError``, unless every point has the first one's dimension. Code
    that skips points calls it up front (:func:`nearest_first`, the farthest-
    point search, :meth:`ClusterBalls.add`, the baseline medoid); code that
    reads every point, once ``math.dist`` refuses a pair or an axis is out of
    range (``radial.select_initial_center``, ``refine.band_order``, the
    ``metrics`` means)."""
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
