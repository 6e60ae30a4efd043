"""Brute-force reference implementations used only by the test suite.

These deliberately avoid the engine's admission and search code: distances
come from a naive sum-of-squares form, the full sorted candidate list is
materialized up front, and the walk is written from the rules alone. They
were written first and the engine's expected values were frozen from them.
"""

import json
import math
import re
from decimal import Decimal, InvalidOperation


def euclid(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5


def oracle_prefix_cluster(pool, center, cap, cost=None, dist=euclid, skip=False):
    """Member ids, in admission order, of the longest admissible
    distance-ordered prefix; with ``skip``, a point past the cap is passed
    over instead of ending the walk.

    The center is always in; if its own cost meets or exceeds the cap, the
    cluster is just the center. Pass ``dist=math.dist`` to rank by the very
    floats the engine compares.
    """
    if cost is None:
        cost = lambda seg: seg.cost_by_year[seg.scheduled_year]
    cap = cap if isinstance(cap, Decimal) else Decimal(str(cap))
    chosen = [center.id]
    total = cost(center)
    if total >= cap:
        return chosen
    ranked = sorted(
        (seg for seg in pool if seg.id != center.id),
        key=lambda seg: (dist(center.coords, seg.coords), seg.id),
    )
    for seg in ranked:
        if total + cost(seg) > cap:
            if skip:
                continue
            break
        total += cost(seg)
        chosen.append(seg.id)
    return chosen


def oracle_furthest_point(candidates, clustered_coords, dist=euclid):
    """Id of the candidate maximizing the min distance to the clustered set;
    the earliest candidate wins ties (replacement only on strict improvement).
    Pass ``dist=math.dist`` to rank by the very floats the engine compares."""
    clustered_coords = list(clustered_coords)
    best = None
    best_d = None
    for seg in candidates:
        d = min(dist(seg.coords, c) for c in clustered_coords)
        if best is None or d > best_d:
            best, best_d = seg, d
    if best is None:
        raise ValueError("candidate list must not be empty")
    return best.id


def oracle_medoid(members, dist=euclid):
    """Id of the member with the least total distance to all members, each
    total added left to right from 0.0; the smaller id wins ties. Pass
    ``dist=math.dist`` to rank by the very floats the engine's totals add."""
    best = None
    for seg in members:
        total = 0.0
        for other in members:
            total += dist(seg.coords, other.coords)
        if best is None or (total, seg.id) < best:
            best = (total, seg.id)
    if best is None:
        raise ValueError("member list must not be empty")
    return best[1]


def oracle_year_figures(coords, center):
    """The mean distance to ``coords[center]`` and the mean pairwise
    distance of ``coords``, each distance ``math.dist`` of the given values,
    added left to right from 0.0 by a plain double loop; 0 below two points."""
    m = len(coords)
    if m < 2:
        return 0.0, 0.0
    to_center = 0.0
    for b in coords:
        to_center += math.dist(coords[center], b)
    pairwise = 0.0
    for i, a in enumerate(coords):
        for b in coords[i + 1 :]:
            pairwise += math.dist(a, b)
    return to_center / m, pairwise / (m * (m - 1) // 2)


def oracle_cluster_cost(cluster, segments):
    """The cluster's cost recomputed from its members: each member's cost in
    the cluster's year, not its own scheduled year, summed exactly."""
    by_id = {seg.id: seg for seg in segments}
    total = Decimal("0.00")
    for sid in cluster.member_ids:
        total += by_id[sid].cost_by_year[cluster.year]
    return total


def oracle_money(value):
    """``value`` as a cent ``Decimal``, always a fresh quantized copy; more
    than two fractional digits, NaN, infinities, text other than ASCII
    without underscores, and magnitudes of 10**18 or more raise
    ``ValueError``."""
    if isinstance(value, str) and re.search(r"[^\x00-\x7f]|_", value):
        raise ValueError(f"not a money amount: {value!r}")
    if isinstance(value, Decimal):
        dec = value
    elif isinstance(value, float):
        dec = Decimal(str(value))
    else:
        try:
            dec = Decimal(value)
        except InvalidOperation as exc:
            raise ValueError(f"not a money amount: {value!r}") from exc
    if dec.is_nan() or dec.is_infinite():
        raise ValueError(f"not a money amount: {value!r}")
    try:
        quantized = dec.quantize(Decimal("0.01"))
    except InvalidOperation as exc:
        raise ValueError(f"not a money amount: {value!r}") from exc
    if quantized != dec:
        raise ValueError(f"money must have at most 2 decimal places, got {value!r}")
    if len(str(abs(quantized.to_integral_value(rounding="ROUND_DOWN")))) > 18:
        raise ValueError(f"money of 19 or more integer digits: {value!r}")
    return quantized


def oracle_cost_table(table):
    """A segment's cost table, every year's value checked on its own."""
    checked = {}
    for year, value in sorted(table.items()):
        cost = oracle_money(value)
        if cost <= 0:
            raise ValueError(f"cost for {year} must be positive")
        checked[year] = cost
    return checked


def oracle_document_json(obj):
    """The canonical plan document text for the JSON value ``obj``."""
    return json.dumps(obj, indent=2) + "\n"


def oracle_plan_obj(plan, metrics, schedule, lookup, digest):
    """The plan document as plain dicts and lists, built from the plan, its
    metrics and schedule, and the segments by id: each member with both its
    years and its cost in its cluster's year, money as two-decimal strings."""

    def cents(amount):
        return format(amount, ".2f")

    def member(sid, year):
        seg = lookup[sid]
        return {
            "id": sid,
            "coords": list(seg.coords),
            "scheduled_year": seg.scheduled_year,
            "assigned_year": year,
            "cost_used": None if year is None else cents(seg.cost_by_year[year]),
        }

    overall = metrics.overall
    return {
        "format_version": "1",
        "input_digest": digest,
        "schedule": {
            "conservation_tolerance": cents(schedule.conservation_tolerance),
            "entries": [
                {
                    "year": entry.year,
                    "budget": cents(entry.budget),
                    "low_tolerance": cents(entry.low_tolerance),
                    "high_tolerance": cents(entry.high_tolerance),
                }
                for entry in schedule.entries
            ],
        },
        "clusters": [
            {
                "year": cluster.year,
                "center_id": cluster.center_id,
                "budget": cents(cluster.budget),
                "realized_cost": cents(cluster.realized_cost),
                "members": [member(sid, cluster.year) for sid in cluster.member_ids],
            }
            for cluster in plan.clusters
        ],
        "unassigned": [member(sid, None) for sid in plan.unassigned_ids],
        "metrics": {
            "per_year": [
                {
                    "year": y.year,
                    "budget": cents(y.budget),
                    "realized_cost": cents(y.realized_cost),
                    "utilization": y.utilization,
                    "member_count": y.member_count,
                    "mean_member_distance_to_center": y.mean_member_distance_to_center,
                    "mean_pairwise_distance": y.mean_pairwise_distance,
                    "over_budget": y.over_budget,
                }
                for y in metrics.per_year
            ],
            "overall": {
                "total_budget": cents(overall.total_budget),
                "total_cost": cents(overall.total_cost),
                "total_deviation": cents(overall.total_deviation),
                "weighted_mean_dispersion": overall.weighted_mean_dispersion,
            },
            "unassigned_count": metrics.unassigned_count,
        },
        "diagnostics": [
            {
                "code": diag.code,
                "message": diag.message,
                "year": diag.year,
                "segment_ids": list(diag.segment_ids),
            }
            for diag in plan.diagnostics
        ],
    }
