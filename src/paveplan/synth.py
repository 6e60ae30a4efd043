"""Deterministic synthetic datasets at desk scale.

Segments are drawn as Gaussian blobs on a wide circle so spatial structure
is unmistakable; initial scheduled years are deliberately scattered across
the horizon. Each year's budget is the sum of the costs scheduled into it,
which satisfies the global conservation identity by construction.
:func:`compounded_costs` stands in for per-year planning-software runs: a
base cost compounds by a growth rate per calendar year away from the
project's own scheduled year.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, Overflow, ROUND_DOWN, ROUND_HALF_UP
from typing import Sequence

from .costs import flat_rows
from .model import CENT, MONEY_LIMIT, ZERO, BudgetEntry, BudgetSchedule, CostRow, Segment

SPREAD = 2000.0  # each blob's standard deviation, in map units
BLOB_RADIUS = 50000.0  # the radius of the circle the blob centers sit on


def compounded_costs(
    segment_id: str,
    base: Decimal,
    scheduled_year: int,
    years: Sequence[int],
    growth_rate: float,
) -> tuple[Decimal, ...]:
    """One segment's costs in ``years``, in that order: ``base`` compounded
    by ``growth_rate`` per calendar year away from ``scheduled_year``, gaps in
    ``years`` included (earlier years discount it), each rounded half-up to cents."""
    if growth_rate <= -1:
        raise ValueError("growth rate must be greater than -1")
    factor = Decimal(1) + Decimal(str(growth_rate))
    row = []
    for year in years:
        try:
            value = base * factor ** (year - scheduled_year)
        except Overflow:  # years too far apart for any Decimal
            value = Decimal("Infinity")
        if value >= MONEY_LIMIT:
            raise ValueError(
                f"segment {segment_id}: synthesized cost for year {year} "
                f"is {value:.3E}, not below {MONEY_LIMIT:.0E}"
            )
        value = value.quantize(CENT, rounding=ROUND_HALF_UP)
        if value <= 0:
            raise ValueError(
                f"segment {segment_id}: synthesized cost for year {year} "
                f"rounds to {value}, which is not positive"
            )
        row.append(value)
    return tuple(row)


def _blob_centers(blobs: int) -> list[tuple[float, float]]:
    if blobs == 1:
        return [(0.0, 0.0)]
    return [
        (
            BLOB_RADIUS * math.cos(2.0 * math.pi * i / blobs),
            BLOB_RADIUS * math.sin(2.0 * math.pi * i / blobs),
        )
        for i in range(blobs)
    ]


def synthesize_dataset(
    n: int,
    blobs: int,
    years: Sequence[int],
    seed: int,
    *,
    growth_rate: float = 0.0,
    tolerance_fraction: float = 0.0,
) -> tuple[list[Segment], BudgetSchedule]:
    """Generate ``n`` segments in ``blobs`` spatial groups over ``years``.

    Each year's budget is the exact sum of the costs scheduled into it, and
    its e_l and e_h are ``tolerance_fraction`` of that budget, cut down to
    cents and at most the budget less 0.01. Years are dealt round-robin then
    shuffled, so every year gets work but the spatial scatter per year stays
    random. Fully deterministic per seed.
    """
    if blobs < 1 or n < blobs:
        raise ValueError("need n >= blobs >= 1")
    years = tuple(int(y) for y in years)
    if not years:
        raise ValueError("need at least one year")
    if n < len(years):
        raise ValueError("auto-sized budgets need at least one project per year")
    if not math.isfinite(growth_rate):
        raise ValueError(f"growth rate must be finite, got {growth_rate}")
    if not (math.isfinite(tolerance_fraction) and tolerance_fraction >= 0):
        raise ValueError(
            f"tolerance fraction must be finite and non-negative, got {tolerance_fraction}"
        )
    # from 1 on every tolerance is budget - 0.01, and a product such as
    # 1e300 x budget does not fit the decimal context; abs writes -0.0 as 0.00
    fraction = abs(Decimal(str(min(tolerance_fraction, 1.0))))
    rng = random.Random(seed)
    centers = _blob_centers(blobs)

    year_cycle = [years[i % len(years)] for i in range(n)]
    rng.shuffle(year_cycle)

    # with a growth rate, every row's costs in ``years`` order, one per year
    index = dict(sorted(zip(years, range(len(years)))))
    flat_row = flat_rows(years)
    # each value below is made here and valid by construction (finite
    # coordinates, exact cent costs in 5,000.00 to 15,000.00 or checked by
    # ``compounded_costs``), so each segment is built once, unchecked, as the
    # loaders do
    build = Segment._trusted
    gauss, randint = rng.gauss, rng.randint
    sums = dict.fromkeys(years, ZERO)
    segments: list[Segment] = []
    for i in range(n):
        cx, cy = centers[i % blobs]
        x = gauss(cx, SPREAD)
        y = gauss(cy, SPREAD)
        base = Decimal(randint(500_000, 1_500_000)) * CENT  # exactly 5,000.00-15,000.00
        sid = f"s{i:05d}"
        year = year_cycle[i]
        if growth_rate:
            row = CostRow(index, compounded_costs(sid, base, year, years, growth_rate))
        else:
            row = flat_row(year, base)
        segments.append(build(sid, (x, y), row, year))
        sums[year] += base  # the cost in its own year: compounding leaves it as is
    entries = []
    for year in years:
        budget = sums[year]  # positive: n >= len(years)
        tolerance = min((budget * fraction).quantize(CENT, rounding=ROUND_DOWN), budget - CENT)
        entries.append(BudgetEntry(year, budget, tolerance, tolerance))
    return segments, BudgetSchedule(tuple(entries))
