"""Deterministic synthetic datasets at desk scale.

Segments are drawn as Gaussian blobs on a wide circle so spatial structure
is unmistakable; initial scheduled years are deliberately scattered across
the horizon. Budgets can be auto-sized to the per-year scheduled cost sums,
which satisfies the global conservation identity by construction.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, ROUND_DOWN
from typing import Sequence

from .costs import compounded_costs
from .model import CENT, ZERO, BudgetEntry, BudgetSchedule, CostRow, Segment, money


def _blob_centers(blobs: int, radius: float) -> list[tuple[float, float]]:
    if blobs == 1:
        return [(0.0, 0.0)]
    return [
        (
            radius * math.cos(2.0 * math.pi * i / blobs),
            radius * math.sin(2.0 * math.pi * i / blobs),
        )
        for i in range(blobs)
    ]


def synthesize_dataset(
    n: int,
    blobs: int,
    years: Sequence[int],
    seed: int,
    *,
    spread: float = 2000.0,
    blob_radius: float = 50000.0,
    budgets: Sequence[Decimal] | None = None,
    growth_rate: float = 0.0,
    tolerance_fraction: float = 0.0,
) -> tuple[list[Segment], BudgetSchedule]:
    """Generate ``n`` segments in ``blobs`` spatial groups over ``years``.

    Without explicit ``budgets`` each year's budget is the exact sum of the
    costs scheduled into it. Years are dealt round-robin then shuffled, so
    every year gets work but the spatial scatter per year stays random.
    Fully deterministic per seed.
    """
    if blobs < 1 or n < blobs:
        raise ValueError("need n >= blobs >= 1")
    years = tuple(int(y) for y in years)
    if not years:
        raise ValueError("need at least one year")
    if budgets is None and n < len(years):
        raise ValueError("auto-sized budgets need at least one project per year")
    if not math.isfinite(growth_rate):
        raise ValueError(f"growth rate must be finite, got {growth_rate}")
    if not (math.isfinite(tolerance_fraction) and tolerance_fraction >= 0):
        raise ValueError(
            f"tolerance fraction must be finite and non-negative, got {tolerance_fraction}"
        )
    rng = random.Random(seed)
    centers = _blob_centers(blobs, blob_radius)

    year_cycle = [years[i % len(years)] for i in range(n)]
    rng.shuffle(year_cycle)

    if growth_rate:
        # every row's costs in ``years`` order, one position per year
        index = dict(sorted(zip(years, range(len(years)))))
    else:
        index = dict.fromkeys(sorted(years), 0)  # every row's one cost, each year
    segments: list[Segment] = []
    for i in range(n):
        cx, cy = centers[i % blobs]
        x = rng.gauss(cx, spread)
        y = rng.gauss(cy, spread)
        base = Decimal(rng.randint(500_000, 1_500_000)) / 100  # 5,000.00-15,000.00
        sid = f"s{i:05d}"
        if growth_rate:
            costs = compounded_costs(sid, base, year_cycle[i], years, growth_rate)
        else:
            costs = (base,)
        segments.append(
            Segment(
                id=sid,
                coords=(x, y),
                cost_by_year=CostRow(index, costs),
                scheduled_year=year_cycle[i],
            )
        )

    if budgets is None:
        sums = {year: ZERO for year in years}
        for seg in segments:
            sums[seg.scheduled_year] += seg.base_cost()
        budget_values = [sums[year] for year in years]  # positive: n >= len(years)
    else:
        budget_values = [money(b) for b in budgets]
        if len(budget_values) != len(years):
            raise ValueError(
                f"expected {len(years)} budgets, got {len(budget_values)}"
            )

    entries = []
    for year, budget in zip(years, budget_values):
        if tolerance_fraction:
            tolerance = (budget * Decimal(str(tolerance_fraction))).quantize(
                CENT, rounding=ROUND_DOWN
            )
            tolerance = min(tolerance, budget - CENT)
            tolerance = max(tolerance, ZERO)
        else:
            tolerance = ZERO
        entries.append(
            BudgetEntry(
                year=year,
                budget=budget,
                low_tolerance=tolerance,
                high_tolerance=tolerance,
            )
        )
    return segments, BudgetSchedule(tuple(entries))
