"""Year-dependent project costs.

A segment's prices live in its ``CostRow``; lookups are exact, never
interpolated. A cost matrix is no type of its own: it is segments whose rows
share one year index (``io_formats.load_cost_matrix`` reads one,
``io_formats.emit_cost_matrix_csv`` writes one). Without a matrix,
:func:`flat_cost_table` prices each segment at its scheduled-year cost in
every plan year. :func:`compounded_costs` stands in for per-year
planning-software runs: a base cost compounds by a growth rate per calendar
year away from the project's own scheduled year. Conservation accounting
compares a plan's realized per-year costs against the budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, Overflow, ROUND_HALF_UP
from typing import Iterable, Mapping, Sequence

from .model import (
    CENT,
    MONEY_LIMIT,
    ZERO,
    BudgetSchedule,
    CostRow,
    Plan,
    Segment,
    cluster_cost,
    segment_lookup,
)


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


def flat_cost_table(segments: Iterable[Segment], years: Sequence[int]) -> list[Segment]:
    """Price each segment at its scheduled-year cost in every plan year.

    Every row holds that one cost under one year index that all rows share.
    A segment scheduled outside the plan years is also priced in its own
    year, under an index of its own.
    """
    shared = dict.fromkeys(sorted({int(y) for y in years}), 0)
    out = []
    for seg in segments:
        index = shared
        if seg.scheduled_year not in shared:
            index = dict.fromkeys(sorted([*shared, seg.scheduled_year]), 0)
        row = CostRow(index, (seg.base_cost(),))
        out.append(Segment(seg.id, seg.coords, row, seg.scheduled_year))
    return out


@dataclass(frozen=True)
class YearConservation:
    year: int
    budget: Decimal
    realized_cost: Decimal
    deviation: Decimal  # realized - budget; positive means over-run


@dataclass(frozen=True)
class ConservationReport:
    rows: tuple[YearConservation, ...]
    total_budget: Decimal
    total_cost: Decimal
    total_deviation: Decimal
    tolerance: Decimal
    within_tolerance: bool


def conservation_report(
    plan: Plan,
    schedule: BudgetSchedule,
    segments: Iterable[Segment] | Mapping[str, Segment] | None = None,
) -> ConservationReport:
    """Per-year budget vs realized cost with signed deviations.

    Totals are exact decimal column sums. When ``segments`` is given the
    realized costs are recomputed from the lookup instead of trusting the
    stored values.
    """
    if len(plan.clusters) != len(schedule.entries) or any(
        c.year != e.year for c, e in zip(plan.clusters, schedule.entries)
    ):
        raise ValueError("plan clusters do not align with the schedule years")
    lookup = segment_lookup(segments) if segments is not None else None
    rows = []
    for cluster, entry in zip(plan.clusters, schedule.entries):
        realized = (
            cluster_cost(cluster, lookup) if lookup is not None else cluster.realized_cost
        )
        rows.append(
            YearConservation(entry.year, entry.budget, realized, realized - entry.budget)
        )
    total_budget = sum((r.budget for r in rows), ZERO)
    total_cost = sum((r.realized_cost for r in rows), ZERO)
    total_deviation = total_cost - total_budget
    return ConservationReport(
        rows=tuple(rows),
        total_budget=total_budget,
        total_cost=total_cost,
        total_deviation=total_deviation,
        tolerance=schedule.conservation_tolerance,
        within_tolerance=abs(total_deviation) <= schedule.conservation_tolerance,
    )
