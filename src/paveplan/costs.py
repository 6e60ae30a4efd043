"""Year-dependent project costs.

A cost scenario matrix holds, for every project, its price at every horizon
year; lookups are exact, never interpolated. The synthetic generator stands
in for per-year planning-software runs: a base cost compounds by a growth
rate per year away from the project's own scheduled year. Conservation
accounting compares a plan's realized per-year costs against the budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .model import (
    CENT,
    MONEY_LIMIT,
    ZERO,
    BudgetSchedule,
    CostRow,
    Plan,
    Segment,
    UnknownSegmentError,
    cluster_cost,
    money,
    segment_lookup,
)


@dataclass(frozen=True)
class CostScenarioMatrix:
    """Per-project cost at every horizon year; rows align with ``years``."""

    years: tuple[int, ...]
    per_segment: Mapping[str, tuple[Decimal, ...]]

    def __post_init__(self) -> None:
        years = tuple(int(y) for y in self.years)
        if not years:
            raise ValueError("matrix needs at least one year")
        if len(set(years)) != len(years):
            raise ValueError("matrix years must be unique")
        rows: dict[str, tuple[Decimal, ...]] = {}
        for sid, values in self.per_segment.items():
            row = tuple(money(v) for v in values)
            if len(row) != len(years):
                raise ValueError(
                    f"segment {sid}: expected {len(years)} cost values, got {len(row)}"
                )
            if any(v <= 0 for v in row):
                raise ValueError(f"segment {sid}: all costs must be positive")
            rows[sid] = row
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "per_segment", MappingProxyType(rows))


def synthesize_cost_matrix(
    base_costs: Mapping[str, Decimal],
    years: Sequence[int],
    growth_rate: float,
    scheduled_years: Mapping[str, int],
) -> CostScenarioMatrix:
    """Exponential cost table: each project's base cost compounds by
    ``growth_rate`` per year away from its own scheduled year (so earlier
    years discount it), rounded half-up to cents."""
    if growth_rate <= -1:
        raise ValueError("growth rate must be greater than -1")
    years = tuple(int(y) for y in years)
    factor = Decimal(1) + Decimal(str(growth_rate))
    rows: dict[str, tuple[Decimal, ...]] = {}
    for sid, base in base_costs.items():
        base = money(base)
        if sid not in scheduled_years:
            raise ValueError(f"no scheduled year for segment {sid}")
        anchor = scheduled_years[sid]
        if anchor not in years:
            raise ValueError(
                f"segment {sid}: scheduled year {anchor} is outside the horizon"
            )
        anchor_index = years.index(anchor)
        row = []
        for index in range(len(years)):
            value = base * factor ** (index - anchor_index)
            if value >= MONEY_LIMIT:
                raise ValueError(
                    f"segment {sid}: synthesized cost for year {years[index]} "
                    f"is {value:.3E}, not below {MONEY_LIMIT:.0E}"
                )
            value = value.quantize(CENT, rounding=ROUND_HALF_UP)
            if value <= 0:
                raise ValueError(
                    f"segment {sid}: synthesized cost for year {years[index]} "
                    f"rounds to {value}, which is not positive"
                )
            row.append(value)
        rows[sid] = tuple(row)
    return CostScenarioMatrix(years, rows)


def apply_cost_matrix(
    segments: Iterable[Segment], matrix: CostScenarioMatrix
) -> list[Segment]:
    """New segments whose cost rows are the matrix's own row tuples, under
    one year index shared by all of them."""
    index = dict(sorted(zip(matrix.years, range(len(matrix.years)))))
    out = []
    for seg in segments:
        if seg.id not in matrix.per_segment:
            raise UnknownSegmentError(f"segment {seg.id} is missing from the cost matrix")
        row = CostRow(index, matrix.per_segment[seg.id])
        out.append(Segment(seg.id, seg.coords, row, seg.scheduled_year))
    return out


def matrix_from_segments(
    segments: Iterable[Segment], years: Sequence[int]
) -> CostScenarioMatrix:
    """Inverse of :func:`apply_cost_matrix`; the round trip is lossless."""
    years = tuple(int(y) for y in years)
    rows = {seg.id: tuple(seg.cost_at(y) for y in years) for seg in segments}
    return CostScenarioMatrix(years, rows)


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
