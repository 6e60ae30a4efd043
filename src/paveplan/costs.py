"""Year-dependent project costs.

A segment's prices live in its ``CostRow``; lookups are exact, never
interpolated. A cost matrix is no type of its own: it is segments whose rows
share one year index (``io_formats.load_cost_matrix`` reads one,
``io_formats.emit_cost_matrix_csv`` writes one). Without a matrix, a
segment costs its scheduled-year cost in every plan year, in a row from
:func:`flat_rows`, which ``io_formats.load_segments`` builds as it parses
(:func:`flat_cost_table` reprices built segments). :func:`compounded_costs`
stands in for per-year planning-software runs: a base cost compounds by a
growth rate per calendar year away from the project's own scheduled year.
"""

from __future__ import annotations

from decimal import Decimal, Overflow, ROUND_HALF_UP
from typing import Callable, Iterable, Sequence

from .model import CENT, MONEY_LIMIT, CostRow, Segment


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


def flat_rows(years: Iterable[int]) -> Callable[[int, Decimal], CostRow]:
    """``row(year, cost)``: ``cost`` in every plan year, under one index all
    rows share; a year outside ``years`` is added under an index of its own,
    shared by that year's rows."""
    shared = dict.fromkeys(sorted({int(y) for y in years}), 0)
    indexes = dict.fromkeys(shared, shared)

    def row(year: int, cost: Decimal) -> CostRow:
        if year not in indexes:
            indexes[year] = dict.fromkeys(sorted([*shared, year]), 0)
        return CostRow(indexes[year], (cost,))

    return row


def flat_cost_table(segments: Iterable[Segment], years: Sequence[int]) -> list[Segment]:
    """Price each segment at its scheduled-year cost in every plan year."""
    row = flat_rows(years)
    return [
        Segment(s.id, s.coords, row(s.scheduled_year, s.base_cost()), s.scheduled_year)
        for s in segments
    ]
