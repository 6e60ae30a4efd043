"""Flat cost rows: a segment's one cost in every plan year.

A segment's prices live in its ``CostRow``; lookups are exact, never
interpolated. A cost matrix is no type of its own: it is segments whose rows
share one year index (``io_formats.load_cost_matrix`` reads one,
``io_formats.emit_cost_matrix_csv`` writes one). Without a matrix, a
segment costs its scheduled-year cost in every plan year, in a row from
:func:`flat_rows`, which ``io_formats.load_segments`` and
``synth.synthesize_dataset`` build as they go (:func:`flat_cost_table`
reprices built segments). ``synth.compounded_costs`` makes year-dependent
costs.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Callable, Iterable, Sequence

from .model import CostRow, Segment


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
