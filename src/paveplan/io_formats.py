"""CSV ingestion, canonical plan documents (JSON), and schematic SVG maps.

Formats are deliberately deterministic: identical inputs yield byte-identical
documents, money is always rendered with two decimals, and floats use their
shortest round-trip form. A plan document is written from a fixed template,
never built as one object; its bytes are ``json.dumps(obj, indent=2) +
"\\n"`` of the object it describes, which tests and CI check on every
supported Python. It is read by writing it again: only its primary fields
are parsed, the rest is derived, and the template's bytes must equal the
text, so only what paveplan writes reads back. A segments CSV is checked
a column at a time; one that fails is read again row by row, which names
its first bad cell with the same message.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from decimal import Decimal
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import add, attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .costs import flat_rows
from .metrics import PlanMetrics, _plan_metrics, _year_metrics
from .model import (
    CENT,
    MONEY_LIMIT,
    ZERO,
    BudgetEntry,
    BudgetSchedule,
    Cluster,
    CostRow,
    Diagnostic,
    DimensionMismatchError,
    PavePlanError,
    Plan,
    Record,
    Segment,
    UnknownSegmentError,
    coordinate_lookup,
    money,
)

FORMAT_VERSION = "1"


class CsvFormatError(PavePlanError):
    """Malformed tabular input; carries the 1-based row (and column) that failed."""

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.row = row
        self.column = column


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each with its ``"\\n"``, as ``io.StringIO(text)``
    yields them, without its copy of the text at four bytes a character."""
    lines = text.split("\n")
    last = lines.pop()
    return chain(map(add, lines, repeat("\n")), [last] if last else ())


def _rows(text: str) -> Iterator[list[str]]:
    """The non-blank rows of ``text``, each parsed only when it is read."""
    reader = csv.reader(_lines(text))
    try:
        for row in reader:
            if "".join(row).strip():
                yield row
    except csv.Error as exc:
        # e.g. a field over the csv module's size limit
        raise CsvFormatError(str(exc), row=reader.line_num) from None


def _table(text: str, what: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The ``what`` CSV's stripped header, and its data rows numbered among
    the non-blank rows (the header is row 1), each checked for width as read."""
    rows = _rows(text)
    header = next(rows, None)
    if header is None:
        raise CsvFormatError(f"{what} CSV is empty")

    def numbered() -> Iterator[tuple[int, list[str]]]:
        for line_no, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise CsvFormatError(f"expected {len(header)} fields, got {len(row)}", row=line_no)
            yield line_no, row

    return [cell.strip() for cell in header], numbered()


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search
_NO_COSTS = CostRow({}, ())


def _csv_cell(text: str) -> str:
    """``text`` as one CSV field, quoted only when ``csv.reader`` needs it."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _parse_coords(cells: list[str], row: int, columns: list[str]) -> tuple[float, ...]:
    """``cells`` as finite floats written in ASCII without underscores
    (``float`` reads ``٣`` and ``1_0``), naming the first bad cell."""
    coords = []
    for value, column in zip(cells, columns):
        try:
            if not value.isascii() or "_" in value:
                raise ValueError
            number = float(value)
        except ValueError:
            raise CsvFormatError(f"malformed number {value!r}", row=row, column=column) from None
        if not math.isfinite(number):
            raise CsvFormatError(f"non-finite number {value!r}", row=row, column=column)
        coords.append(number)
    return tuple(coords)


def parse_int(text: str) -> int:
    """``text`` as a decimal integer: ASCII digits after an optional sign,
    with surrounding whitespace. ``int()`` alone also takes ``2_018`` and
    non-ASCII digits such as ``٢٠١٩``; those raise ``ValueError`` here."""
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def _parse_int(value: str, row: int, column: str) -> int:
    try:
        return parse_int(value)
    except ValueError:
        raise CsvFormatError(f"malformed integer {value!r}", row=row, column=column) from None


def _parse_money(value: str, row: int, column: str) -> Decimal:
    try:
        return money(value.strip())
    except ValueError as exc:
        raise CsvFormatError(str(exc), row=row, column=column) from None


def _parse_cost(value: str, row: int, column: str) -> Decimal:
    cost = _parse_money(value, row, column)
    if cost <= 0:
        raise CsvFormatError(f"cost must be positive, got {cost}", row=row, column=column)
    return cost


def _new_id(cell: str, row: int, first_row_of: dict[str, int]) -> str:
    """The id in ``cell``, recorded in ``first_row_of``: never empty, never seen before."""
    sid = cell.strip()
    if not sid:
        raise CsvFormatError("empty id", row=row, column="id")
    if sid in first_row_of:
        raise CsvFormatError(
            f"duplicate id {sid!r} (first seen on row {first_row_of[sid]})", row=row, column="id"
        )
    first_row_of[sid] = row
    return sid


def _segment_header(header: list[str]) -> tuple[int, bool]:
    """The stripped header's ``scheduled_year`` index, and whether ``cost`` follows."""
    if not header or header[0] != "id":
        raise CsvFormatError("first column must be 'id'", row=1)
    if "scheduled_year" not in header:
        raise CsvFormatError("missing required column 'scheduled_year'", row=1)
    year_index = header.index("scheduled_year")
    if year_index == 1:
        raise CsvFormatError(
            "need at least one coordinate column between 'id' and 'scheduled_year'",
            row=1,
        )
    trailing = header[year_index + 1 :]
    if trailing and trailing != ["cost"]:
        raise CsvFormatError(
            f"unexpected columns after 'scheduled_year': {trailing}", row=1
        )
    return year_index, bool(trailing)


def _segment_rows(text: str) -> Iterator[tuple]:
    """The segments CSV ``id,x,y[,z...],scheduled_year[,cost]``, row by row,
    as ``(id, coords, scheduled_year, cost or None)``; each cell is checked
    once, as it is read, naming its row and column."""
    header, rows = _table(text, "segments")
    year_index, has_cost = _segment_header(header)
    coord_names = header[1:year_index]
    first_row_of: dict[str, int] = {}
    for line_no, row in rows:
        sid = _new_id(row[0], line_no, first_row_of)
        coords = _parse_coords(row[1:year_index], line_no, coord_names)
        year = _parse_int(row[year_index], line_no, "scheduled_year")
        cost = _parse_cost(row[year_index + 1], line_no, "cost") if has_cost else None
        yield sid, coords, year, cost
    if not first_row_of:
        raise CsvFormatError("segments CSV has no data rows")


# rows checked at a time: each block's cells reuse the memory the last
# block's freed (a 14,400-row file's cells all at once left ~5 MB behind)
_BLOCK_ROWS = 1024


def _ascii_column(cells: Sequence[str], kind: type) -> list:
    """``kind`` of each of ``cells``, which must be ASCII without ``_``
    (``float``, ``int`` and ``Decimal`` also read ``٣`` and ``1_0``)."""
    joined = "".join(cells)
    if not joined.isascii() or "_" in joined:
        raise ValueError("not ASCII")
    return list(map(kind, cells))


def _segment_columns(text: str, priced: bool = True) -> tuple:
    """The segments CSV as ``(ids, points, years, costs or None)``, each
    column checked and converted by C-level maps, which take only what the
    row reader ``_segment_rows`` takes, as the same values; unless
    ``priced``, years and costs are checked but not kept. A file that fails
    any check is read again by the row reader, which names the first bad cell."""
    try:
        rows = csv.reader(_lines(text))
        header, ids, years, costs = None, [], [], []
        while block := list(islice(rows, _BLOCK_ROWS)):
            block = list(compress(block, map(str.strip, map("".join, block))))
            if header is None and block:
                header = list(map(str.strip, block.pop(0)))
                year_index, has_cost = _segment_header(header)
                coords = [[] for _ in range(1, year_index)]
            if not block:
                continue
            if {*map(len, block)} != {len(header)}:
                raise ValueError("rows of another width")
            columns = list(zip(*block))
            ids += map(str.strip, columns[0])
            for values, cells in zip(coords, columns[1:year_index]):
                values += _ascii_column(cells, float)
            block_years = _ascii_column(columns[year_index], int)
            if has_cost:
                read = _ascii_column(list(map(str.strip, columns[-1])), Decimal)
                quantized = list(map(Decimal.quantize, read, repeat(CENT)))  # exponent -2
                if quantized != read or not ZERO < min(read) <= max(read) < MONEY_LIMIT:
                    raise ValueError("a cost money() refuses or not positive")
            if priced:
                years += block_years
                costs += quantized if has_cost else ()
        if (
            not ids or not all(ids) or len(set(ids)) < len(ids)
            or not all(all(map(math.isfinite, values)) for values in coords)
        ):
            raise ValueError("an id or coordinate the row reader refuses")
        return ids, list(zip(*coords)), years, costs if has_cost else None
    except (csv.Error, CsvFormatError, ValueError, ArithmeticError):  # decimal's too
        pass
    ids, points, years, costs = zip(*_segment_rows(text))
    return ids, points, years, None if costs[0] is None else costs


def load_segments(text: str, years: Iterable[int] | None = None) -> list[Segment]:
    """The segments CSV's rows as segments, in row order (README "File
    formats"), each built once (``Segment._trusted``) with its cost in a
    flat row over the plan ``years``, or its own year without them. Given
    ``years`` but no cost column, raises ``MissingCostError``."""
    ids, points, scheduled, costs = _segment_columns(text)
    rows = repeat(_NO_COSTS) if costs is None else map(flat_rows(years or ()), scheduled, costs)
    segments = list(map(Segment._trusted, ids, points, rows, scheduled))
    if years is not None:
        segments[0].base_cost()  # without a cost column, raises MissingCostError
    return segments


def load_coordinates(text: str) -> dict[str, tuple]:
    """The segments CSV as id -> coordinates, checked as by ``load_segments``."""
    return dict(zip(*_segment_columns(text, priced=False)[:2]))


def _coord_names(dimension: int) -> list[str]:
    names = ["x", "y", "z"][:dimension]
    names.extend(f"c{i}" for i in range(len(names), dimension))
    return names


def emit_segments_csv(segments: Sequence[Segment]) -> str:
    """Segments back to CSV with the scheduled-year cost column. Every cost
    a segment holds is a cent amount, whose ``str`` has two decimals."""
    if not segments:
        raise ValueError("nothing to emit")
    dimension = segments[0].dimension
    ids = [seg.id for seg in segments]
    if _NEEDS_QUOTES("".join(ids)):  # one search over every id, not one per row
        ids = list(map(_csv_cell, ids))
    lines = ["id," + ",".join(_coord_names(dimension)) + ",scheduled_year,cost"]
    for sid, seg in zip(ids, segments):
        lines.append(
            f"{sid},{','.join(map(repr, seg.coords))},{seg.scheduled_year},{seg.base_cost()}"
        )
    lines.append("")
    return "\n".join(lines)


def load_budgets(
    text: str, *, conservation_tolerance: Decimal = Decimal("0.00")
) -> BudgetSchedule:
    """Parse the budgets CSV: ``year,budget[,e_l,e_h]``."""
    header, rows = _table(text, "budgets")
    if header not in (["year", "budget"], ["year", "budget", "e_l", "e_h"]):
        raise CsvFormatError(
            "header must be 'year,budget' or 'year,budget,e_l,e_h'", row=1
        )
    with_tolerances = len(header) == 4
    entries = []
    for line_no, row in rows:
        year = _parse_int(row[0], line_no, "year")
        budget = _parse_money(row[1], line_no, "budget")
        low = _parse_money(row[2], line_no, "e_l") if with_tolerances else Decimal("0.00")
        high = _parse_money(row[3], line_no, "e_h") if with_tolerances else Decimal("0.00")
        try:
            entries.append(
                BudgetEntry(year=year, budget=budget, low_tolerance=low, high_tolerance=high)
            )
        except ValueError as exc:
            raise CsvFormatError(str(exc), row=line_no) from None
    if not entries:
        raise CsvFormatError("budgets CSV has no data rows")
    try:
        return BudgetSchedule(tuple(entries), conservation_tolerance)
    except ValueError as exc:
        raise CsvFormatError(str(exc)) from None


def emit_budgets_csv(schedule: BudgetSchedule) -> str:
    lines = ["year,budget,e_l,e_h"]
    for entry in schedule.entries:
        lines.append(
            f"{entry.year},{entry.budget:.2f},{entry.low_tolerance:.2f},{entry.high_tolerance:.2f}"
        )
    return "\n".join(lines) + "\n"


def load_cost_matrix(text: str, segments: Iterable[Segment]) -> list[Segment]:
    """``segments`` priced by the cost-matrix CSV, header ``id,Y<year1>,...``.

    Each segment's costs are its matrix row's tuple, under one year index that
    all rows share. Each cell is parsed and checked once, here, and the
    segments are rebuilt unchecked; a segment the matrix lacks raises
    :class:`UnknownSegmentError`.
    """
    header, rows = _table(text, "cost matrix")
    if not header or header[0] != "id" or len(header) < 2:
        raise CsvFormatError("header must be 'id,Y<year>,...'", row=1)
    index: dict[int, int] = {}
    for position, name in enumerate(header[1:]):
        if not name.startswith("Y"):
            raise CsvFormatError(f"year column {name!r} must start with 'Y'", row=1)
        year = _parse_int(name[1:], 1, name)
        if year in index:
            raise CsvFormatError(f"duplicate year {year}", row=1, column=name)
        index[year] = position
    index = dict(sorted(index.items()))
    costs_of: dict[str, tuple[Decimal, ...]] = {}
    first_row_of: dict[str, int] = {}
    for line_no, row in rows:
        sid = _new_id(row[0], line_no, first_row_of)
        costs_of[sid] = tuple(map(_parse_cost, row[1:], repeat(line_no), header[1:]))
    out = []
    for seg in segments:
        if seg.id not in costs_of:
            raise UnknownSegmentError(f"segment {seg.id} is missing from the cost matrix")
        row = CostRow(index, costs_of[seg.id])
        out.append(Segment._trusted(seg.id, seg.coords, row, seg.scheduled_year))
    return out


def emit_cost_matrix_csv(segments: Iterable[Segment], years: Sequence[int]) -> str:
    """The cost-matrix CSV of ``segments`` over ``years``, rows in id order,
    each cost a cent amount written by ``str``."""
    lines = ["id," + ",".join(f"Y{year}" for year in years)]
    for seg in sorted(segments, key=attrgetter("id")):
        values = ",".join(map(str, map(seg.cost_at, years)))
        lines.append(f"{_csv_cell(seg.id)},{values}")
    return "\n".join(lines) + "\n"


def input_digest(*parts: str | bytes) -> str:
    """Content hash over the raw inputs; changes iff any input byte changes."""
    import hashlib  # imported by the commands that read inputs only

    digest = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


class PlanDocument(Record):
    """A parsed plan document: its digest, schedule, plan and metrics block,
    and each member's primary fields as read, ``(id, coords, scheduled_year,
    cost_used)``, in document order, ``cost_used`` None when unassigned."""

    __slots__ = ("input_digest", "schedule", "plan", "members", "metrics")

    def __init__(
        self, input_digest: str, schedule: BudgetSchedule, plan: Plan,
        members: tuple[tuple[str, tuple[float, ...], int, Decimal | None], ...],
        metrics: PlanMetrics,
    ) -> None:
        self._set(input_digest, schedule, plan, members, metrics)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


def _int(value: int | None) -> str:
    return "null" if value is None else int.__repr__(value)


def _money(value: Decimal | None) -> str:
    return "null" if value is None else f'"{value:.2f}"'


def _write_array(write, pad: str, items: Iterable, write_item) -> None:
    """Write the JSON array of ``items`` whose line is indented by ``pad``:
    ``[]`` when empty, else each ``write_item(item)`` on lines of its own."""
    opening = "[\n"
    for item in items:
        write(opening)
        write_item(item)
        opening = ",\n"
    write("[]" if opening == "[\n" else f"\n{pad}]")


def _write_members(write, pad: str, members: Iterable[tuple], year: int | None) -> None:
    """Write the JSON array of ``members``, each ``(id, coords,
    scheduled_year, cost_used)``, assigned to ``year``, its line indented by
    ``pad``. Each member is one chunk, its opening comma included. A
    segment has at least one coordinate, each finite, which ``repr`` spells
    as json does; ``[]``, ``NaN`` or ``Infinity`` there reads as other bytes."""
    key, coord = f"\n{pad}    ", f",\n{pad}      "
    head, at = f'{pad}  {{{key}"id": ', f',{key}"coords": [{coord[1:]}'
    scheduled_at, end = f'{key}],{key}"scheduled_year": ', f"\n{pad}  }}"
    assigned = f',{key}"assigned_year": {_int(year)},{key}"cost_used": '
    opening = "[\n"
    for sid, point, scheduled, cost in members:
        write(
            f"{opening}{head}{_quote(sid)}{at}{coord.join(map(repr, point))}"
            f"{scheduled_at}{int.__repr__(scheduled)}{assigned}{_money(cost)}{end}"
        )
        opening = ",\n"
    write("[]" if opening == "[\n" else f"\n{pad}]")


def _plan_text(
    write, digest, tolerance, entries, clusters, unassigned, metrics, diagnostics
) -> None:
    """Write the plan document through ``write`` from a fixed template: byte
    for byte ``json.dumps(obj, indent=2) + "\\n"`` of the object it describes.
    ``entries`` holds ``(year, budget, low_tolerance, high_tolerance)``;
    ``clusters`` pairs ``(year, center_id, budget, realized_cost)`` with its
    members, and ``unassigned`` holds members, as ``_write_members`` takes them."""
    write(
        f'{{\n  "format_version": "{FORMAT_VERSION}",\n  "input_digest": {_quote(digest)},\n'
        f'  "schedule": {{\n    "conservation_tolerance": {_money(tolerance)},\n'
        '    "entries": '
    )
    _write_array(write, "    ", entries, lambda e: write(
        f'      {{\n        "year": {_int(e[0])},\n        "budget": {_money(e[1])},\n'
        f'        "low_tolerance": {_money(e[2])},\n'
        f'        "high_tolerance": {_money(e[3])}\n      }}'
    ))

    def write_cluster(item) -> None:
        (year, center_id, budget, realized_cost), members = item
        center = "null" if center_id is None else _quote(center_id)
        write(
            f'    {{\n      "year": {_int(year)},\n      "center_id": {center},\n'
            f'      "budget": {_money(budget)},\n'
            f'      "realized_cost": {_money(realized_cost)},\n      "members": '
        )
        _write_members(write, "      ", members, year)
        write("\n    }")

    write('\n  },\n  "clusters": ')
    _write_array(write, "  ", clusters, write_cluster)
    write(',\n  "unassigned": ')
    _write_members(write, "  ", unassigned, None)
    write(',\n  "metrics": {\n    "per_year": ')
    _write_array(write, "    ", metrics.per_year, lambda y: write(
        f'      {{\n        "year": {_int(y.year)},\n        "budget": {_money(y.budget)},\n'
        f'        "realized_cost": {_money(y.realized_cost)},\n'
        f'        "utilization": {_float(y.utilization)},\n'
        f'        "member_count": {_int(y.member_count)},\n'
        f'        "mean_member_distance_to_center": {_float(y.mean_member_distance_to_center)},\n'
        f'        "mean_pairwise_distance": {_float(y.mean_pairwise_distance)},\n'
        f'        "over_budget": {"true" if y.over_budget else "false"}\n      }}'
    ))
    overall = metrics.overall
    write(
        f',\n    "overall": {{\n      "total_budget": {_money(overall.total_budget)},\n'
        f'      "total_cost": {_money(overall.total_cost)},\n'
        f'      "total_deviation": {_money(overall.total_deviation)},\n'
        f'      "weighted_mean_dispersion": {_float(overall.weighted_mean_dispersion)}\n'
        f'    }},\n    "unassigned_count": {_int(metrics.unassigned_count)}\n  }},\n'
        '  "diagnostics": '
    )

    def write_diagnostic(diag: Diagnostic) -> None:
        write(
            f'    {{\n      "code": {_quote(diag.code)},\n      "message": {_quote(diag.message)},\n'
            f'      "year": {_int(diag.year)},\n      "segment_ids": '
        )
        _write_array(write, "      ", diag.segment_ids, lambda sid: write("        " + _quote(sid)))
        write("\n    }")

    _write_array(write, "  ", diagnostics, write_diagnostic)
    write("\n}\n")


_ENTRY = attrgetter("year", "budget", "low_tolerance", "high_tolerance")
_HEAD = attrgetter("year", "center_id", "budget", "realized_cost")


def emit_plan(
    plan: Plan,
    metrics: PlanMetrics,
    schedule: BudgetSchedule,
    segments: Iterable[Segment],
    digest: str = "",
) -> str:
    """The plan's document, written straight from the plan and its segments:
    fixed key order, 2-decimal money strings, shortest round-trip floats. A
    member none of ``segments`` carries raises :class:`UnknownSegmentError`."""
    by_id = {seg.id: seg for seg in segments}

    def members(ids: Iterable[str], year: int | None):
        for sid in ids:
            seg = by_id.get(sid)
            if seg is None:
                raise UnknownSegmentError(f"plan references unknown segment {sid!r}")
            cost = None if year is None else seg.cost_at(year)
            yield sid, seg.coords, seg.scheduled_year, cost

    out = io.StringIO()
    _plan_text(
        out.write, digest, schedule.conservation_tolerance, map(_ENTRY, schedule.entries),
        ((_HEAD(c), members(c.member_ids, c.year)) for c in plan.clusters),
        members(plan.unassigned_ids, None), metrics, plan.diagnostics,
    )
    return out.getvalue()


class _Expect:
    """A write sink that checks each chunk against ``text`` where the last
    one ended, in place. The first difference raises :class:`PavePlanError`
    naming its line, with what the writer writes there and what ``text``
    holds, each at most 80 characters either way of the difference."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def write(self, chunk: str) -> None:
        if not self.text.startswith(chunk, self.pos):
            found = self.text[self.pos : self.pos + len(chunk)]
            same = next((i for i, (a, b) in enumerate(zip(chunk, found)) if a != b), len(found))
            self.refuse(self.pos + same, chunk[same:].split("\n", 1)[0])
        self.pos += len(chunk)

    def refuse(self, at: int, rest: str | None) -> None:
        """Refuse the text from offset ``at`` on, where the writer goes on
        with ``rest`` to the end of its line, or ends if ``rest`` is None."""
        text = self.text
        start = max(text.rfind("\n", 0, at) + 1, at - 80)
        if rest is None:
            expected, found = "the end of the document", text[at : at + 80]
        else:
            end = text.find("\n", at)
            expected = repr(text[start:at] + rest[:80])
            found = text[start : min(len(text) if end < 0 else end, at + 80)]
        line = text.count("\n", 0, at) + 1
        raise PavePlanError(f"plan document line {line}: expected {expected}, found {found!r}")


# what reading a JSON value as another type raises; ``str`` of a value
# nested as deep as ``json.loads`` allows may recurse one call too deep
_UNREADABLE = (LookupError, TypeError, ValueError, ArithmeticError, RecursionError)


def _read(obj, key, kind, default):
    """``obj[key]`` read as ``kind``, or ``default`` if it is missing or
    ``kind`` refuses it: a value read from another JSON type, or a default,
    is written as other text than the document holds there."""
    try:
        return kind(obj[key])
    except _UNREADABLE:
        return default


def _part(obj, key, kind: type):
    """``obj[key]`` itself if it is a JSON object or array, as ``kind`` says,
    else an empty one, where the writer's template differs from the document."""
    try:
        value = obj[key]
    except _UNREADABLE:
        return kind()
    return value if type(value) is kind else kind()


def _or_null(kind):
    return lambda value: None if value is None else kind(value)


_ID = itemgetter(0)
_COST = itemgetter(3)
_MEMBER = itemgetter("id", "coords", "scheduled_year", "cost_used")
_ENTRY_MONEY = ("budget", "low_tolerance", "high_tolerance")


def _members(found: list, costed: bool) -> list[tuple]:
    """The JSON members ``found`` as ``_write_members`` takes them,
    ``cost_used`` None unless ``costed``: read at once, or field by field if
    that fails or a cost is not below ``MONEY_LIMIT``, which keeps every sum
    of them exact. ``found`` is emptied, which frees the JSON objects read
    (2.1 MB at the parse's peak for 7,200 members)."""
    try:
        read = [
            (str(sid), tuple(map(float, coords)), int(year), Decimal(cost) if costed else None)
            for sid, coords, year, cost in map(_MEMBER, found)
        ]
        if costed and max(map(abs, map(_COST, read)), default=ZERO) >= MONEY_LIMIT:
            raise ValueError("a cost past the limit")
    except _UNREADABLE:  # comparing a NaN cost raises too
        read = [
            (_read(m, "id", str, ""), _read(m, "coords", lambda c: tuple(map(float, c)), ()),
             _read(m, "scheduled_year", int, 0),
             _read(m, "cost_used", money, ZERO) if costed else None)
            for m in found
        ]
    found.clear()
    return read


def parse_plan_document(text: str) -> PlanDocument:
    """The document ``text`` holds, which must be the bytes paveplan writes
    from its primary fields: the digest, the schedule, each cluster's center
    and members (id, coordinates, scheduled year, ``cost_used``), the
    unassigned (id, coordinates, scheduled year), the stored dispersion
    figures and the diagnostics. The rest is derived as ``compute_metrics``
    derives it, and the writer's bytes are compared with ``text`` as they are
    written. Invalid JSON, another version, the first difference, and then a
    value the model refuses raise :class:`PavePlanError`."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PavePlanError(f"plan document is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise PavePlanError("plan document must be a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise PavePlanError(
            f"unsupported plan document version {obj.get('format_version')!r}"
        )
    digest = _read(obj, "input_digest", str, "")
    schedule = _part(obj, "schedule", dict)
    tolerance = _read(schedule, "conservation_tolerance", money, ZERO)
    entries = [
        (_read(e, "year", int, 0), *(_read(e, key, money, ZERO) for key in _ENTRY_MONEY))
        for e in _part(schedule, "entries", list)
    ]
    stored = _part(obj, "metrics", dict)
    found, figures = _part(obj, "clusters", list), _part(stored, "per_year", list)
    clusters, per_year = [], []
    for index, (year, budget, _, _) in enumerate(entries):  # one cluster per entry
        cluster, stored_year = _part(found, index, dict), _part(figures, index, dict)
        members = _members(_part(cluster, "members", list), True)
        realized = sum(map(_COST, members), ZERO)
        center = _read(cluster, "center_id", _or_null(str), "")
        clusters.append(((year, center, budget, realized), members))
        per_year.append(_year_metrics(
            year, budget, realized, len(members),
            _read(stored_year, "mean_member_distance_to_center", float, 0.0),
            _read(stored_year, "mean_pairwise_distance", float, 0.0),
        ))
    unassigned = _members(_part(obj, "unassigned", list), False)
    dispersion = _read(_part(stored, "overall", dict), "weighted_mean_dispersion", float, 0.0)
    metrics = _plan_metrics(per_year, dispersion, len(unassigned))
    diagnostics = tuple(
        Diagnostic(
            _read(d, "code", str, ""),
            _read(d, "message", str, ""),
            _read(d, "year", _or_null(int), 0),
            _read(d, "segment_ids", lambda ids: tuple(map(str, ids)), ()),
        )
        for d in _part(obj, "diagnostics", list)
    )
    sink = _Expect(text)
    _plan_text(
        sink.write, digest, tolerance, entries, clusters, unassigned, metrics, diagnostics
    )
    if sink.pos < len(text):
        sink.refuse(sink.pos, None)
    try:
        schedule = BudgetSchedule(tuple(BudgetEntry(*e) for e in entries), tolerance)
        plan = Plan(
            tuple(
                Cluster(year, center, tuple(map(_ID, members)), realized, budget)
                for (year, center, budget, realized), members in clusters
            ),
            tuple(map(_ID, unassigned)),
            diagnostics,
        )
    except ValueError as exc:
        # a value the model refuses: a non-positive budget, years out of
        # order, a center that is no member, an id listed twice
        raise PavePlanError(f"plan document has a bad value: {exc}") from None
    assigned = (member for _, members in clusters for member in members)
    return PlanDocument(digest, schedule, plan, (*assigned, *unassigned), metrics)


YEAR_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)
UNASSIGNED_COLOR = "#bbbbbb"


# characters XML 1.0 allows in no document, escaped or not; none of them is
# printable (controls, surrogates, noncharacters), so printable text skips it
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_text(text: str) -> str:
    """``text`` escaped for XML character data, as ``xml.sax.saxutils.escape``
    does (that module would pull in ``urllib`` and a few MB of memory), with
    each character XML 1.0 forbids replaced by U+FFFD."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text if text.isprintable() else _NOT_XML_CHAR.sub("\ufffd", text)


def render_plan_svg(plan: Plan, segments: Iterable[Segment] | Mapping) -> str:
    """Schematic 800 x 600 map: one marker per segment colored by assigned
    year, ringed cluster centers, and a year legend. Planar data only."""
    lookup = coordinate_lookup(segments)
    groups: list[tuple[str, tuple[str, ...], str | None]] = []  # color, members, center
    legend: list[tuple[str, str]] = []
    for index, cluster in enumerate(plan.clusters):
        color = YEAR_PALETTE[index % len(YEAR_PALETTE)]
        groups.append((color, cluster.member_ids, cluster.center_id))
        legend.append((str(cluster.year), color))
    groups.append((UNASSIGNED_COLOR, plan.unassigned_ids, None))
    if plan.unassigned_ids:
        legend.append(("unassigned", UNASSIGNED_COLOR))
    ids = [sid for _, members, _ in groups for sid in members]
    points = list(map(lookup.get, ids, repeat(())))
    if {*map(len, points)} - {2}:  # the first id refused names the error
        for sid in ids:
            if sid not in lookup:
                raise UnknownSegmentError(f"plan references unknown segment {sid!r}")
            if len(lookup[sid]) != 2:
                raise DimensionMismatchError("SVG rendering needs 2-dimensional data")

    width, height, margin = 800, 600, 50.0
    xs, ys = zip(*points) if points else ((0.0,), (0.0,))
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max_x - min_x
    span_y = max_y - min_y
    scale_x = (width - 2 * margin) / span_x if span_x > 0 else 1.0
    scale_y = (height - 2 * margin) / span_y if span_y > 0 else 1.0
    scale = min(scale_x, scale_y)
    if not all(map(math.isfinite, (span_x, span_y, scale))):
        raise PavePlanError(f"an extent of {span_x!r} by {span_y!r} cannot be plotted")

    top = height - margin  # y flips: north up
    text = "".join(ids)  # one check over every id, not one per marker
    titles = ids if _xml_text(text) == text else list(map(_xml_text, ids))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    start = 0
    for color, members, center in groups:
        end = start + len(members)
        marker = f'<circle cx="%.2f" cy="%.2f" r="4" fill="{color}"><title>%s</title></circle>'
        markers = [
            marker % (margin + (x - min_x) * scale, top - (y - min_y) * scale, title)
            for (x, y), title in zip(points[start:end], titles[start:end])
        ]
        if center is not None:  # its ring follows its marker
            at = members.index(center)
            x, y = points[start + at]
            ring = '<circle cx="%.2f" cy="%.2f" r="8" fill="none" stroke="%s" stroke-width="2"/>'
            place = (margin + (x - min_x) * scale, top - (y - min_y) * scale, color)
            markers.insert(at + 1, ring % place)
        parts += markers
        start = end
    for row, (label, color) in enumerate(legend):
        y = 20 + row * 18
        parts.append(f'<rect x="10" y="{y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="28" y="{y}" font-size="12" font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
