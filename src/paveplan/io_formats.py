"""CSV ingestion, canonical plan documents (JSON), and schematic SVG maps.

Formats are deliberately deterministic: identical inputs yield byte-identical
documents, money is always rendered with two decimals, and floats use their
shortest round-trip form. A plan document is written from a fixed template,
never built as one object; its bytes are ``json.dumps(obj, indent=2) +
"\\n"`` of the object it describes, which tests and CI check on every
supported Python. It is read by writing it again: only its primary fields
are parsed, the rest is derived, and the template's bytes must equal the
text, so only what paveplan writes reads back.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from decimal import Decimal
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .costs import flat_rows
from .metrics import PlanMetrics, _plan_metrics, _year_metrics
from .model import (
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
    money,
    segment_lookup,
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


def _rows(text: str) -> Iterator[list[str]]:
    """The non-blank rows of ``text``, each parsed only when it is read."""
    reader = csv.reader(io.StringIO(text))
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
    (``float`` reads ``٣`` and ``1_0``), by one check over the row, one
    ``float`` and one ``isfinite`` pass; only a row they refuse is read
    again, cell by cell, to name the bad cell."""
    joined = "".join(cells)
    if joined.isascii() and "_" not in joined:
        try:
            coords = tuple(map(float, cells))
            if all(map(math.isfinite, coords)):
                return coords
        except ValueError:
            pass
    for value, column in zip(cells, columns):
        try:
            if not value.isascii() or "_" in value:
                raise ValueError
            if not math.isfinite(float(value)):
                raise CsvFormatError(f"non-finite number {value!r}", row=row, column=column)
        except ValueError:
            raise CsvFormatError(f"malformed number {value!r}", row=row, column=column) from None


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


def load_segments(text: str, years: Iterable[int] | None = None) -> list[Segment]:
    """Parse the segments CSV: ``id,x,y[,z...],scheduled_year[,cost]``.

    Row order is preserved; README "File formats" lists the four things it
    decides downstream. Each cell is checked once, naming its row and
    column, and each segment built once from the checked values
    (``Segment._trusted``), its cost column in a flat row (``costs.flat_rows``)
    over the plan ``years``, or over its scheduled year alone without them.
    Given ``years`` but no cost column, the first segment raises
    ``MissingCostError``.
    """
    header, rows = _table(text, "segments")
    if not header or header[0] != "id":
        raise CsvFormatError("first column must be 'id'", row=1)
    if "scheduled_year" not in header:
        raise CsvFormatError("missing required column 'scheduled_year'", row=1)
    year_index = header.index("scheduled_year")
    coord_names = header[1:year_index]
    if not coord_names:
        raise CsvFormatError(
            "need at least one coordinate column between 'id' and 'scheduled_year'",
            row=1,
        )
    trailing = header[year_index + 1 :]
    if trailing and trailing != ["cost"]:
        raise CsvFormatError(
            f"unexpected columns after 'scheduled_year': {trailing}", row=1
        )
    has_cost = trailing == ["cost"]

    segments: list[Segment] = []
    first_row_of: dict[str, int] = {}
    flat_row = flat_rows(years or ())
    build = Segment._trusted
    for line_no, row in rows:
        sid = row[0].strip()
        if not sid:
            raise CsvFormatError("empty id", row=line_no, column="id")
        if sid in first_row_of:
            raise CsvFormatError(
                f"duplicate id {sid!r} (first seen on row {first_row_of[sid]})",
                row=line_no,
                column="id",
            )
        first_row_of[sid] = line_no
        coords = _parse_coords(row[1:year_index], line_no, coord_names)
        year = _parse_int(row[year_index], line_no, "scheduled_year")
        table = _NO_COSTS
        if has_cost:
            table = flat_row(year, _parse_cost(row[year_index + 1], line_no, "cost"))
        segments.append(build(sid, coords, table, year))
    if not segments:
        raise CsvFormatError("segments CSV has no data rows")
    if years is not None and not has_cost:
        segments[0].base_cost()  # raises MissingCostError, once the rows parse
    return segments


def _coord_names(dimension: int) -> list[str]:
    names = ["x", "y", "z"][:dimension]
    names.extend(f"c{i}" for i in range(len(names), dimension))
    return names


def emit_segments_csv(segments: Sequence[Segment]) -> str:
    """Segments back to CSV with the scheduled-year cost column."""
    if not segments:
        raise ValueError("nothing to emit")
    dimension = segments[0].dimension
    lines = ["id," + ",".join(_coord_names(dimension)) + ",scheduled_year,cost"]
    for seg in segments:
        coords = ",".join(repr(c) for c in seg.coords)
        lines.append(
            f"{_csv_cell(seg.id)},{coords},{seg.scheduled_year},{seg.base_cost():.2f}"
        )
    return "\n".join(lines) + "\n"


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
    for line_no, row in rows:
        sid = row[0].strip()
        if not sid:
            raise CsvFormatError("empty id", row=line_no, column="id")
        if sid in costs_of:
            raise CsvFormatError(f"duplicate id {sid!r}", row=line_no, column="id")
        costs_of[sid] = tuple(map(_parse_cost, row[1:], repeat(line_no), header[1:]))
    out = []
    for seg in segments:
        if seg.id not in costs_of:
            raise UnknownSegmentError(f"segment {seg.id} is missing from the cost matrix")
        row = CostRow(index, costs_of[seg.id])
        out.append(Segment._trusted(seg.id, seg.coords, row, seg.scheduled_year))
    return out


def emit_cost_matrix_csv(segments: Iterable[Segment], years: Sequence[int]) -> str:
    """The cost-matrix CSV of ``segments`` over ``years``, rows in id order."""
    lines = ["id," + ",".join(f"Y{year}" for year in years)]
    for seg in sorted(segments, key=attrgetter("id")):
        values = ",".join(f"{seg.cost_at(year):.2f}" for year in years)
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
    assigned = f',{key}"assigned_year": {_int(year)},{key}"cost_used": '
    opening = "[\n"
    for sid, point, scheduled, cost in members:
        write(
            f'{opening}{pad}  {{{key}"id": {_quote(sid)},{key}"coords": [{coord[1:]}'
            f'{coord.join(map(repr, point))}{key}],{key}"scheduled_year": '
            f'{int.__repr__(scheduled)}{assigned}{_money(cost)}\n{pad}  }}'
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
    segments: Iterable[Segment] | Mapping[str, Segment],
    digest: str = "",
) -> str:
    """The plan's document, written straight from the plan and its segments:
    fixed key order, 2-decimal money strings, shortest round-trip floats."""
    lookup = segment_lookup(segments).__getitem__

    def members(ids: Iterable[str], year: int | None):
        for seg in map(lookup, ids):
            cost = None if year is None else seg.cost_at(year)
            yield seg.id, seg.coords, seg.scheduled_year, cost

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


def render_plan_svg(
    plan: Plan, segments: Iterable[Segment] | Mapping[str, Segment]
) -> str:
    """Schematic 800 x 600 map: one marker per segment colored by assigned
    year, ringed cluster centers, and a year legend. Planar data only."""
    lookup = segment_lookup(segments)

    def planar(sid: str) -> tuple[float, float]:
        if sid not in lookup:
            raise UnknownSegmentError(f"plan references unknown segment {sid!r}")
        seg = lookup[sid]
        if seg.dimension != 2:
            raise DimensionMismatchError("SVG rendering needs 2-dimensional data")
        return seg.coords[0], seg.coords[1]

    plotted: list[tuple[str, tuple[float, float], str, bool]] = []
    legend: list[tuple[str, str]] = []
    for index, cluster in enumerate(plan.clusters):
        color = YEAR_PALETTE[index % len(YEAR_PALETTE)]
        legend.append((str(cluster.year), color))
        for sid in cluster.member_ids:
            plotted.append((sid, planar(sid), color, sid == cluster.center_id))
    for sid in plan.unassigned_ids:
        plotted.append((sid, planar(sid), UNASSIGNED_COLOR, False))
    if plan.unassigned_ids:
        legend.append(("unassigned", UNASSIGNED_COLOR))

    width, height, margin = 800, 600, 50.0
    xs = [p[1][0] for p in plotted] or [0.0]
    ys = [p[1][1] for p in plotted] or [0.0]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max_x - min_x
    span_y = max_y - min_y
    scale_x = (width - 2 * margin) / span_x if span_x > 0 else 1.0
    scale_y = (height - 2 * margin) / span_y if span_y > 0 else 1.0
    scale = min(scale_x, scale_y)
    if not all(map(math.isfinite, (span_x, span_y, scale))):
        raise PavePlanError(f"an extent of {span_x!r} by {span_y!r} cannot be plotted")

    def to_svg(point: tuple[float, float]) -> tuple[float, float]:
        x = margin + (point[0] - min_x) * scale
        y = height - margin - (point[1] - min_y) * scale  # flip: north up
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for sid, point, color, is_center in plotted:
        x, y = to_svg(point)
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}">'
            f"<title>{_xml_text(sid)}</title></circle>"
        )
        if is_center:
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="8" fill="none" '
                f'stroke="{color}" stroke-width="2"/>'
            )
    for row, (label, color) in enumerate(legend):
        y = 20 + row * 18
        parts.append(f'<rect x="10" y="{y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="28" y="{y}" font-size="12" font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
