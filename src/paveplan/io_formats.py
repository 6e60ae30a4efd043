"""CSV ingestion, canonical plan documents (JSON), and schematic SVG maps.

Formats are deliberately deterministic: identical inputs yield byte-identical
documents, money is always rendered with two decimals, and floats use their
shortest round-trip form. Parsing a document and re-emitting it reproduces
the original bytes. A plan document is written from a fixed template, never
built as one object; its bytes are ``json.dumps(obj, indent=2) + "\\n"`` of
the object it describes, which tests and CI check on every supported Python.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from itertools import repeat, zip_longest
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .costs import flat_rows
from .metrics import OverallMetrics, PlanMetrics, YearMetrics
from .model import (
    MONEY_LIMIT,
    TOTAL_LIMIT,
    ZERO,
    BudgetEntry,
    BudgetSchedule,
    Cluster,
    CostRow,
    Diagnostic,
    DimensionMismatchError,
    PavePlanError,
    Plan,
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


def _csv_cell(text: str) -> str:
    """``text`` as one CSV field, quoted only when ``csv.reader`` needs it."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _parse_coords(cells: list[str], row: int, columns: list[str]) -> tuple[float, ...]:
    """``cells`` as finite floats, by one ``float`` and one ``isfinite`` pass;
    only a row they refuse is read again, cell by cell, to name the bad cell."""
    try:
        coords = tuple(map(float, cells))
        if all(map(math.isfinite, coords)):
            return coords
    except ValueError:
        pass
    for value, column in zip(cells, columns):
        try:
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

    Row order is preserved; it defines the input order used for
    deterministic tie-breaking downstream. Each cell is checked once, naming
    its row and column, and each segment built once from the checked values
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
        if has_cost:
            table = flat_row(year, _parse_cost(row[year_index + 1], line_no, "cost"))
        else:
            table = CostRow({}, ())
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
    digest = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


@dataclass(frozen=True)
class DocumentMember:
    id: str
    coords: tuple[float, ...]
    scheduled_year: int
    assigned_year: int | None
    cost_used: Decimal | None


@dataclass(frozen=True)
class DocumentCluster:
    year: int
    center_id: str | None
    budget: Decimal
    realized_cost: Decimal
    members: tuple[DocumentMember, ...]


@dataclass(frozen=True)
class PlanDocument:
    """Self-contained, auditable plan output: every member lists both its
    original and assigned year, so year shifts can be read off directly."""

    format_version: str
    input_digest: str
    schedule: BudgetSchedule
    clusters: tuple[DocumentCluster, ...]
    unassigned: tuple[DocumentMember, ...]
    metrics: PlanMetrics
    diagnostics: tuple[Diagnostic, ...]


def _money_str(value: Decimal) -> str:
    return f"{value:.2f}"


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


def _int(value: int | None) -> str:
    return "null" if value is None else int.__repr__(value)


def _money(value: Decimal | None) -> str:
    return "null" if value is None else f'"{_money_str(value)}"'


def _write_array(write, pad: str, items: Iterable, write_item) -> None:
    """Write the JSON array of ``items`` whose line is indented by ``pad``:
    ``[]`` when empty, else each ``write_item(item)`` on lines of its own."""
    opening = "[\n"
    for item in items:
        write(opening)
        write_item(item)
        opening = ",\n"
    write("[]" if opening == "[\n" else f"\n{pad}]")


def _write_member(write, pad: str, member: tuple) -> None:
    """Write ``member``, a tuple ``(id, coords, scheduled_year, assigned_year,
    cost_used)``, as an object indented by ``pad``."""
    sid, coords, scheduled_year, assigned_year, cost_used = member
    key, coord = f"\n{pad}  ", f",\n{pad}    "
    coords = f"[{coord[1:]}{coord.join(map(_float, coords))}{key}]" if coords else "[]"
    write(
        f'{pad}{{{key}"id": {_quote(sid)},{key}"coords": {coords},'
        f'{key}"scheduled_year": {int.__repr__(scheduled_year)},'
        f'{key}"assigned_year": {_int(assigned_year)},'
        f'{key}"cost_used": {_money(cost_used)}\n{pad}}}'
    )


def _plan_text(digest, schedule, clusters, unassigned, metrics, diagnostics) -> str:
    """The plan document, written from a fixed template into one buffer: byte
    for byte ``json.dumps(obj, indent=2) + "\\n"`` of the object it describes.
    ``clusters`` pairs each cluster (``year``, ``center_id``, ``budget``,
    ``realized_cost``) with its members: ``_write_member``'s tuples, as
    ``unassigned`` holds."""
    out = io.StringIO()
    write = out.write
    write(
        f'{{\n  "format_version": "{FORMAT_VERSION}",\n  "input_digest": {_quote(digest)},\n'
        f'  "schedule": {{\n    "conservation_tolerance": '
        f'{_money(schedule.conservation_tolerance)},\n    "entries": '
    )
    _write_array(write, "    ", schedule.entries, lambda e: write(
        f'      {{\n        "year": {_int(e.year)},\n        "budget": {_money(e.budget)},\n'
        f'        "low_tolerance": {_money(e.low_tolerance)},\n'
        f'        "high_tolerance": {_money(e.high_tolerance)}\n      }}'
    ))

    def write_cluster(item) -> None:
        cluster, members = item
        center = "null" if cluster.center_id is None else _quote(cluster.center_id)
        write(
            f'    {{\n      "year": {_int(cluster.year)},\n      "center_id": {center},\n'
            f'      "budget": {_money(cluster.budget)},\n'
            f'      "realized_cost": {_money(cluster.realized_cost)},\n      "members": '
        )
        _write_array(write, "      ", members, lambda m: _write_member(write, "        ", m))
        write("\n    }")

    write('\n  },\n  "clusters": ')
    _write_array(write, "  ", clusters, write_cluster)
    write(',\n  "unassigned": ')
    _write_array(write, "  ", unassigned, lambda m: _write_member(write, "    ", m))
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
    return out.getvalue()


def document_to_json(document: PlanDocument) -> str:
    """Canonical rendering: fixed key order, 2-decimal money strings,
    shortest round-trip floats. Identical documents are byte-identical."""
    fields = attrgetter("id", "coords", "scheduled_year", "assigned_year", "cost_used")
    clusters = ((c, map(fields, c.members)) for c in document.clusters)
    return _plan_text(
        document.input_digest, document.schedule, clusters, map(fields, document.unassigned),
        document.metrics, document.diagnostics,
    )


def emit_plan(
    plan: Plan,
    metrics: PlanMetrics,
    schedule: BudgetSchedule,
    segments: Iterable[Segment] | Mapping[str, Segment],
    digest: str = "",
) -> str:
    """The plan's document, written straight from the plan and its segments."""
    lookup = segment_lookup(segments)

    def members(ids: Iterable[str], year: int | None = None):
        for sid in ids:
            seg = lookup[sid]
            cost = None if year is None else seg.cost_at(year)
            yield sid, seg.coords, seg.scheduled_year, year, cost

    clusters = ((c, members(c.member_ids, c.year)) for c in plan.clusters)
    unassigned = members(plan.unassigned_ids)
    return _plan_text(digest, schedule, clusters, unassigned, metrics, plan.diagnostics)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}


def _field(obj: dict, key: str, kind: type = object, optional: bool = False):
    """``obj[key]``; it must be present and of JSON type ``kind``, or null
    when ``optional``."""
    if key not in obj:
        raise PavePlanError(f"plan document is missing {key!r}")
    value = obj[key]
    if not (isinstance(value, kind) or (optional and value is None)):
        raise PavePlanError(
            f"plan document field {key!r} must be {_JSON_TYPES[kind]}"
            + (" or null" if optional else "")
        )
    return value


def _objects(obj: dict, key: str) -> list[dict]:
    """``obj[key]``, which must be an array of objects."""
    items = _field(obj, key, list)
    if not all(isinstance(item, dict) for item in items):
        raise PavePlanError(f"plan document field {key!r} must hold objects")
    return items


def _int_field(obj: dict, key: str, optional: bool = False) -> int | None:
    """``obj[key]``, a JSON integer (or null when ``optional``). ``2018.0``,
    ``true`` and ``"2018"`` are refused: none re-emits as the same bytes."""
    value = _field(obj, key)
    if type(value) is int or (optional and value is None):
        return value
    raise PavePlanError(
        f"plan document field {key!r} must be an integer" + (" or null" if optional else "")
    )


def _float_field(obj: dict, key: str) -> float:
    """``obj[key]``, a JSON float: ``101`` and ``true`` re-emit as other bytes."""
    value = _field(obj, key)
    if type(value) is not float:
        raise PavePlanError(f"plan document field {key!r} must be a number written as a float")
    return value


def _money_field(
    obj: dict, key: str, optional: bool = False, limit: Decimal = MONEY_LIMIT
) -> Decimal | None:
    """``obj[key]``, a money string in the canonical form emission writes
    (or null when ``optional``); sums pass ``TOTAL_LIMIT``."""
    value = _field(obj, key, str, optional)
    if value is None:
        return None
    try:
        amount = money(value, limit)
    except ValueError as exc:
        raise PavePlanError(f"plan document field {key!r}: {exc}") from None
    if _money_str(amount) != value:
        # "3", " 3.00" or "+3.00" would re-emit as other bytes
        raise PavePlanError(
            f"plan document field {key!r}: money {value!r} is not written as "
            f"{_money_str(amount)!r}"
        )
    return amount


def _cluster_budget(obj: dict) -> Decimal:
    budget = _money_field(obj, "budget")
    if budget <= 0:
        # metrics divide by it, as the schedule's own budgets allow
        raise PavePlanError(f"plan document cluster budget {budget} is not positive")
    return budget


def _parse_member(obj: dict, year: int | None) -> DocumentMember:
    """A member of the cluster of ``year``, or an unassigned one: it must
    have that ``assigned_year``, and a ``cost_used`` just when it has a year."""
    coords = _field(obj, "coords", list)
    if not all(type(c) is float for c in coords):
        raise PavePlanError("plan document field 'coords' must hold numbers written as floats")
    member = DocumentMember(
        id=_field(obj, "id", str),
        coords=tuple(coords),
        scheduled_year=_int_field(obj, "scheduled_year"),
        assigned_year=_int_field(obj, "assigned_year", optional=True),
        cost_used=_money_field(obj, "cost_used", optional=True),
    )
    if member.assigned_year != year or (member.cost_used is None) != (year is None):
        where = "unassigned" if year is None else f"in cluster {year}"
        raise PavePlanError(
            f"plan document member {member.id!r} {where} has assigned_year "
            f"{member.assigned_year} and cost_used {member.cost_used}"
        )
    return member


def _parse_cluster(obj: dict) -> DocumentCluster:
    year = _int_field(obj, "year")
    cluster = DocumentCluster(
        year=year,
        center_id=_field(obj, "center_id", str, optional=True),
        budget=_cluster_budget(obj),
        realized_cost=_money_field(obj, "realized_cost", limit=TOTAL_LIMIT),
        members=tuple(_parse_member(m, year) for m in _objects(obj, "members")),
    )
    if sum(m.cost_used for m in cluster.members) != cluster.realized_cost:
        raise PavePlanError(
            f"plan document cluster {year}: its members' cost_used do not sum to its realized_cost"
        )
    return cluster


def _check_clusters_match(clusters: Sequence[DocumentCluster], schedule: BudgetSchedule) -> None:
    """Refuse clusters that are not the schedule's entries, one for one and in
    order, by year and budget: metrics total the clusters' budgets, and
    conservation is judged against the schedule's."""
    for cluster, entry in zip_longest(clusters, schedule.entries):
        found, expected = (f"{x.year} at {x.budget}" if x else "none" for x in (cluster, entry))
        if found != expected:
            raise PavePlanError(
                f"plan document cluster {found} does not match schedule entry {expected}"
            )


def _check_metrics_match(
    metrics: PlanMetrics, clusters: Sequence[DocumentCluster], unassigned_count: int
) -> None:
    """Refuse a metrics block whose money and counts are not the clusters'
    and the unassigned list's: one ``per_year`` entry per cluster, in order,
    with its year, budget, realized cost and member count. The float figures
    are left as stored; ``metrics`` recomputes them."""

    def entry(x: tuple | None) -> str:
        return f"{x[0]} at {x[1]}, cost {x[2]}, {x[3]} members" if x else "none"

    entries = [(y.year, y.budget, y.realized_cost, y.member_count) for y in metrics.per_year]
    wanted = [(c.year, c.budget, c.realized_cost, len(c.members)) for c in clusters]
    for found, expected in zip_longest(entries, wanted):
        if found != expected:
            raise PavePlanError(
                f"plan document metrics entry {entry(found)} does not match "
                f"cluster {entry(expected)}"
            )
    total_budget = sum((c.budget for c in clusters), ZERO)
    total_cost = sum((c.realized_cost for c in clusters), ZERO)
    overall = metrics.overall
    for key, found, expected in (
        ("total_budget", overall.total_budget, total_budget),
        ("total_cost", overall.total_cost, total_cost),
        ("total_deviation", overall.total_deviation, total_cost - total_budget),
        ("unassigned_count", metrics.unassigned_count, unassigned_count),
    ):
        if found != expected:
            raise PavePlanError(f"plan document metrics field {key!r} is {found}, not {expected}")


def parse_plan_document(text: str) -> PlanDocument:
    """The document ``text`` holds. Invalid JSON and any structural fault (a
    missing key, a value of the wrong type or out of range) raise
    :class:`PavePlanError`."""
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
    try:
        return _document_from_json(obj)
    except (ValueError, ArithmeticError) as exc:
        # a value the schedule refuses (a non-positive budget, years out of order)
        raise PavePlanError(f"plan document has a bad value: {exc}") from None


def _document_from_json(obj: dict) -> PlanDocument:
    schedule_obj = _field(obj, "schedule", dict)
    schedule = BudgetSchedule(
        entries=tuple(
            BudgetEntry(
                year=_int_field(entry, "year"),
                budget=_money_field(entry, "budget"),
                low_tolerance=_money_field(entry, "low_tolerance"),
                high_tolerance=_money_field(entry, "high_tolerance"),
            )
            for entry in _objects(schedule_obj, "entries")
        ),
        conservation_tolerance=_money_field(schedule_obj, "conservation_tolerance"),
    )
    clusters = tuple(map(_parse_cluster, _objects(obj, "clusters")))
    _check_clusters_match(clusters, schedule)
    metrics_obj = _field(obj, "metrics", dict)
    overall = _field(metrics_obj, "overall", dict)
    metrics = PlanMetrics(
        per_year=tuple(
            YearMetrics(
                year=_int_field(y, "year"),
                budget=_money_field(y, "budget"),
                realized_cost=_money_field(y, "realized_cost", limit=TOTAL_LIMIT),
                utilization=_float_field(y, "utilization"),
                member_count=_int_field(y, "member_count"),
                mean_member_distance_to_center=_float_field(
                    y, "mean_member_distance_to_center"
                ),
                mean_pairwise_distance=_float_field(y, "mean_pairwise_distance"),
                over_budget=_field(y, "over_budget", bool),
            )
            for y in _objects(metrics_obj, "per_year")
        ),
        overall=OverallMetrics(
            total_budget=_money_field(overall, "total_budget", limit=TOTAL_LIMIT),
            total_cost=_money_field(overall, "total_cost", limit=TOTAL_LIMIT),
            total_deviation=_money_field(overall, "total_deviation", limit=TOTAL_LIMIT),
            weighted_mean_dispersion=_float_field(overall, "weighted_mean_dispersion"),
        ),
        unassigned_count=_int_field(metrics_obj, "unassigned_count"),
    )
    unassigned = tuple(_parse_member(m, None) for m in _objects(obj, "unassigned"))
    _check_metrics_match(metrics, clusters, len(unassigned))
    diagnostics = []
    for d in _objects(obj, "diagnostics"):
        segment_ids = _field(d, "segment_ids", list)
        if not all(isinstance(sid, str) for sid in segment_ids):
            raise PavePlanError("plan document field 'segment_ids' must hold strings")
        diagnostics.append(
            Diagnostic(
                code=_field(d, "code", str),
                message=_field(d, "message", str),
                year=_int_field(d, "year", optional=True),
                segment_ids=tuple(segment_ids),
            )
        )
    return PlanDocument(
        format_version=obj["format_version"],
        input_digest=_field(obj, "input_digest", str),
        schedule=schedule,
        clusters=clusters,
        unassigned=unassigned,
        metrics=metrics,
        diagnostics=tuple(diagnostics),
    )


def plan_from_document(document: PlanDocument) -> Plan:
    """Reconstruct the in-memory plan a document describes."""
    clusters = tuple(
        Cluster(
            year=c.year,
            center_id=c.center_id,
            member_ids=tuple(m.id for m in c.members),
            realized_cost=c.realized_cost,
            budget=c.budget,
        )
        for c in document.clusters
    )
    return Plan(
        clusters=clusters,
        unassigned_ids=tuple(m.id for m in document.unassigned),
        diagnostics=document.diagnostics,
    )


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
