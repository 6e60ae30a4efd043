"""CSV ingestion, canonical plan documents (JSON), and schematic SVG maps.

Formats are deliberately deterministic: identical inputs yield byte-identical
documents, money is always rendered with two decimals, and floats use their
shortest round-trip form. Parsing a document and re-emitting it reproduces
the original bytes.
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
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .costs import CostScenarioMatrix
from .metrics import OverallMetrics, PlanMetrics, YearMetrics
from .model import (
    BudgetEntry,
    BudgetSchedule,
    Cluster,
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


def _rows(text: str) -> list[list[str]]:
    reader = csv.reader(io.StringIO(text))
    try:
        return [row for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        # e.g. a field over the csv module's size limit
        raise CsvFormatError(str(exc), row=reader.line_num) from None


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_cell(text: str) -> str:
    """``text`` as one CSV field, quoted only when ``csv.reader`` needs it."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _parse_float(value: str, row: int, column: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise CsvFormatError(f"malformed number {value!r}", row=row, column=column) from None
    if not math.isfinite(parsed):
        raise CsvFormatError(f"non-finite number {value!r}", row=row, column=column)
    return parsed


def _parse_int(value: str, row: int, column: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise CsvFormatError(f"malformed integer {value!r}", row=row, column=column) from None


def _parse_money(value: str, row: int, column: str) -> Decimal:
    try:
        return money(value.strip())
    except ValueError as exc:
        raise CsvFormatError(str(exc), row=row, column=column) from None


def load_segments(text: str) -> list[Segment]:
    """Parse the segments CSV: ``id,x,y[,z...],scheduled_year[,cost]``.

    Row order is preserved; it defines the input order used for
    deterministic tie-breaking downstream. When the cost column is present
    each segment gets a single-entry cost table at its scheduled year
    (broadcast or replace it via the cost-model helpers before planning).
    """
    rows = _rows(text)
    if not rows:
        raise CsvFormatError("segments CSV is empty")
    header = [h.strip() for h in rows[0]]
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
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CsvFormatError(
                f"expected {len(header)} fields, got {len(row)}", row=line_no
            )
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
        coords = tuple(
            _parse_float(row[i + 1], line_no, coord_names[i])
            for i in range(len(coord_names))
        )
        year = _parse_int(row[year_index], line_no, "scheduled_year")
        if has_cost:
            cost = _parse_money(row[year_index + 1], line_no, "cost")
            if cost <= 0:
                raise CsvFormatError(
                    f"cost must be positive, got {cost}", row=line_no, column="cost"
                )
            table: dict[int, Decimal] = {year: cost}
        else:
            table = {}
        segments.append(
            Segment(id=sid, coords=coords, cost_by_year=table, scheduled_year=year)
        )
    if not segments:
        raise CsvFormatError("segments CSV has no data rows")
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
    rows = _rows(text)
    if not rows:
        raise CsvFormatError("budgets CSV is empty")
    header = [h.strip() for h in rows[0]]
    if header not in (["year", "budget"], ["year", "budget", "e_l", "e_h"]):
        raise CsvFormatError(
            "header must be 'year,budget' or 'year,budget,e_l,e_h'", row=1
        )
    with_tolerances = len(header) == 4
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CsvFormatError(
                f"expected {len(header)} fields, got {len(row)}", row=line_no
            )
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


def load_cost_matrix(text: str) -> CostScenarioMatrix:
    """Parse the cost-matrix CSV: header ``id,Y<year1>,Y<year2>,...``."""
    rows = _rows(text)
    if not rows:
        raise CsvFormatError("cost matrix CSV is empty")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "id" or len(header) < 2:
        raise CsvFormatError("header must be 'id,Y<year>,...'", row=1)
    years = []
    for name in header[1:]:
        if not name.startswith("Y"):
            raise CsvFormatError(f"year column {name!r} must start with 'Y'", row=1)
        years.append(_parse_int(name[1:], 1, name))
    per_segment: dict[str, tuple[Decimal, ...]] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CsvFormatError(
                f"expected {len(header)} fields, got {len(row)}", row=line_no
            )
        sid = row[0].strip()
        if not sid:
            raise CsvFormatError("empty id", row=line_no, column="id")
        if sid in per_segment:
            raise CsvFormatError(f"duplicate id {sid!r}", row=line_no, column="id")
        values = tuple(
            _parse_money(row[i + 1], line_no, header[i + 1]) for i in range(len(years))
        )
        if any(v <= 0 for v in values):
            raise CsvFormatError("costs must be positive", row=line_no)
        per_segment[sid] = values
    try:
        return CostScenarioMatrix(tuple(years), per_segment)
    except ValueError as exc:
        raise CsvFormatError(str(exc)) from None


def emit_cost_matrix_csv(matrix: CostScenarioMatrix) -> str:
    lines = ["id," + ",".join(f"Y{year}" for year in matrix.years)]
    for sid in sorted(matrix.per_segment):
        values = ",".join(f"{v:.2f}" for v in matrix.per_segment[sid])
        lines.append(f"{_csv_cell(sid)},{values}")
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


def build_plan_document(
    plan: Plan,
    metrics: PlanMetrics,
    schedule: BudgetSchedule,
    segments: Iterable[Segment] | Mapping[str, Segment],
    digest: str = "",
) -> PlanDocument:
    lookup = segment_lookup(segments)
    clusters = []
    for cluster in plan.clusters:
        members = tuple(
            DocumentMember(
                id=sid,
                coords=lookup[sid].coords,
                scheduled_year=lookup[sid].scheduled_year,
                assigned_year=cluster.year,
                cost_used=lookup[sid].cost_at(cluster.year),
            )
            for sid in cluster.member_ids
        )
        clusters.append(
            DocumentCluster(
                year=cluster.year,
                center_id=cluster.center_id,
                budget=cluster.budget,
                realized_cost=cluster.realized_cost,
                members=members,
            )
        )
    unassigned = tuple(
        DocumentMember(
            id=sid,
            coords=lookup[sid].coords,
            scheduled_year=lookup[sid].scheduled_year,
            assigned_year=None,
            cost_used=None,
        )
        for sid in plan.unassigned_ids
    )
    return PlanDocument(
        format_version=FORMAT_VERSION,
        input_digest=digest,
        schedule=schedule,
        clusters=tuple(clusters),
        unassigned=unassigned,
        metrics=metrics,
        diagnostics=plan.diagnostics,
    )


def _money_str(value: Decimal) -> str:
    return f"{value:.2f}"


def _member_obj(member: DocumentMember) -> dict:
    return {
        "id": member.id,
        "coords": list(member.coords),
        "scheduled_year": member.scheduled_year,
        "assigned_year": member.assigned_year,
        "cost_used": None if member.cost_used is None else _money_str(member.cost_used),
    }


def metrics_to_obj(metrics: PlanMetrics) -> dict:
    return {
        "per_year": [
            {
                "year": y.year,
                "budget": _money_str(y.budget),
                "realized_cost": _money_str(y.realized_cost),
                "utilization": y.utilization,
                "member_count": y.member_count,
                "mean_member_distance_to_center": y.mean_member_distance_to_center,
                "mean_pairwise_distance": y.mean_pairwise_distance,
                "over_budget": y.over_budget,
            }
            for y in metrics.per_year
        ],
        "overall": {
            "total_budget": _money_str(metrics.overall.total_budget),
            "total_cost": _money_str(metrics.overall.total_cost),
            "total_deviation": _money_str(metrics.overall.total_deviation),
            "weighted_mean_dispersion": metrics.overall.weighted_mean_dispersion,
        },
        "unassigned_count": metrics.unassigned_count,
    }


def document_to_json(document: PlanDocument) -> str:
    """Canonical rendering: fixed key order, 2-decimal money strings,
    shortest round-trip floats. Identical documents are byte-identical."""
    obj = {
        "format_version": document.format_version,
        "input_digest": document.input_digest,
        "schedule": {
            "conservation_tolerance": _money_str(document.schedule.conservation_tolerance),
            "entries": [
                {
                    "year": entry.year,
                    "budget": _money_str(entry.budget),
                    "low_tolerance": _money_str(entry.low_tolerance),
                    "high_tolerance": _money_str(entry.high_tolerance),
                }
                for entry in document.schedule.entries
            ],
        },
        "clusters": [
            {
                "year": cluster.year,
                "center_id": cluster.center_id,
                "budget": _money_str(cluster.budget),
                "realized_cost": _money_str(cluster.realized_cost),
                "members": [_member_obj(m) for m in cluster.members],
            }
            for cluster in document.clusters
        ],
        "unassigned": [_member_obj(m) for m in document.unassigned],
        "metrics": metrics_to_obj(document.metrics),
        "diagnostics": [
            {
                "code": diag.code,
                "message": diag.message,
                "year": diag.year,
                "segment_ids": list(diag.segment_ids),
            }
            for diag in document.diagnostics
        ],
    }
    # the encoder json.dumps uses, so the bytes are the same, but joined in
    # batches instead of from one list of every chunk (~19 MB at 14,400
    # members); writelines(), one call per chunk, ran ~20% slower on 3.11
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    out = io.StringIO()
    while batch := list(islice(chunks, 8192)):
        out.write("".join(batch))
    out.write("\n")
    return out.getvalue()


def emit_plan(
    plan: Plan,
    metrics: PlanMetrics,
    schedule: BudgetSchedule,
    segments: Iterable[Segment] | Mapping[str, Segment],
    digest: str = "",
) -> str:
    return document_to_json(build_plan_document(plan, metrics, schedule, segments, digest))


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


def _is_number(value) -> bool:
    # bool is an int subclass, but true is not a number in a plan document
    return type(value) is float or type(value) is int


def _float_field(obj: dict, key: str) -> float:
    value = _field(obj, key)
    if not _is_number(value):
        raise PavePlanError(f"plan document field {key!r} must be a number")
    return float(value)


def _money_field(obj: dict, key: str, optional: bool = False) -> Decimal | None:
    """``obj[key]``, a money string in the canonical form emission writes
    (or null when ``optional``)."""
    value = _field(obj, key, str, optional)
    if value is None:
        return None
    try:
        amount = money(value)
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


def _parse_member(obj: dict) -> DocumentMember:
    coords = _field(obj, "coords", list)
    if not all(map(_is_number, coords)):
        raise PavePlanError("plan document field 'coords' must hold numbers")
    return DocumentMember(
        id=_field(obj, "id", str),
        coords=tuple(map(float, coords)),
        scheduled_year=_int_field(obj, "scheduled_year"),
        assigned_year=_int_field(obj, "assigned_year", optional=True),
        cost_used=_money_field(obj, "cost_used", optional=True),
    )


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
        # a value the schedule refuses (a non-positive budget, years out of
        # order) or an integer too large for a float
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
    clusters = tuple(
        DocumentCluster(
            year=_int_field(c, "year"),
            center_id=_field(c, "center_id", str, optional=True),
            budget=_cluster_budget(c),
            realized_cost=_money_field(c, "realized_cost"),
            members=tuple(_parse_member(m) for m in _objects(c, "members")),
        )
        for c in _objects(obj, "clusters")
    )
    metrics_obj = _field(obj, "metrics", dict)
    overall = _field(metrics_obj, "overall", dict)
    metrics = PlanMetrics(
        per_year=tuple(
            YearMetrics(
                year=_int_field(y, "year"),
                budget=_money_field(y, "budget"),
                realized_cost=_money_field(y, "realized_cost"),
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
            total_budget=_money_field(overall, "total_budget"),
            total_cost=_money_field(overall, "total_cost"),
            total_deviation=_money_field(overall, "total_deviation"),
            weighted_mean_dispersion=_float_field(overall, "weighted_mean_dispersion"),
        ),
        unassigned_count=_int_field(metrics_obj, "unassigned_count"),
    )
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
        unassigned=tuple(_parse_member(m) for m in _objects(obj, "unassigned")),
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
