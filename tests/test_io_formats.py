import hashlib
import io
import json
import math
import operator
import re
from decimal import Decimal
from functools import partial
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, strategies as st

import paveplan.io_formats
from paveplan.io_formats import (
    CsvFormatError,
    emit_budgets_csv,
    emit_cost_matrix_csv,
    emit_plan,
    emit_segments_csv,
    input_digest,
    load_budgets,
    load_coordinates,
    load_cost_matrix,
    load_segments,
    parse_int,
    parse_plan_document,
    PlanDocument,
    render_plan_svg,
)
from paveplan.costs import flat_cost_table
from paveplan.metrics import OverallMetrics, PlanMetrics, YearMetrics, compute_metrics
from paveplan.model import (
    BudgetEntry,
    BudgetSchedule,
    Cluster,
    CostRow,
    Diagnostic,
    DimensionMismatchError,
    MissingCostError,
    PavePlanError,
    Plan,
    Segment,
    UnknownSegmentError,
)
from paveplan.radial import landmark_based_radial_clustering
from paveplan.synth import synthesize_dataset

from helpers import (
    JSON_VALUES, csv_texts, document_text, money_respellings, refusal, refused_at, seg,
)
from oracles import oracle_document_json, oracle_plan_obj

DATA_DIR = Path(__file__).parent / "data"


def two_blob_inputs():
    segments_csv = (
        "id,x,y,scheduled_year,cost\n"
        "a1,0,0,2018,1.00\n"
        "a2,1,0,2019,1.00\n"
        "a3,0,1,2018,1.00\n"
        "b1,100,0,2019,1.00\n"
        "b2,101,0,2018,1.00\n"
        "b3,100,1,2019,1.00\n"
    )
    budgets_csv = "year,budget,e_l,e_h\n2018,3.00,0.00,0.00\n2019,3.00,0.00,0.00\n"
    return segments_csv, budgets_csv


@pytest.mark.parametrize("text, value", [("2018", 2018), (" +7 ", 7), ("\t-3\n", -3), ("007", 7)])
def test_parse_int_keeps_signs_and_whitespace(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("text", ["2_018", "٢٠١٩", "１２", "", " ", "+", "+-1", "1 2", "- 1", "1.0"])
def test_parse_int_refuses_what_is_not_ascii_digits(text):
    with pytest.raises(ValueError, match="is not a decimal integer"):
        parse_int(text)


class TestLoadSegments:
    def test_single_row(self):
        segments = load_segments("id,x,y,scheduled_year,cost\na,0,0,2018,10.00\n")
        assert len(segments) == 1
        assert segments[0].id == "a"
        assert segments[0].coords == (0.0, 0.0)
        assert segments[0].base_cost() == Decimal("10.00")

    def test_duplicate_id_cites_row(self):
        text = "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\na,1,0,2018,1.00\n"
        with pytest.raises(CsvFormatError) as excinfo:
            load_segments(text)
        assert excinfo.value.row == 3
        assert "row 3" in str(excinfo.value)

    def test_sub_cent_cost_rejected(self):
        text = "id,x,y,scheduled_year,cost\na,0,0,2018,10.005\n"
        with pytest.raises(CsvFormatError) as excinfo:
            load_segments(text)
        assert excinfo.value.column == "cost"

    def test_malformed_number_names_row_and_column(self):
        text = "id,x,y,scheduled_year,cost\na,zero,0,2018,1.00\n"
        with pytest.raises(CsvFormatError) as excinfo:
            load_segments(text)
        assert excinfo.value.row == 2
        assert excinfo.value.column == "x"

    def test_plan_years_give_the_flat_cost_table_rows(self):
        text = (
            "id,x,y,scheduled_year,cost\n"
            "a,0,0,2019,10.00\nb,1,0,2031,4.50\nc,2,0,2018,7\nd,3,0,2031,1.00\n"
        )
        years = (2020, 2018, 2019)
        loaded = load_segments(text, years)
        assert loaded == flat_cost_table(load_segments(text), years)
        a, b, c, d = loaded
        assert a.cost_by_year._index is c.cost_by_year._index
        assert tuple(a.cost_by_year) == (2018, 2019, 2020)
        assert len({id(cost) for cost in a.cost_by_year.values()}) == 1
        # scheduled outside the plan years: also priced in its own year
        assert tuple(b.cost_by_year) == (2018, 2019, 2020, 2031)
        assert b.cost_by_year._index is d.cost_by_year._index
        assert b.cost_by_year._index is not a.cost_by_year._index

    def test_plan_years_without_a_cost_column(self):
        # every row is parsed first, so a malformed row is the error reported
        with pytest.raises(CsvFormatError, match="row 3, column 'y'"):
            load_segments("id,x,y,scheduled_year\na,0,0,2018\nb,1,north,2018\n", (2018,))
        with pytest.raises(MissingCostError, match="segment a has no cost for year 2018"):
            load_segments("id,x,y,scheduled_year\na,0,0,2018\nb,1,1,2018\n", (2018,))

    def test_rows_are_numbered_among_the_non_blank_rows(self):
        text = "id,x,y,scheduled_year,cost\n\n , \na,0,0,2018,1.00\n\nb,0,x,2018,1.00\n"
        with pytest.raises(CsvFormatError, match="row 3, column 'y'"):
            load_segments(text)

    def test_missing_scheduled_year_column(self):
        with pytest.raises(CsvFormatError):
            load_segments("id,x,y,cost\na,0,0,1.00\n")

    def test_unexpected_trailing_column(self):
        with pytest.raises(CsvFormatError):
            load_segments("id,x,y,scheduled_year,cost,extra\na,0,0,2018,1.00,9\n")

    def test_three_dimensional_coords(self):
        segments = load_segments("id,x,y,z,scheduled_year,cost\na,0,0,5,2018,1.00\n")
        assert segments[0].coords == (0.0, 0.0, 5.0)

    def test_one_dimensional_coords(self):
        segments = load_segments("id,x,scheduled_year,cost\na,7,2018,1.00\n")
        assert segments[0].coords == (7.0,)

    def test_cost_column_optional(self):
        segments = load_segments("id,x,y,scheduled_year\na,0,0,2018\n")
        assert dict(segments[0].cost_by_year) == {}

    def test_row_order_preserved(self):
        text = "id,x,y,scheduled_year,cost\nz,0,0,2018,1.00\na,1,0,2018,1.00\n"
        assert [s.id for s in load_segments(text)] == ["z", "a"]


class TestSegmentsRoundTrip:
    def test_load_emit_load_fixpoint(self):
        segments_csv, _ = two_blob_inputs()
        once = load_segments(segments_csv)
        emitted = emit_segments_csv(once)
        twice = load_segments(emitted)
        assert twice == once
        assert emit_segments_csv(twice) == emitted


def test_csv_writers_spell_each_cost_with_two_decimals():
    # a segment holds each cost as a cent amount, however it was given
    segments = [
        Segment(sid, (0.0, 0.0), {2018: cost}, 2018)
        for sid, cost in [("a", Decimal("5")), ("b", "5.5"), ("c", Decimal("1E+1"))]
    ]
    rows = emit_segments_csv(segments).splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["5.00", "5.50", "10.00"]
    assert emit_cost_matrix_csv(segments, [2018]) == "id,Y2018\na,5.00\nb,5.50\nc,10.00\n"


# ids as load_segments returns them: stripped and non-empty; csv.reader
# before Python 3.11 refuses NUL anywhere in its input
SEGMENT_IDS = st.text(st.characters(blacklist_characters="\x00"), min_size=1, max_size=8)
CENTS = st.integers(1, 10**12).map(lambda c: Decimal(c) / 100)


@st.composite
def _segment_lists(draw):
    dimension = draw(st.integers(1, 4))
    ids = SEGMENT_IDS.map(str.strip).filter(bool)
    coords = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * dimension)
    segments = []
    for sid in draw(st.lists(ids, min_size=1, max_size=5, unique=True)):
        year = draw(st.integers(-10_000, 10_000))
        segments.append(
            Segment(sid, draw(coords), cost_by_year={year: draw(CENTS)}, scheduled_year=year)
        )
    return segments


@st.composite
def _schedules(draw):
    entries = []
    for year in sorted(draw(st.sets(st.integers(-10_000, 10_000), min_size=1, max_size=4))):
        budget = draw(CENTS)
        low = draw(st.integers(0, int(budget * 100) - 1)) / Decimal(100)
        entries.append(BudgetEntry(year, budget, low, draw(CENTS) - Decimal("0.01")))
    return BudgetSchedule(tuple(entries), draw(CENTS))


@given(_segment_lists())
def test_segments_csv_round_trip(segments):
    assert load_segments(emit_segments_csv(segments)) == segments


@given(_schedules())
def test_budgets_csv_round_trip(schedule_obj):
    text = emit_budgets_csv(schedule_obj)
    tolerance = schedule_obj.conservation_tolerance
    assert load_budgets(text, conservation_tolerance=tolerance) == schedule_obj


@pytest.mark.parametrize(
    "loader, header, row",
    [
        (load_segments, "id,x,y,scheduled_year,cost", "s{i},{i},0,{year},1.00"),
        (load_segments, "id,x,scheduled_year", "s{i},0.5,{year}"),
        (load_budgets, "year,budget", "{year},3.00"),
        (load_budgets, "year,budget,e_l,e_h", "{year},3.00,0.50,1.00"),
        (partial(load_cost_matrix, segments=[]), "id,Y2018,Y2019", "s{i},1.00,2.00"),
    ],
    ids=["segments", "segments-no-cost", "budgets", "budgets-tolerances", "matrix"],
)
@given(data=st.data())
def test_loaders_parse_or_raise_csv_format_error(loader, header, row, data):
    text = data.draw(csv_texts(header, row))
    try:
        loader(text)
    except CsvFormatError:
        pass


COORD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([" 1.5", "-0.0", "+2 ", "1e3", "1E-3", ".5", "5.", "-1e308"]),
)
YEAR_CELLS = st.builds(
    str.format, st.sampled_from(["{}", " {} ", "+{}"]), st.integers(1900, 2100)
)
COST_CELLS = st.one_of(
    st.integers(1, 10**20 - 1).map(lambda cents: str(Decimal(cents).scaleb(-2))),
    st.integers(1, 10**17).map(str),
    st.integers(0, 10**6).map("{}.5".format),
)


@st.composite
def _segment_csvs(draw):
    """A valid segments CSV as (header, rows of cells, plan years or None)."""
    dimension = draw(st.integers(1, 3))
    header = ["id", *"xyz"[:dimension], "scheduled_year", "cost"]
    rows = [
        [draw(st.sampled_from([f"s{i}", f" s{i} "]))]
        + [draw(COORD_CELLS) for _ in range(dimension)]
        + [draw(YEAR_CELLS), draw(COST_CELLS)]
        for i in range(draw(st.integers(1, 6)))
    ]
    years = draw(st.none() | st.sets(st.integers(1900, 2100), max_size=4))
    return header, rows, years


def _csv(header, rows):
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


def _checked_segments(rows, years):
    """The rows as ``Segment(...)`` builds them from the raw cells, with
    every check of its own."""
    return [
        Segment(
            sid.strip(),
            tuple(coords),
            dict.fromkeys({int(year), *(years or ())}, cost),
            year,
        )
        for sid, *coords, year, cost in rows
    ]


def _assert_loaded_as_checked(loaded, rows, years):
    checked = _checked_segments(rows, years)
    assert loaded == checked
    for segment, expected in zip(loaded, checked):
        assert list(map(float.hex, segment.coords)) == list(map(float.hex, expected.coords))
        assert type(segment.scheduled_year) is int
        assert type(segment.cost_by_year) is CostRow
        for cost in segment.cost_by_year.values():
            assert type(cost) is Decimal and cost.as_tuple().exponent == -2


@given(_segment_csvs())
def test_loaded_segments_equal_checked_segments(csv_case):
    header, rows, years = csv_case
    _assert_loaded_as_checked(load_segments(_csv(header, rows), years), rows, years)


BAD_CELL_TOKENS = ("nan", "inf", "1e999", "x", "", "٣", "2_018", "1.234", "0.00", "-1.00")
# each token's CsvFormatError message by column, as the per-cell checks word
# it; a token missing from a column's table is accepted there
REFUSED_TOKENS = {
    "id": {"": "empty id"},
    "coordinate": {
        "nan": "non-finite number 'nan'",
        "inf": "non-finite number 'inf'",
        "1e999": "non-finite number '1e999'",
        "x": "malformed number 'x'",
        "": "malformed number ''",
        "٣": "malformed number '٣'",
        "2_018": "malformed number '2_018'",
    },
    "scheduled_year": {token: f"malformed integer {token!r}" for token in BAD_CELL_TOKENS},
    "cost": {
        "nan": "not a money amount: 'nan'",
        "inf": "not a money amount: 'inf'",
        "1e999": "not a money amount: '1e999'",
        "x": "not a money amount: 'x'",
        "": "not a money amount: ''",
        "٣": "not a money amount: '٣'",
        "2_018": "not a money amount: '2_018'",
        "1.234": "money must have at most 2 decimal places, got '1.234'",
        "0.00": "cost must be positive, got 0.00",
        "-1.00": "cost must be positive, got -1.00",
    },
}


@given(_segment_csvs(), st.data())
def test_one_bad_cell_is_named_by_row_and_column(csv_case, data):
    header, rows, years = csv_case
    row = data.draw(st.integers(0, len(rows) - 1))
    column = data.draw(st.integers(0, len(header) - 1))
    token = data.draw(st.sampled_from(BAD_CELL_TOKENS))
    rows[row][column] = token
    name = header[column]
    message = REFUSED_TOKENS.get(name, REFUSED_TOKENS["coordinate"]).get(token)
    if message is None:
        _assert_loaded_as_checked(load_segments(_csv(header, rows), years), rows, years)
        return
    with pytest.raises(CsvFormatError) as excinfo:
        load_segments(_csv(header, rows), years)
    assert (excinfo.value.row, excinfo.value.column) == (row + 2, name)
    assert str(excinfo.value) == f"row {row + 2}, column {name!r}: {message}"


def test_oversized_field_is_a_csv_format_error():
    with pytest.raises(CsvFormatError, match="row 2"):
        load_segments("id,x,scheduled_year\n" + "a" * 200_000 + ",0,2018\n")


LINE_PIECES = st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x1c", "\u2028", "a", ",", '"'])


@given(st.lists(LINE_PIECES).map("".join) | st.text())
def test_csv_lines_are_the_lines_string_io_yields(text):
    # csv.reader keeps a quoted field's line break only if its line carries it
    assert list(paveplan.io_formats._lines(text)) == list(io.StringIO(text))


class _CountingRowReader:
    """Counts the calls of ``io_formats._segment_rows``, the row reader that
    reads a file only when the column checks refuse it."""

    def __enter__(self):
        self.calls, self.reader = 0, paveplan.io_formats._segment_rows

        def counted(text):
            self.calls += 1
            return self.reader(text)

        paveplan.io_formats._segment_rows = counted
        return self

    def __exit__(self, *exc_info):
        paveplan.io_formats._segment_rows = self.reader


def _assert_loaded_as_the_rows(text, years=None):
    """``load_segments`` and ``load_coordinates`` return what the row reader
    returns for ``text``, value for value, or raise its error, word for word,
    whether the column checks read it in blocks of 1, 2 or the usual number
    of rows; returns how many times the loaders ran the row reader."""
    try:
        expected = list(paveplan.io_formats._segment_rows(text))
    except CsvFormatError as exc:
        expected = exc
    usual, counts = paveplan.io_formats._BLOCK_ROWS, set()
    try:
        for block_rows in (1, 2, usual):
            paveplan.io_formats._BLOCK_ROWS = block_rows
            counts.add(_load_as(text, years, expected))
    finally:
        paveplan.io_formats._BLOCK_ROWS = usual
    (calls,) = counts
    return calls


def _hexed(sid, coords, *rest):
    return (sid, list(map(float.hex, coords)), *rest)


def _load_as(text, years, expected):
    with _CountingRowReader() as reader:
        for load in (partial(load_segments, years=years), load_coordinates):
            if isinstance(expected, CsvFormatError):
                with pytest.raises(CsvFormatError) as excinfo:
                    load(text)
                found = excinfo.value
                assert (str(found), found.row, found.column) == (
                    str(expected), expected.row, expected.column
                )
            elif load is load_coordinates:
                loaded = [_hexed(*item) for item in load(text).items()]
                assert loaded == [_hexed(*row[:2]) for row in expected]
            else:
                has_cost = expected[0][3] is not None
                segments = load(text)
                costs = [s.base_cost() if has_cost else None for s in segments]
                loaded = [_hexed(s.id, s.coords, s.scheduled_year, cost)
                          for s, cost in zip(segments, costs)]
                assert loaded == [_hexed(*row) for row in expected]
                assert all(type(s.scheduled_year) is int for s in segments)
                assert all(type(c) is Decimal and c.as_tuple().exponent == -2 for c in costs if has_cost)
    return reader.calls


@st.composite
def _canonical_segment_csvs(draw):
    """A segments CSV as paveplan writes it, from ``synthesize_dataset``."""
    start = draw(st.integers(1990, 2030))
    years = range(start, start + draw(st.integers(1, 4)))
    blobs = draw(st.integers(1, 4))
    n = draw(st.integers(max(blobs, len(years)), 40))
    segments, _ = synthesize_dataset(n, blobs, years, draw(st.integers(0, 10**6)))
    return emit_segments_csv(segments), draw(st.none() | st.just(years))


@given(_canonical_segment_csvs())
def test_canonical_files_are_read_a_column_at_a_time(csv_case):
    text, years = csv_case
    assert _assert_loaded_as_the_rows(text, years) == 0


@given(_segment_csvs(), st.data())
def test_column_reader_returns_what_the_row_reader_returns(csv_case, data):
    # padded, signed, integer and one-decimal cells are read a column at a
    # time; a bad cell sends both loaders to the row reader, which names it
    header, rows, years = csv_case
    refused = None
    if data.draw(st.booleans()):
        row = data.draw(st.integers(0, len(rows) - 1))
        column = data.draw(st.integers(0, len(header) - 1))
        token = data.draw(st.sampled_from(BAD_CELL_TOKENS))
        rows[row][column] = token
        refused = REFUSED_TOKENS.get(header[column], REFUSED_TOKENS["coordinate"]).get(token)
    calls = _assert_loaded_as_the_rows(_csv(header, rows), years)
    assert calls == (0 if refused is None else 2)


SEGMENTS_HEADER = "id,x,y,scheduled_year,cost"


@pytest.mark.parametrize(
    "text, calls",
    [
        (f"\n \n{SEGMENTS_HEADER}\na,0,0,2018,1.00\n\n\nb,1,0,2019,2\n\n", 0),
        (f"{SEGMENTS_HEADER}\r\na,0,0,2018,1.00\r\nb,1,0,2019,2.5\r\n", 0),
        (f"{SEGMENTS_HEADER}\na,0,0,2018,1.00\n,,,,\n , ,\nb,1,0,2019,2.50\n", 0),
        (f'{SEGMENTS_HEADER}\na,0,0,"2018\n",1.00\n', 0),
        (f'{SEGMENTS_HEADER}\na,0,0,"20\n18",1.00\n', 2),
        (f'{SEGMENTS_HEADER}\na,0,0,2018,"1.00\n"\n', 0),
        (f'{SEGMENTS_HEADER}\na,0,0,2018,"1.\n00"\n', 2),
        (f"{SEGMENTS_HEADER}\na,0,0,2018,\xa01.00\xa0\n", 0),
        (f"{SEGMENTS_HEADER}\na,0,0,\xa02018,1.00\n", 2),  # int() reads it, not as ASCII
        (f"{SEGMENTS_HEADER}\na,0,0,2018,1.00\nb,x,0,2018,1.00\na,1,0,2018,1.00\n", 2),
        (f"{SEGMENTS_HEADER}\na,0,0,2018,1.00\na,x,0,2018,1.00\nb,1,0,2018,1.00\n", 2),
        (f"{SEGMENTS_HEADER}\na,0,0,2018,1.00\nb,1,0,2018\n", 2),
        (f"{SEGMENTS_HEADER}\n", 2),
        ("id,x,y,scheduled_year\na,0,0,2018\n", 0),
        ("id,x,scheduled_year,cost\n\n", 2),
        ("", 2),
    ],
    ids=[
        "blank-lines", "crlf", "only-commas", "quoted-year-newline", "year-split-by-newline",
        "quoted-cost-newline", "cost-split-by-newline", "nbsp-cost", "nbsp-year",
        "bad-cell-before-duplicate", "duplicate-before-bad-cell", "short-row", "header-only",
        "no-cost-column", "no-data-rows", "empty",
    ],
)
def test_column_reader_cases(text, calls):
    # a file the column checks refuse is read again by both loaders
    assert _assert_loaded_as_the_rows(text) == calls


def test_a_valid_export_never_runs_the_row_reader(monkeypatch):
    def refuse(text):
        raise AssertionError("the column checks refused a valid file")

    monkeypatch.setattr(paveplan.io_formats, "_segment_rows", refuse)
    text = (
        "\r\n id , x , y , scheduled_year , cost \r\n"
        " a , 1.5 , -2 , 2018 , 12 \r\n"
        "b,1e3,+0.25,+2019,7.5\r\n"
        "\t c\t,0,0, 2020 ,0.01\r\n"
        "\r\n"
    )
    a, b, c = load_segments(text, (2018, 2019, 2020))
    assert [s.id for s in (a, b, c)] == ["a", "b", "c"]
    assert [s.coords for s in (a, b, c)] == [(1.5, -2.0), (1000.0, 0.25), (0.0, 0.0)]
    assert [s.scheduled_year for s in (a, b, c)] == [2018, 2019, 2020]
    assert [str(s.base_cost()) for s in (a, b, c)] == ["12.00", "7.50", "0.01"]
    assert load_coordinates(text) == {"a": (1.5, -2.0), "b": (1000.0, 0.25), "c": (0.0, 0.0)}


def test_segment_ids_are_quoted_when_csv_needs_it():
    segments = [seg(sid, (0, 0)) for sid in ['a,b', '"q"', "x\ny", "plain"]]
    text = emit_segments_csv(segments)
    assert text.splitlines()[-1] == "plain,0.0,0.0,2018,1.00"
    assert [s.id for s in load_segments(text)] == ['a,b', '"q"', "x\ny", "plain"]


class TestLoadBudgets:
    def test_plain_form(self):
        sched = load_budgets("year,budget\n2018,3.00\n2019,2.00\n")
        assert sched.years == (2018, 2019)
        assert sched.entries[0].low_tolerance == Decimal("0.00")

    def test_tolerance_form(self):
        sched = load_budgets("year,budget,e_l,e_h\n2018,3.00,0.50,1.00\n")
        assert sched.entries[0].low_tolerance == Decimal("0.50")
        assert sched.entries[0].high_tolerance == Decimal("1.00")

    def test_years_must_increase(self):
        with pytest.raises(CsvFormatError):
            load_budgets("year,budget\n2019,1.00\n2018,1.00\n")

    def test_bad_header(self):
        with pytest.raises(CsvFormatError):
            load_budgets("fiscal,amount\n2018,1.00\n")

    def test_header_only_rejected(self):
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_budgets("year,budget\n")

    def test_round_trip(self):
        text = "year,budget,e_l,e_h\n2018,3.00,0.50,1.00\n2019,2.00,0.00,0.00\n"
        assert emit_budgets_csv(load_budgets(text)) == text


MATRIX = "id,Y2019,Y2018\na,2.00,1.00\nb,4.00,3.00\n"


class TestCostMatrixCsv:
    def test_prices_the_segments(self):
        a, b = load_cost_matrix(MATRIX, [seg("a", (0, 0)), seg("b", (1, 0), year=2019)])
        assert (a.id, a.coords, a.scheduled_year) == ("a", (0.0, 0.0), 2018)
        assert dict(b.cost_by_year) == {2018: Decimal("3.00"), 2019: Decimal("4.00")}
        assert list(b.cost_by_year) == [2018, 2019]

    def test_rows_share_one_index_and_keep_the_parsed_cells(self, monkeypatch):
        parsed = []

        def parse_money(value, row, column):
            parsed.append(_parse_money(value, row, column))
            return parsed[-1]

        _parse_money = paveplan.io_formats._parse_money
        monkeypatch.setattr(paveplan.io_formats, "_parse_money", parse_money)
        a, b = load_cost_matrix(MATRIX, [seg("a", (0, 0)), seg("b", (1, 0))])
        assert a.cost_by_year._index is b.cost_by_year._index
        # each cell parsed once, and each segment holds its row as parsed
        assert len(parsed) == 4
        assert all(map(operator.is_, a.cost_by_year._costs, parsed[:2]))
        assert all(map(operator.is_, b.cost_by_year._costs, parsed[2:]))
        assert type(a.cost_by_year._costs) is tuple

    def test_emit_load_round_trip(self):
        years = (2018, 2019)
        segments = [
            Segment("b", (1.0, 0.0), {2018: Decimal("4.50"), 2019: Decimal("4.60")}, 2019),
            seg("a", (0, 0), cost="10.00", year=2018, years=years),
        ]
        text = emit_cost_matrix_csv(segments, years)
        assert text == "id,Y2018,Y2019\na,10.00,10.00\nb,4.50,4.60\n"
        assert load_cost_matrix(text, segments) == segments
        assert emit_cost_matrix_csv(load_cost_matrix(text, segments), years) == text

    def test_emit_writes_each_cost_as_cost_at_reads_it(self):
        # rows under three indexes, years asked in another order than held
        years = (2020, 2018, 2019)
        segments = [
            Segment("c", (2.0, 0.0), {2017: "1.00", 2018: "1.10", 2019: "1.20", 2020: "1.30"}, 2017),
            seg("a", (0, 0), cost="10.00", year=2018, years=years),
            Segment("b", (1.0, 0.0), {2018: "4.50", 2019: "4.60", 2020: "4.70"}, 2019),
        ]
        assert emit_cost_matrix_csv(segments, years) == (
            "id,Y2020,Y2018,Y2019\na,10.00,10.00,10.00\nb,4.70,4.50,4.60\nc,1.30,1.10,1.20\n"
        )

    def test_emit_names_a_missing_year(self):
        segments = [seg("a", (0, 0), years=(2018, 2019)), seg("b", (1, 0))]
        with pytest.raises(MissingCostError, match="^segment b has no cost for year 2019$"):
            emit_cost_matrix_csv(segments, (2018, 2019))

    def test_unknown_segment_rejected(self):
        with pytest.raises(UnknownSegmentError, match="segment c is missing"):
            load_cost_matrix(MATRIX, [seg("a", (0, 0)), seg("c", (1, 0))])

    def test_bad_year_column(self):
        with pytest.raises(CsvFormatError, match="row 1"):
            load_cost_matrix("id,2018\na,1.00\n", [])

    def test_duplicate_year_columns(self):
        with pytest.raises(CsvFormatError, match="row 1, column 'Y02018': duplicate year 2018"):
            load_cost_matrix("id,Y2018,Y2019,Y02018\na,1.00,1.00,1.00\n", [])

    def test_duplicate_id_names_its_first_row(self):
        with pytest.raises(CsvFormatError) as excinfo:
            load_cost_matrix("id,Y2018\na,1.00\nb,1.00\na,2.00\n", [])
        assert str(excinfo.value) == (
            "row 4, column 'id': duplicate id 'a' (first seen on row 2)"
        )

    def test_wrong_row_width(self):
        with pytest.raises(CsvFormatError, match="row 3: expected 3 fields, got 2"):
            load_cost_matrix("id,Y2018,Y2019\na,1.00,1.00\nb,1.00\n", [])

    @pytest.mark.parametrize("cell", ["0.00", "-1.00"])
    def test_costs_must_be_positive(self, cell):
        with pytest.raises(
            CsvFormatError, match=f"row 2, column 'Y2019': cost must be positive, got {cell}"
        ):
            load_cost_matrix(f"id,Y2018,Y2019\na,1.00,{cell}\n", [])

    def test_malformed_money_names_row_and_column(self):
        with pytest.raises(CsvFormatError, match="row 2, column 'Y2018': money must have"):
            load_cost_matrix("id,Y2018\na,1.001\n", [])


class TestInputDigest:
    def test_sensitive_to_any_byte(self):
        assert input_digest("abc", "def") != input_digest("abc", "deg")
        assert input_digest("abc", "def") != input_digest("abcd", "ef")

    def test_stable(self):
        assert input_digest("abc") == input_digest("abc")


def _example_plan():
    segments_csv, budgets_csv = two_blob_inputs()
    segments = load_segments(segments_csv)
    schedule_obj = load_budgets(budgets_csv)
    segments = flat_cost_table(segments, schedule_obj.years)
    plan = landmark_based_radial_clustering(segments, schedule_obj, 0)
    metrics = compute_metrics(plan, schedule_obj, segments)
    digest = input_digest(segments_csv, budgets_csv, "")
    return plan, metrics, schedule_obj, segments, digest


class TestPlanDocument:
    def test_document_equality_after_parse(self):
        # the parse itself writes the document again from these fields and
        # compares the bytes, so the round trip is byte-identical once it reads
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        document = parse_plan_document(emit_plan(plan, metrics, schedule_obj, segments, digest))
        assert document.input_digest == digest
        assert document.schedule == schedule_obj
        assert document.metrics == metrics
        assert document.plan == plan

    def test_members_are_priced_at_their_cluster_year(self):
        # each cluster's members in document order, then the unassigned (none
        # here) at no cost
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        document = parse_plan_document(emit_plan(plan, metrics, schedule_obj, segments, digest))
        lookup = {seg.id: seg for seg in segments}
        year_of = {sid: cluster.year for cluster in plan.clusters for sid in cluster.member_ids}
        assert [sid for sid, *_ in document.members] == [
            *(sid for cluster in plan.clusters for sid in cluster.member_ids), *plan.unassigned_ids
        ]
        for sid, coords, scheduled_year, cost_used in document.members:
            assert coords == lookup[sid].coords
            assert scheduled_year == lookup[sid].scheduled_year
            expected = lookup[sid].cost_at(year_of[sid]) if sid in year_of else None
            assert cost_used == expected

    def test_empty_plan_document(self):
        plan = Plan(())
        from paveplan.model import BudgetSchedule

        schedule_obj = BudgetSchedule(())
        metrics = compute_metrics(plan, schedule_obj, [])
        text = emit_plan(plan, metrics, schedule_obj, [], "d1gest")
        document = parse_plan_document(text)
        assert document.plan.clusters == ()
        assert document.members == ()
        assert document.input_digest == "d1gest"

    def test_golden_two_blob_document(self):
        # frozen output of the engine on the canonical 2-blob instance;
        # any byte-level drift in the format is a breaking change
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        text = emit_plan(plan, metrics, schedule_obj, segments, digest)
        golden = (DATA_DIR / "two_blob_plan.json").read_text(encoding="utf-8")
        assert text == golden

    def test_unknown_member_is_named(self):
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        missing = plan.clusters[-1].member_ids[-1]
        others = [seg for seg in segments if seg.id != missing]
        with pytest.raises(
            UnknownSegmentError, match=f"^plan references unknown segment {missing!r}$"
        ):
            emit_plan(plan, metrics, schedule_obj, others, digest)

    def test_members_carry_both_years(self):
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        obj = json.loads(emit_plan(plan, metrics, schedule_obj, segments, digest))
        lookup = {seg.id: seg for seg in segments}
        for cluster in obj["clusters"]:
            for member in cluster["members"]:
                assert member["assigned_year"] == cluster["year"]
                assert member["scheduled_year"] == lookup[member["id"]].scheduled_year
                assert member["scheduled_year"] in schedule_obj.years
                cost = lookup[member["id"]].cost_at(cluster["year"])
                assert member["cost_used"] == f"{cost:.2f}"
        assert any(
            m["scheduled_year"] != c["year"] for c in obj["clusters"] for m in c["members"]
        )


def _node_paths(node, prefix=()):
    """Every path (a tuple of keys and indices) below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


GOLDEN_TEXT = (DATA_DIR / "two_blob_plan.json").read_text(encoding="utf-8")


def _ordered(**fields):
    """JSON objects with ``fields`` in this key order, as the emitter writes them."""
    keys = list(fields)
    return st.tuples(*fields.values()).map(lambda values: dict(zip(keys, values)))


def _money_text(cents):
    return cents.map(lambda c: f"{Decimal(c) / 100:.2f}")


# every C0 control, DEL, both Unicode line breaks and a lone surrogate,
# which json.loads can produce
AWKWARD_TEXTS = [
    'q"u\\o"te',
    "\u00e9t\u00e9 \u2603",
    "\x00\x1f\n\t\u2028",
    "".join(map(chr, range(0x20))) + "\x7f\u2029",
    "\ud800",
]
TEXTS = st.text(max_size=8) | st.sampled_from(AWKWARD_TEXTS)
AWKWARD_FLOATS = [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 1e22, -1e-7]
FLOATS = st.floats() | st.sampled_from([*AWKWARD_FLOATS, math.nan, math.inf, -math.inf])
YEARS = st.integers(-10_000, 10_000)
# as a segment holds them: at least one, each finite
COORDS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(AWKWARD_FLOATS),
    min_size=1,
    max_size=3,
)
MONEY = _money_text(st.integers(-10**12, 10**12)) | st.just("-0.00")


@st.composite
def _schedule_objs(draw):
    years = sorted(draw(st.sets(YEARS, max_size=3)))
    entries = []
    for year in years:
        budget = draw(st.integers(1, 10**12))
        entries.append(
            {
                "year": year,
                "budget": f"{Decimal(budget) / 100:.2f}",
                "low_tolerance": f"{Decimal(draw(st.integers(0, budget - 1))) / 100:.2f}",
                "high_tolerance": draw(_money_text(st.integers(0, 10**12))),
            }
        )
    tolerance = draw(_money_text(st.integers(0, 10**6)))
    return {"conservation_tolerance": tolerance, "entries": entries}


DIAGNOSTIC_OBJS = _ordered(
    code=TEXTS,
    message=TEXTS,
    year=st.none() | YEARS,
    segment_ids=st.lists(TEXTS, max_size=3),
)


@st.composite
def _document_objs(draw):
    """A plan document as ``json.loads`` gives it: any schedule, unique member
    ids spread over its clusters and the unassigned list, each non-empty
    cluster centered on a member, any finite coordinates, any costs, stored
    dispersion figures and diagnostics, and every other field derived as the
    writer derives it."""
    schedule = draw(_schedule_objs())
    entries = schedule["entries"]
    ids = draw(st.lists(TEXTS, unique=True, max_size=6))
    where = [draw(st.integers(-1, len(entries) - 1)) for _ in ids]  # -1: unassigned

    def member(sid, year):
        return {
            "id": sid,
            "coords": draw(COORDS),
            "scheduled_year": draw(YEARS),
            "assigned_year": year,
            "cost_used": None if year is None else draw(MONEY),
        }

    clusters, per_year = [], []
    for index, entry in enumerate(entries):
        members = [member(sid, entry["year"]) for sid, at in zip(ids, where) if at == index]
        realized = sum((Decimal(m["cost_used"]) for m in members), Decimal("0.00"))
        budget = Decimal(entry["budget"])
        center = draw(st.sampled_from([m["id"] for m in members])) if members else None
        clusters.append(
            {
                "year": entry["year"],
                "center_id": center,
                "budget": entry["budget"],
                "realized_cost": f"{realized:.2f}",
                "members": members,
            }
        )
        per_year.append(
            {
                "year": entry["year"],
                "budget": entry["budget"],
                "realized_cost": f"{realized:.2f}",
                "utilization": float(realized / budget),
                "member_count": len(members),
                "mean_member_distance_to_center": draw(FLOATS),
                "mean_pairwise_distance": draw(FLOATS),
                "over_budget": realized > budget,
            }
        )
    unassigned = [member(sid, None) for sid, at in zip(ids, where) if at == -1]
    total_budget = sum((Decimal(e["budget"]) for e in entries), Decimal("0.00"))
    total_cost = sum((Decimal(c["realized_cost"]) for c in clusters), Decimal("0.00"))
    return {
        "format_version": "1",
        "input_digest": draw(TEXTS),
        "schedule": schedule,
        "clusters": clusters,
        "unassigned": unassigned,
        "metrics": {
            "per_year": per_year,
            "overall": {
                "total_budget": f"{total_budget:.2f}",
                "total_cost": f"{total_cost:.2f}",
                "total_deviation": f"{total_cost - total_budget:.2f}",
                "weighted_mean_dispersion": draw(FLOATS),
            },
            "unassigned_count": len(unassigned),
        },
        "diagnostics": draw(st.lists(DIAGNOSTIC_OBJS, max_size=2)),
    }


DOCUMENT_OBJS = _document_objs()


@given(DOCUMENT_OBJS)
def test_document_json_is_json_dumps(obj):
    # NaN and infinities reach the document through json.loads, as from a file
    text = oracle_document_json(obj)
    parse_plan_document(text)


WRITE_IDS = st.text(min_size=1, max_size=6) | st.sampled_from(AWKWARD_TEXTS)
CENTS = st.integers(1, 10**12).map(lambda c: Decimal(c) / 100)


@st.composite
def _plans(draw):
    """A plan, its metrics and schedule, its segments by id and a digest:
    any ids and coordinates, empty clusters, unassigned segments, any stored
    dispersion figures and diagnostics, and the other metrics as the writer
    derives them."""
    years = sorted(draw(st.sets(YEARS, max_size=3)))
    ids = draw(st.lists(WRITE_IDS, unique=True, max_size=6))
    where = [draw(st.integers(-1, len(years) - 1)) for _ in ids]  # -1: unassigned
    lookup = {}
    for sid in ids:
        scheduled = draw(YEARS)
        costs = {year: draw(CENTS) for year in {*years, scheduled}}
        lookup[sid] = Segment(sid, tuple(draw(COORDS)), costs, scheduled)
    entries = []
    for year in years:
        budget = draw(st.integers(1, 10**12))
        low = draw(st.integers(0, budget - 1))
        entries.append(BudgetEntry(year, Decimal(budget) / 100, Decimal(low) / 100, draw(CENTS)))
    schedule_obj = BudgetSchedule(tuple(entries), draw(CENTS))
    clusters = []
    for index, entry in enumerate(entries):
        # a cluster has its schedule entry's year and budget
        members = [sid for sid, at in zip(ids, where) if at == index]
        center = draw(st.sampled_from(members)) if members else None
        realized = sum((lookup[sid].cost_at(entry.year) for sid in members), Decimal("0.00"))
        clusters.append(Cluster(entry.year, center, tuple(members), realized, entry.budget))
    unassigned = tuple(sid for sid, at in zip(ids, where) if at == -1)
    diagnostics = draw(
        st.lists(
            st.builds(
                Diagnostic, TEXTS, TEXTS, st.none() | YEARS, st.lists(WRITE_IDS, max_size=2)
            ),
            max_size=2,
        )
    )
    plan = Plan(tuple(clusters), unassigned, tuple(diagnostics))
    per_year = tuple(
        YearMetrics(
            c.year, c.budget, c.realized_cost, float(c.realized_cost / c.budget), c.size,
            draw(FLOATS), draw(FLOATS), c.realized_cost > c.budget,
        )
        for c in clusters
    )
    total_budget = sum((c.budget for c in clusters), Decimal("0.00"))
    total_cost = sum((c.realized_cost for c in clusters), Decimal("0.00"))
    overall = OverallMetrics(total_budget, total_cost, total_cost - total_budget, draw(FLOATS))
    metrics = PlanMetrics(per_year, overall, len(unassigned))
    return plan, metrics, schedule_obj, lookup, draw(TEXTS)


def _awkward_case():
    """One plan holding every awkward value ``_plans`` may draw."""
    segments = [
        Segment(sid, coords, {2018: Decimal("1.00"), 2020: Decimal("2.50")}, 2018)
        for sid, coords in zip(
            AWKWARD_TEXTS, [(-0.0,), (5e-324, 1e16), (1e22, -1e-7, 0.5), (1.0, 2.0), (3.0,)]
        )
    ]
    ids = [seg.id for seg in segments]
    plan = Plan(
        (
            Cluster(2018, ids[1], tuple(ids[:3]), Decimal("3.00"), Decimal("4.00")),
            Cluster(2019, None, (), Decimal("0.00"), Decimal("4.00")),
        ),
        tuple(ids[3:]),
        (
            Diagnostic("empty_cluster", "year 2019 is empty", None, ()),
            Diagnostic("c\u2028", 'm"\\', 2019, tuple(ids[3:])),
        ),
    )
    schedule_obj = BudgetSchedule(
        (BudgetEntry(2018, Decimal("4.00")), BudgetEntry(2019, Decimal("4.00"))),
        Decimal("0.50"),
    )
    metrics = PlanMetrics(
        (
            YearMetrics(2018, Decimal("4.00"), Decimal("3.00"), 0.75, 3, math.nan, 1e16, False),
            YearMetrics(2019, Decimal("4.00"), Decimal("0.00"), 0.0, 0, -0.0, math.inf, False),
        ),
        OverallMetrics(Decimal("8.00"), Decimal("3.00"), Decimal("-5.00"), -math.inf),
        2,
    )
    return plan, metrics, schedule_obj, {seg.id: seg for seg in segments}, "d\u00efgest"


@given(_plans())
@example(_awkward_case())
def test_emit_plan_is_json_dumps(case):
    # the write side never builds a PlanDocument, so the parse-side property
    # above cannot see it; this one builds the object independently
    plan, metrics, schedule_obj, lookup, digest = case
    text = emit_plan(plan, metrics, schedule_obj, lookup.values(), digest)
    assert text == oracle_document_json(oracle_plan_obj(*case))
    parse_plan_document(text)


def test_large_document_json_is_json_dumps():
    # thousands of members, not the golden document's six
    obj = json.loads(GOLDEN_TEXT)
    member = obj["clusters"][0]["members"][0]
    obj["unassigned"] = [
        dict(member, id=f"u{i}", assigned_year=None, cost_used=None) for i in range(2_000)
    ]
    obj["metrics"]["unassigned_count"] = 2_000
    text = oracle_document_json(obj)
    parse_plan_document(text)


def _golden_with(path, value):
    """The golden document with the value at ``path`` replaced, written as
    paveplan writes documents."""
    obj = json.loads(GOLDEN_TEXT)
    *parent_path, key = path
    parent = obj
    for step in parent_path:
        parent = parent[step]
    parent[key] = value
    return document_text(obj)


def _refused(text):
    with pytest.raises(PavePlanError) as excinfo:
        parse_plan_document(text)
    return str(excinfo.value)


DIAGNOSTIC = {"code": "c", "message": "m", "year": 2018, "segment_ids": []}

MEMBER = ("clusters", 0, "members", 0)
PER_YEAR = ("metrics", "per_year", 0)
OVERALL = ("metrics", "overall")
INTEGER_FIELDS = [
    ("schedule", "entries", 0, "year"),
    ("clusters", 0, "year"),
    MEMBER + ("scheduled_year",),
    MEMBER + ("assigned_year",),
    PER_YEAR + ("year",),
    PER_YEAR + ("member_count",),
    ("metrics", "unassigned_count"),
]

MONEY_FIELDS = [
    ("schedule", "entries", 0, "budget"),
    ("clusters", 0, "budget"),
    MEMBER + ("cost_used",),
    OVERALL + ("total_cost",),
]


def _value_at(path):
    node = json.loads(GOLDEN_TEXT)
    for step in path:
        node = node[step]
    return node


class TestMalformedPlanDocument:
    # each edit is refused at its line, with the line as found; where the
    # writer reads the same value there, it expects the golden line
    @pytest.mark.parametrize("path", INTEGER_FIELDS, ids=lambda p: ".".join(map(str, p)))
    @pytest.mark.parametrize("value", [2018.7, 2018.0, True, "2018"], ids=repr)
    def test_integer_fields_must_be_integers(self, path, value):
        text = _golden_with(path, value)
        assert re.match(refused_at(text, GOLDEN_TEXT), _refused(text))

    @pytest.mark.parametrize("value", [2018.7, 2018.0, True, "2018"], ids=repr)
    def test_diagnostic_year_must_be_an_integer(self, value):
        text = _golden_with(("diagnostics",), [dict(DIAGNOSTIC, year=value)])
        reference = _golden_with(("diagnostics",), [DIAGNOSTIC])
        assert re.match(refused_at(text, reference), _refused(text))

    def test_diagnostic_year_may_be_null(self):
        text = _golden_with(("diagnostics",), [dict(DIAGNOSTIC, year=None), DIAGNOSTIC])
        years = [d.year for d in parse_plan_document(text).plan.diagnostics]
        assert years == [None, 2018]

    @pytest.mark.parametrize(
        "path, value",
        [
            (MEMBER + ("coords",), [True, 0.0]),
            (MEMBER + ("coords",), ["1.5", 0.0]),
            (PER_YEAR + ("utilization",), True),
            (PER_YEAR + ("mean_pairwise_distance",), "1.0"),
            (OVERALL + ("weighted_mean_dispersion",), False),
            (("clusters", 0, "budget"), True),
            (MEMBER + ("cost_used",), 1.0),
            (OVERALL + ("total_cost",), "1.005"),
            (("input_digest",), None),
            (MEMBER + ("id",), ["b2"]),
        ],
    )
    def test_number_and_text_fields_refuse_other_types(self, path, value):
        text = _golden_with(path, value)
        assert re.match(refused_at(text, GOLDEN_TEXT), _refused(text))

    @pytest.mark.parametrize(
        "path, value",
        [(path, value) for path in MONEY_FIELDS for value in money_respellings(_value_at(path))],
    )
    def test_money_is_written_with_two_decimals(self, path, value):
        # money() reads each as the golden amount, which the writer writes back
        text = _golden_with(path, value)
        assert _refused(text) == refusal(text, GOLDEN_TEXT)

    @pytest.mark.parametrize(
        "path, value",
        [
            (MEMBER + ("coords",), [101, 0]),
            (MEMBER + ("coords",), [101.0, 0]),
            (PER_YEAR + ("utilization",), 1),
            (PER_YEAR + ("mean_member_distance_to_center",), 0),
            (PER_YEAR + ("mean_pairwise_distance",), 10**400),
            (OVERALL + ("weighted_mean_dispersion",), 0),
        ],
        ids=["coords", "one-int-coord", "utilization", "to-center", "huge-pairwise", "weighted"],
    )
    def test_integer_floats_are_refused(self, path, value):
        # 101 and 1 are written back as 101.0 and 1.0; 10**400 is no float
        text = _golden_with(path, value)
        assert re.match(refused_at(text, GOLDEN_TEXT), _refused(text))

    @pytest.mark.parametrize("field, value", [("assigned_year", 1999), ("assigned_year", None)])
    def test_member_has_its_cluster_year(self, field, value):
        text = _golden_with(MEMBER + (field,), value)
        assert _refused(text) == refusal(text, GOLDEN_TEXT)

    @pytest.mark.parametrize(
        "value, realized", [(None, "2.00"), ("123.45", "125.45"), ("0.99", "2.99")]
    )
    def test_cluster_realized_cost_is_its_members_sum(self, value, realized):
        # the writer derives realized_cost, which it writes before the members
        text = _golden_with(MEMBER + ("cost_used",), value)
        assert _refused(text) == (
            f"plan document line 26: expected '      \"realized_cost\": \"{realized}\",', "
            "found '      \"realized_cost\": \"3.00\",'"
        )

    @pytest.mark.parametrize(
        "field, value", [("assigned_year", 2018), ("cost_used", "1.00")]
    )
    def test_unassigned_member_has_no_year_or_cost(self, field, value):
        obj = json.loads(GOLDEN_TEXT)
        member = dict(obj["clusters"][0]["members"][0], id="u", assigned_year=None, cost_used=None)
        obj["unassigned"] = [member]
        obj["metrics"]["unassigned_count"] = 1
        reference = document_text(obj)
        obj["unassigned"] = [dict(member, **{field: value})]
        text = document_text(obj)
        assert _refused(text) == refusal(text, reference)

    def test_over_budget_singleton_parses(self):
        obj = json.loads(GOLDEN_TEXT)
        cluster = obj["clusters"][0]
        cluster["members"] = cluster["members"][:1]
        cluster.update(budget="0.50", realized_cost="1.00")
        obj["schedule"]["entries"][0]["budget"] = "0.50"
        obj["metrics"]["per_year"][0].update(
            budget="0.50", realized_cost="1.00", member_count=1, utilization=2.0,
            over_budget=True,
        )
        obj["metrics"]["overall"].update(
            total_budget="3.50", total_cost="4.00", total_deviation="0.50"
        )
        cluster = parse_plan_document(document_text(obj)).plan.clusters[0]
        assert cluster.realized_cost > cluster.budget

    @pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_plan_fixtures_parse(self, path):
        text = path.read_text(encoding="utf-8")
        parse_plan_document(text)

    @pytest.mark.parametrize(
        "text", ["[]", "null", "7", '"plan"', '{"format_version": "1"}', "[" * 100_000]
    )
    def test_named_error(self, text):
        with pytest.raises(PavePlanError):
            parse_plan_document(text)

    def test_cluster_without_schedule_entry(self):
        obj = json.loads(GOLDEN_TEXT)
        obj["clusters"].append(dict(obj["clusters"][1], year=2020, members=[], realized_cost="0.00"))
        text = document_text(obj)
        assert _refused(text) == "plan document line 97: expected '    }', found '    },'"

    def test_cluster_budget_is_its_schedule_entry_budget(self):
        text = _golden_with(("clusters", 0, "budget"), "0.00")
        assert _refused(text) == refusal(text, GOLDEN_TEXT)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["clusters"][0].update(center_id="zz"),
             "cluster 2018: center 'zz' is not a member"),
            (lambda obj: obj["clusters"][1]["members"][1].update(id="a1"),
             "cluster 2019: duplicate member id 'a1'"),
            (lambda obj: obj["clusters"][1]["members"][1].update(id="b1"),
             "segment b1 appears in more than one cluster"),
        ],
        ids=["center-no-member", "id-twice-in-a-cluster", "id-in-two-clusters"],
    )
    def test_values_the_model_refuses_are_named(self, edit, message):
        # every byte agrees with what the writer writes; the plan does not hold
        obj = json.loads(GOLDEN_TEXT)
        edit(obj)
        assert _refused(document_text(obj)) == f"plan document has a bad value: {message}"

    def test_a_non_positive_budget_is_named(self):
        obj = json.loads(GOLDEN_TEXT)
        obj["schedule"]["entries"][0]["budget"] = obj["clusters"][0]["budget"] = "0.00"
        obj["metrics"]["per_year"][0].update(
            budget="0.00", utilization=math.nan, over_budget=True
        )
        obj["metrics"]["overall"].update(total_budget="3.00", total_deviation="3.00")
        assert _refused(document_text(obj)) == (
            "plan document has a bad value: budget for 2018 must be positive"
        )

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(json.dumps(json.loads(GOLDEN_TEXT), indent=4) + "\n", id="re-indented"),
            pytest.param(json.dumps(json.loads(GOLDEN_TEXT)), id="minified"),
            pytest.param(
                json.dumps(json.loads(GOLDEN_TEXT), indent=2, sort_keys=True) + "\n",
                id="key-reordered",
            ),
            pytest.param(
                GOLDEN_TEXT.replace('"center_id": "b2",', '"center_id": "b2",\n      "center_id": "b2",'),
                id="duplicate-key",
            ),
            pytest.param(
                _golden_with(MEMBER, dict(_value_at(MEMBER), note="x")), id="extra-key"
            ),
            pytest.param(GOLDEN_TEXT.replace("101.0", "101", 1), id="101-for-101.0"),
            pytest.param(
                GOLDEN_TEXT.replace('"scheduled_year": 2018', '"scheduled_year": "2018"', 1),
                id="string-for-2018",
            ),
        ],
    )
    def test_only_the_written_form_parses(self, text):
        # each holds the golden document's values, or one more key, or one
        # value of another JSON type; only its bytes tell it from the golden
        assert _refused(text) == refusal(text, GOLDEN_TEXT)

    @pytest.mark.parametrize(
        "coords", [[math.nan, 0.0], [101.0, math.inf], [-math.inf, 0.0], []],
        ids=["nan", "inf", "-inf", "empty"],
    )
    def test_coordinates_no_segment_holds_are_refused(self, coords):
        # paveplan writes a segment's coordinates: at least one, each finite
        text = _golden_with(MEMBER + ("coords",), coords)
        assert re.match(refused_at(text, GOLDEN_TEXT), _refused(text))

    def test_text_after_the_document_is_refused(self):
        assert _refused(GOLDEN_TEXT + "\n") == (
            "plan document line 133: expected the end of the document, found '\\n'"
        )

    @given(st.data())
    def test_mutations_parse_or_raise_named_error(self, data):
        # drop keys, swap value types and wrap values in arrays, anywhere in
        # a valid document written as paveplan writes it: the result parses
        # or is refused by name
        obj = json.loads(GOLDEN_TEXT)
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(_node_paths(obj))
            action = data.draw(st.sampled_from(["drop", "swap", "wrap", "wrap_all"]))
            if action == "wrap_all" or not paths:
                obj = [obj]
                continue
            *parent_path, key = paths[data.draw(st.integers(0, len(paths) - 1))]
            parent = obj
            for step in parent_path:
                parent = parent[step]
            if action == "drop":
                del parent[key]
            elif action == "swap":
                parent[key] = data.draw(JSON_VALUES)
            else:
                parent[key] = [parent[key]]
        try:
            document = parse_plan_document(document_text(obj))
        except PavePlanError:
            return
        assert isinstance(document, PlanDocument)


class TestRenderSvg:
    def test_single_segment(self):
        segments = [seg("a", (0, 0))]
        plan = Plan((Cluster(2018, "a", ("a",), "1.00", "1.00"),))
        svg = render_plan_svg(plan, segments)
        assert svg.count("<circle") == 2  # marker + center ring
        assert "2018" in svg
        assert svg.startswith("<svg")

    def test_two_clusters_two_colors(self):
        segments = [seg("a", (0, 0)), seg("b", (10, 0))]
        plan = Plan(
            (
                Cluster(2018, "a", ("a",), "1.00", "1.00"),
                Cluster(2019, "b", ("b",), "1.00", "1.00"),
            )
        )
        svg = render_plan_svg(plan, segments)
        assert "#1f77b4" in svg and "#ff7f0e" in svg
        assert svg.count('fill="none"') == 2  # both centers ringed

    def test_deterministic(self):
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        assert render_plan_svg(plan, segments) == render_plan_svg(plan, segments)

    def test_well_formed_for_any_id(self):
        segments = [seg("a<b&c", (0, 0)), seg("\"d'>", (1, 1))]
        plan = Plan((Cluster(2018, "a<b&c", ("a<b&c",), "1.00", "1.00"),), ("\"d'>",))
        root = ElementTree.fromstring(render_plan_svg(plan, segments))
        titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}title")]
        assert titles == ["a<b&c", "\"d'>"]

    @pytest.mark.parametrize(
        "a, b", [((9e307, 0), (-9e307, 0)), ((0, 9e307), (0, -9e307))], ids=["x", "y"]
    )
    def test_rejects_an_extent_that_overflows(self, a, b):
        segments = [seg("a", a), seg("b", b)]
        plan = Plan((Cluster(2018, "a", ("a", "b"), "2.00", "2.00"),))
        with pytest.raises(PavePlanError, match="cannot be plotted"):
            render_plan_svg(plan, segments)

    def test_rejects_non_planar(self):
        segments = [seg("a", (0, 0, 0))]
        plan = Plan((Cluster(2018, "a", ("a",), "1.00", "1.00"),))
        with pytest.raises(DimensionMismatchError):
            render_plan_svg(plan, segments)

    def test_unassigned_marker_and_legend(self):
        segments = [seg("a", (0, 0)), seg("u", (5, 5))]
        plan = Plan(
            (Cluster(2018, "a", ("a",), "1.00", "1.00"),), unassigned_ids=("u",)
        )
        svg = render_plan_svg(plan, segments)
        assert "#bbbbbb" in svg
        assert "unassigned" in svg

    def test_map_bytes(self):
        # 11 years, so the palette wraps, one of them empty; centers that are
        # not their cluster's first member; unassigned members; ids that need
        # escaping or hold a character XML forbids; negative and -0.0
        # coordinates. The same bytes on every supported Python.
        segments, clusters = [], []
        for index, year in enumerate(range(2018, 2029)):
            if year == 2021:
                clusters.append(Cluster(year, None, (), "0.00", "1.00"))
                continue
            ids = [f"{year}-{k}" for k in range(3)]
            if year == 2018:
                ids += ["a&b", "<c>"]
            for k, sid in enumerate(ids):
                segments.append(seg(sid, ((k - 1) * 3.5 * (index - 5), k - index * 1.25)))
            clusters.append(Cluster(year, ids[index % len(ids)], tuple(ids), "3.00", "3.00"))
        unassigned = ('d"e', "f\x0bg", "u>")
        segments += [seg(sid, (-0.0, -2.5 * k)) for k, sid in enumerate(unassigned)]
        svg = render_plan_svg(Plan(tuple(clusters), unassigned), segments)
        assert ElementTree.fromstring(svg) is not None
        assert "f\ufffdg" in svg and svg.count('fill="none"') == 10
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == (
            "87dfd0562c5f37900f44651aa7a0d271371e551b246c2adc198695fdcd8ba781"
        )

    @pytest.mark.parametrize(
        "order, error",
        [(("flat", "nowhere"), DimensionMismatchError), (("nowhere", "flat"), UnknownSegmentError)],
    )
    def test_first_refused_id_names_the_error(self, order, error):
        # "flat" has three coordinates, "nowhere" is in no segment
        segments = [seg("a", (0, 0)), seg("flat", (0, 0, 0))]
        plan = Plan((Cluster(2018, "a", ("a", order[0]), "2.00", "2.00"),), (order[1],))
        with pytest.raises(error):
            render_plan_svg(plan, segments)
