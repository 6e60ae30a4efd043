import json
import math
from decimal import Decimal
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, strategies as st

from paveplan.costs import matrix_from_segments
from paveplan.io_formats import (
    CsvFormatError,
    build_plan_document,
    document_to_json,
    emit_budgets_csv,
    emit_cost_matrix_csv,
    emit_plan,
    emit_segments_csv,
    input_digest,
    load_budgets,
    load_cost_matrix,
    load_segments,
    parse_plan_document,
    PlanDocument,
    plan_from_document,
    render_plan_svg,
)
from paveplan.metrics import compute_metrics
from paveplan.model import (
    BudgetEntry,
    BudgetSchedule,
    Cluster,
    DimensionMismatchError,
    PavePlanError,
    Plan,
    Segment,
)
from paveplan.radial import landmark_based_radial_clustering

from helpers import csv_texts, seg
from oracles import oracle_document_json

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
        (load_cost_matrix, "id,Y2018,Y2019", "s{i},1.00,2.00"),
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


def test_oversized_field_is_a_csv_format_error():
    with pytest.raises(CsvFormatError, match="row 2"):
        load_segments("id,x,scheduled_year\n" + "a" * 200_000 + ",0,2018\n")


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


class TestCostMatrixCsv:
    def test_round_trip(self):
        text = "id,Y2018,Y2019\na,10.00,12.00\nb,4.50,4.60\n"
        matrix = load_cost_matrix(text)
        assert matrix.years == (2018, 2019)
        assert emit_cost_matrix_csv(matrix) == text

    def test_matches_matrix_from_segments(self):
        years = (2018, 2019)
        segments = [seg("a", (0, 0), cost="10.00", years=years)]
        emitted = emit_cost_matrix_csv(matrix_from_segments(segments, years))
        assert load_cost_matrix(emitted) == matrix_from_segments(segments, years)

    def test_bad_year_column(self):
        with pytest.raises(CsvFormatError):
            load_cost_matrix("id,2018\na,1.00\n")

    def test_wrong_row_width(self):
        with pytest.raises(CsvFormatError):
            load_cost_matrix("id,Y2018,Y2019\na,1.00\n")


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
    from paveplan.costs import flat_cost_table

    segments = flat_cost_table(segments, schedule_obj.years)
    plan = landmark_based_radial_clustering(segments, schedule_obj, 0)
    metrics = compute_metrics(plan, schedule_obj, segments)
    digest = input_digest(segments_csv, budgets_csv, "")
    return plan, metrics, schedule_obj, segments, digest


class TestPlanDocument:
    def test_round_trip_is_byte_identical(self):
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        text = emit_plan(plan, metrics, schedule_obj, segments, digest)
        document = parse_plan_document(text)
        assert document_to_json(document) == text

    def test_document_equality_after_parse(self):
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        document = build_plan_document(plan, metrics, schedule_obj, segments, digest)
        assert parse_plan_document(document_to_json(document)) == document

    def test_plan_reconstruction(self):
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        text = emit_plan(plan, metrics, schedule_obj, segments, digest)
        rebuilt = plan_from_document(parse_plan_document(text))
        assert rebuilt == plan

    def test_empty_plan_document(self):
        plan = Plan(())
        from paveplan.model import BudgetSchedule

        schedule_obj = BudgetSchedule(())
        metrics = compute_metrics(plan, schedule_obj, [])
        text = emit_plan(plan, metrics, schedule_obj, [], "d1gest")
        document = parse_plan_document(text)
        assert document.clusters == ()
        assert document.input_digest == "d1gest"

    def test_golden_two_blob_document(self):
        # frozen output of the engine on the canonical 2-blob instance;
        # any byte-level drift in the format is a breaking change
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        text = emit_plan(plan, metrics, schedule_obj, segments, digest)
        golden = (DATA_DIR / "two_blob_plan.json").read_text(encoding="utf-8")
        assert text == golden

    def test_members_carry_both_years(self):
        plan, metrics, schedule_obj, segments, digest = _example_plan()
        document = build_plan_document(plan, metrics, schedule_obj, segments, digest)
        member = document.clusters[0].members[0]
        assert member.assigned_year == document.clusters[0].year
        assert member.scheduled_year in schedule_obj.years


def _node_paths(node, prefix=()):
    """Every path (a tuple of keys and indices) below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


GOLDEN_TEXT = (DATA_DIR / "two_blob_plan.json").read_text(encoding="utf-8")


def _ordered(**fields):
    """JSON objects with ``fields`` in this key order, as the emitter writes them."""
    keys = list(fields)
    return st.tuples(*fields.values()).map(lambda values: dict(zip(keys, values)))


def _money_text(cents):
    return cents.map(lambda c: f"{Decimal(c) / 100:.2f}")


TEXTS = st.text(max_size=8) | st.sampled_from(
    ['q"u\\o"te', "\u00e9t\u00e9 \u2603", "\x00\x1f\n\t\u2028"]
)
FLOATS = st.floats() | st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf])
YEARS = st.integers(-10_000, 10_000)
MONEY = _money_text(st.integers(-10**12, 10**12)) | st.just("-0.00")
POSITIVE_MONEY = _money_text(st.integers(1, 10**12))


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


def _members(assigned):
    member = _ordered(
        id=TEXTS,
        coords=st.lists(FLOATS, min_size=1, max_size=3),
        scheduled_year=YEARS,
        assigned_year=YEARS if assigned else st.none(),
        cost_used=MONEY if assigned else st.none(),
    )
    return st.lists(member, max_size=3)


DOCUMENT_OBJS = _ordered(
    format_version=st.just("1"),
    input_digest=TEXTS,
    schedule=_schedule_objs(),
    clusters=st.lists(
        _ordered(
            year=YEARS,
            center_id=st.none() | TEXTS,
            budget=POSITIVE_MONEY,
            realized_cost=MONEY,
            members=_members(assigned=True),
        ),
        max_size=3,
    ),
    unassigned=_members(assigned=False),
    metrics=_ordered(
        per_year=st.lists(
            _ordered(
                year=YEARS,
                budget=MONEY,
                realized_cost=MONEY,
                utilization=FLOATS,
                member_count=st.integers(0, 10**6),
                mean_member_distance_to_center=FLOATS,
                mean_pairwise_distance=FLOATS,
                over_budget=st.booleans(),
            ),
            max_size=3,
        ),
        overall=_ordered(
            total_budget=MONEY,
            total_cost=MONEY,
            total_deviation=MONEY,
            weighted_mean_dispersion=FLOATS,
        ),
        unassigned_count=st.integers(0, 10**6),
    ),
    diagnostics=st.lists(
        _ordered(
            code=TEXTS,
            message=TEXTS,
            year=st.none() | YEARS,
            segment_ids=st.lists(TEXTS, max_size=3),
        ),
        max_size=2,
    ),
)


@given(DOCUMENT_OBJS)
def test_document_json_is_json_dumps(obj):
    # NaN and infinities reach the document through json.loads, as from a file
    text = oracle_document_json(obj)
    assert document_to_json(parse_plan_document(text)) == text


def test_large_document_json_is_json_dumps():
    # far more encoder chunks than one write batch holds
    obj = json.loads(GOLDEN_TEXT)
    member = obj["clusters"][0]["members"][0]
    obj["unassigned"] = [
        dict(member, id=f"u{i}", assigned_year=None, cost_used=None) for i in range(2_000)
    ]
    text = oracle_document_json(obj)
    assert document_to_json(parse_plan_document(text)) == text


def _golden_with(path, value):
    obj = json.loads(GOLDEN_TEXT)
    *parent_path, key = path
    parent = obj
    for step in parent_path:
        parent = parent[step]
    parent[key] = value
    return json.dumps(obj)


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
# money() takes each of these as 3.00, which re-emits as other bytes
NON_CANONICAL_MONEY = ["3", "3.0", " 3.00", "3.000", "+3.00"]


class TestMalformedPlanDocument:
    @pytest.mark.parametrize("path", INTEGER_FIELDS, ids=lambda p: ".".join(map(str, p)))
    @pytest.mark.parametrize("value", [2018.7, 2018.0, True, "2018"], ids=repr)
    def test_integer_fields_must_be_integers(self, path, value):
        text = _golden_with(path, value)
        with pytest.raises(PavePlanError, match=f"field {path[-1]!r} must be an integer"):
            parse_plan_document(text)

    @pytest.mark.parametrize("value", [2018.7, 2018.0, True, "2018"], ids=repr)
    def test_diagnostic_year_must_be_an_integer(self, value):
        text = _golden_with(("diagnostics",), [dict(DIAGNOSTIC, year=value)])
        with pytest.raises(PavePlanError, match="field 'year' must be an integer or null"):
            parse_plan_document(text)

    def test_diagnostic_year_may_be_null(self):
        text = _golden_with(("diagnostics",), [dict(DIAGNOSTIC, year=None), DIAGNOSTIC])
        years = [d.year for d in parse_plan_document(text).diagnostics]
        assert years == [None, 2018]

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (MEMBER + ("coords",), [True, 0.0], "'coords' must hold numbers"),
            (MEMBER + ("coords",), ["1.5", 0.0], "'coords' must hold numbers"),
            (PER_YEAR + ("utilization",), True, "'utilization' must be a number"),
            (PER_YEAR + ("mean_pairwise_distance",), "1.0", "'mean_pairwise_distance' must be"),
            (OVERALL + ("weighted_mean_dispersion",), False, "'weighted_mean_dispersion' must be"),
            (("clusters", 0, "budget"), True, "'budget' must be a string"),
            (MEMBER + ("cost_used",), 1.0, "'cost_used' must be a string or null"),
            (OVERALL + ("total_cost",), "1.005", "'total_cost': money must have"),
            *[
                (path, value, f"'{path[-1]}': money '.*' is not written as '3.00'")
                for path in MONEY_FIELDS
                for value in NON_CANONICAL_MONEY
            ],
        ],
    )
    def test_number_fields_refuse_other_types(self, path, value, message):
        with pytest.raises(PavePlanError, match=message):
            parse_plan_document(_golden_with(path, value))

    def test_integer_coords_are_accepted(self):
        text = _golden_with(MEMBER + ("coords",), [101, 0])
        member = parse_plan_document(text).clusters[0].members[0]
        assert member.coords == (101.0, 0.0)

    @pytest.mark.parametrize(
        "text", ["[]", "null", "7", '"plan"', '{"format_version": "1"}', "[" * 100_000]
    )
    def test_named_error(self, text):
        with pytest.raises(PavePlanError):
            parse_plan_document(text)

    def test_non_positive_cluster_budget(self):
        obj = json.loads(GOLDEN_TEXT)
        obj["clusters"][0]["budget"] = "0.00"
        with pytest.raises(PavePlanError, match="not positive"):
            parse_plan_document(json.dumps(obj))

    @given(st.data())
    def test_mutations_parse_or_raise_named_error(self, data):
        # drop keys, swap value types and wrap values in arrays, anywhere in
        # a valid document: the result parses or is refused by name
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
            document = parse_plan_document(json.dumps(obj))
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
