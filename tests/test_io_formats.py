from decimal import Decimal
from pathlib import Path

import pytest

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
    plan_from_document,
    render_plan_svg,
)
from paveplan.metrics import compute_metrics
from paveplan.model import Cluster, DimensionMismatchError, Plan
from paveplan.radial import landmark_based_radial_clustering

from helpers import seg

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
