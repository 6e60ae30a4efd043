import math
import re
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from paveplan.model import (
    BudgetEntry,
    BudgetSchedule,
    Cluster,
    MissingCostError,
    Plan,
    Segment,
    UnknownSegmentError,
    cluster_cost,
    money,
    validate_dataset,
)

from helpers import line_segments, schedule, seg
from oracles import oracle_cost_table, oracle_money


class SubDecimal(Decimal):
    """A ``Decimal`` subclass; money() must hand back a plain ``Decimal``."""


class TestMoney:
    def test_accepts_common_forms(self):
        assert money("3.50") == Decimal("3.50")
        assert money(3) == Decimal("3.00")
        assert money(0.1) == Decimal("0.10")
        assert money(Decimal("7")) == Decimal("7.00")

    def test_rejects_sub_cent_precision(self):
        with pytest.raises(ValueError):
            money("10.005")
        with pytest.raises(ValueError):
            money(Decimal("1.234"))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            money("not money")
        with pytest.raises(ValueError):
            money("nan")

    @given(
        st.one_of(
            st.decimals(allow_nan=True, allow_infinity=True),
            st.decimals(places=2, allow_nan=False, allow_infinity=False),
            st.sampled_from(
                [
                    Decimal("-0.00"),
                    Decimal("0E-2"),
                    Decimal("NaN"),
                    Decimal("-sNaN"),
                    Decimal("sNaN"),
                    Decimal("Infinity"),
                    Decimal("-Infinity"),
                    Decimal("9" * 29 + ".00"),
                    Decimal("9" * 26 + ".00"),
                    Decimal("1E+2"),
                    Decimal("1.0"),
                    SubDecimal("2.50"),
                    SubDecimal("2.5"),
                ]
            ),
            st.integers(),
            st.floats(),
            st.text(max_size=12),
            st.decimals(places=2, allow_nan=False, allow_infinity=False).map(str),
        )
    )
    def test_matches_oracle_and_keeps_canonical_values(self, value):
        try:
            expected = oracle_money(value)
        except Exception as exc:
            with pytest.raises(type(exc)):
                money(value)
            return
        got = money(value)
        assert type(got) is Decimal
        assert got == expected and str(got) == str(expected)
        if type(value) is Decimal and str(value) == str(expected):
            assert got is value


class TestSegment:
    def test_normalizes_fields(self):
        s = Segment(id="a", coords=[1, 2], cost_by_year={2018: "5.00"}, scheduled_year=2018)
        assert s.coords == (1.0, 2.0)
        assert s.cost_by_year[2018] == Decimal("5.00")
        assert s.base_cost() == Decimal("5.00")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "inf", "nan"])
    def test_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(ValueError, match="segment road-7: coordinates must be finite"):
            Segment(id="road-7", coords=(0.0, bad), cost_by_year={2018: "5.00"},
                    scheduled_year=2018)

    def test_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError):
            seg("a", (0, 0), cost="0.00")
        with pytest.raises(ValueError):
            seg("a", (0, 0), cost="-1.00")

    @given(
        st.lists(
            st.sampled_from(
                [Decimal("5.00"), Decimal("5"), Decimal("0.00"), Decimal("-1.00"),
                 Decimal("1.005"), Decimal("NaN"), SubDecimal("2.50"), "3.10", 7, 0.5, None]
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_cost_table_checks_every_year(self, values):
        # one object may fill many years (sampled_from repeats it); the table
        # still equals a year-by-year check, and fails at the same year
        table = {2018 + i: value for i, value in enumerate(values)}
        try:
            expected = oracle_cost_table(table)
        except (ValueError, TypeError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                Segment(id="a", coords=(0,), cost_by_year=table, scheduled_year=2018)
            return
        segment = Segment(id="a", coords=(0,), cost_by_year=table, scheduled_year=2018)
        assert {y: str(c) for y, c in segment.cost_by_year.items()} == {
            y: str(c) for y, c in expected.items()
        }
        assert all(type(c) is Decimal for c in segment.cost_by_year.values())

    def test_missing_year_raises(self):
        s = seg("a", (0, 0), year=2018)
        with pytest.raises(MissingCostError):
            s.cost_at(2019)

    def test_immutable(self):
        s = seg("a", (0, 0))
        with pytest.raises(Exception):
            s.id = "b"
        with pytest.raises(TypeError):
            s.cost_by_year[2019] = Decimal("1.00")


class TestBudgetSchedule:
    def test_years_must_increase(self):
        with pytest.raises(ValueError):
            BudgetSchedule((BudgetEntry(2019, "1.00"), BudgetEntry(2018, "1.00")))

    def test_budget_positive(self):
        with pytest.raises(ValueError):
            BudgetEntry(2018, "0.00")

    def test_low_tolerance_below_budget(self):
        with pytest.raises(ValueError):
            BudgetEntry(2018, "2.00", low_tolerance="2.00")
        entry = BudgetEntry(2018, "2.00", low_tolerance="1.99", high_tolerance="5.00")
        assert entry.low_tolerance == Decimal("1.99")

    def test_total(self):
        sched = schedule([3, 2])
        assert sched.total_budget() == Decimal("5.00")
        assert sched.years == (2018, 2019)


class TestCluster:
    def test_center_must_be_member(self):
        with pytest.raises(ValueError):
            Cluster(2018, "x", ("a", "b"), "2.00", "2.00")

    def test_no_duplicate_members(self):
        with pytest.raises(ValueError):
            Cluster(2018, "a", ("a", "a"), "2.00", "2.00")

    def test_empty_cluster_has_no_center(self):
        c = Cluster(2018, None, (), "0.00", "2.00")
        assert c.is_empty()
        with pytest.raises(ValueError):
            Cluster(2018, "a", (), "0.00", "2.00")


class TestPlan:
    def test_rejects_overlapping_clusters(self):
        a = Cluster(2018, "a", ("a",), "1.00", "1.00")
        b = Cluster(2019, "a", ("a",), "1.00", "1.00")
        with pytest.raises(ValueError):
            Plan((a, b))

    def test_rejects_assigned_and_unassigned(self):
        a = Cluster(2018, "a", ("a",), "1.00", "1.00")
        with pytest.raises(ValueError):
            Plan((a,), unassigned_ids=("a",))

    def test_assigned_years(self):
        a = Cluster(2018, "a", ("a", "b"), "2.00", "2.00")
        plan = Plan((a,), unassigned_ids=("c",))
        assert plan.assigned_years() == {"a": 2018, "b": 2018}
        assert plan.all_ids() == {"a", "b", "c"}


class TestValidateDataset:
    def test_matched_totals_pass(self):
        # 5 unit-cost segments against budgets {3, 2}: sums agree exactly.
        segments = line_segments(range(5), years=[2018, 2019])
        report = validate_dataset(segments, schedule([3, 2]))
        assert report.ok

    def test_conservation_mismatch_of_one(self):
        segments = line_segments(range(5), years=[2018, 2019])
        report = validate_dataset(segments, schedule([3, 3]))
        assert not report.ok
        issue = [i for i in report.issues if i.code == "conservation_mismatch"][0]
        assert abs(issue.amount) == Decimal("1.00")

    def test_published_totals_conserve(self):
        # Five year-rows whose budget and cost columns both sum to
        # 21,311,945.11; the global check must pass at zero tolerance.
        budgets = ["1047131.09", "7481612.12", "6551389.79", "4856840.61", "1374971.50"]
        costs = ["1080947.98", "7742091.49", "6751923.97", "4895829.16", "841152.51"]
        years = list(range(2018, 2023))
        segments = [
            seg(f"city{i}", (float(i), 0.0), cost=costs[i], year=2018 + i, years=years)
            for i in range(5)
        ]
        report = validate_dataset(segments, schedule(budgets))
        assert report.ok

    def test_duplicate_ids_flagged(self):
        segments = [seg("a", (0, 0)), seg("a", (1, 0))]
        report = validate_dataset(segments, schedule([2]))
        assert "duplicate_id" in report.codes()

    def test_missing_cost_year_flagged(self):
        segments = [seg("a", (0, 0), year=2018)]
        report = validate_dataset(segments, schedule([1, 1]))  # 2018, 2019
        assert "missing_cost_year" in report.codes()

    def test_bad_scheduled_year_flagged(self):
        segments = [seg("a", (0, 0), year=2030, years=[2018])]
        report = validate_dataset(segments, schedule([1]))
        assert "bad_scheduled_year" in report.codes()

    def test_dimension_mismatch_flagged(self):
        segments = [seg("a", (0, 0)), seg("b", (1, 2, 3))]
        report = validate_dataset(segments, schedule([2]))
        assert "dimension_mismatch" in report.codes()

    def test_empty_dataset(self):
        report = validate_dataset([], schedule([1]))
        assert report.codes() == ("empty_dataset",)

    def test_pure(self):
        segments = line_segments(range(3))
        sched = schedule([2])
        assert validate_dataset(segments, sched) == validate_dataset(segments, sched)


class TestClusterCost:
    def test_singleton(self):
        s = seg("a", (0, 0), cost="7.50")
        c = Cluster(2018, "a", ("a",), "7.50", "10.00")
        assert cluster_cost(c, [s]) == Decimal("7.50")

    def test_sum(self):
        segments = [
            seg("a", (0, 0), cost="1.00"),
            seg("b", (1, 0), cost="2.00"),
            seg("c", (2, 0), cost="3.00"),
        ]
        c = Cluster(2018, "a", ("a", "b", "c"), "6.00", "10.00")
        assert cluster_cost(c, segments) == Decimal("6.00")

    def test_uses_cluster_year_not_scheduled_year(self):
        s = Segment(
            id="a",
            coords=(0.0, 0.0),
            cost_by_year={2018: Decimal("10.00"), 2019: Decimal("12.00")},
            scheduled_year=2018,
        )
        c = Cluster(2019, "a", ("a",), "12.00", "20.00")
        assert cluster_cost(c, [s]) == Decimal("12.00")

    def test_unknown_member(self):
        c = Cluster(2018, "a", ("a",), "1.00", "1.00")
        with pytest.raises(UnknownSegmentError):
            cluster_cost(c, [])

    def test_missing_year(self):
        s = seg("a", (0, 0), year=2018)
        c = Cluster(2019, "a", ("a",), "1.00", "1.00")
        with pytest.raises(MissingCostError):
            cluster_cost(c, [s])
