import copy
import inspect
import math
import pickle
import re
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from paveplan.geometry import DistanceOrdering, order_by_distance
from paveplan.io_formats import PlanDocument, emit_plan, input_digest, parse_plan_document
from paveplan.metrics import (
    OverallMetrics,
    PlanComparison,
    PlanMetrics,
    YearDispersionDelta,
    YearMetrics,
    compare_plans,
    compute_metrics,
    plan_from_schedule,
)
from paveplan.model import (
    ZERO,
    MONEY_LIMIT,
    TOTAL_LIMIT,
    BudgetEntry,
    BudgetSchedule,
    Cluster,
    CostRow,
    Diagnostic,
    MissingCostError,
    Plan,
    Segment,
    money,
    validate_dataset,
)
from paveplan.radial import schedule_aware_plan
from paveplan.refine import (
    ClusterBuildTrace,
    ToleranceBand,
    build_tolerance_band,
    radial_neighbor_clustering,
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

    def test_amounts_stay_below_ten_to_the_eighteenth(self):
        largest = "999999999999999999.99"
        assert str(money(largest)) == largest
        assert str(money("-" + largest)) == "-" + largest
        too_large = ("1000000000000000000.00", "-1E+18", 10**18, "9" * 26 + ".99")
        for value in too_large:
            with pytest.raises(ValueError, match=re.escape(repr(value))):
                money(value)

    def test_sums_of_largest_amounts_stay_exact(self):
        # 10**8 amounts just below the limit: every cent survives the
        # default 28-digit context, and a total passes TOTAL_LIMIT
        amount = money("999999999999999999.99")
        total = amount * 10**8
        assert total == Decimal("99999999999999999999000000.00")
        assert sum((amount, amount, amount), ZERO) == Decimal("2999999999999999999.97")
        assert money(total, TOTAL_LIMIT) is total
        assert TOTAL_LIMIT == MONEY_LIMIT * 10**8

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


class TestCostRow:
    TABLE = {2019: Decimal("2.00"), 2018: Decimal("1.00"), 2020: Decimal("3.00")}

    def test_segment_equality_ignores_the_table_type(self):
        years = (2018, 2019, 2020)
        row = CostRow({2018: 0, 2019: 1, 2020: 2}, tuple(self.TABLE[y] for y in years))
        from_row = Segment("a", (0.0,), row, 2018)
        from_dict = Segment("a", (0.0,), self.TABLE, 2018)
        assert from_row == from_dict
        assert from_dict == from_row
        assert from_row.cost_by_year == self.TABLE
        assert self.TABLE == from_row.cost_by_year
        other = Segment("a", (0.0,), {**self.TABLE, 2020: Decimal("3.01")}, 2018)
        assert from_row != other and other != from_row

    def test_segments_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Segment("a", (0.0,), self.TABLE, 2018))
        with pytest.raises(TypeError):
            hash(Segment("a", (0.0,), self.TABLE, 2018).cost_by_year)

    def test_read_only(self):
        row = Segment("a", (0.0,), self.TABLE, 2018).cost_by_year
        with pytest.raises(TypeError):
            row[2021] = Decimal("4.00")
        with pytest.raises(TypeError):
            del row[2018]
        with pytest.raises(AttributeError):
            row.extra = 1

    def test_iterates_years_ascending(self):
        row = Segment("a", (0.0,), self.TABLE, 2018).cost_by_year
        assert type(row) is CostRow
        assert list(row) == [2018, 2019, 2020]
        assert list(row.items()) == sorted(self.TABLE.items())
        assert len(row) == 3
        assert 2019 in row and 2021 not in row and "2019" not in row
        assert row.get(2021) is None

    def test_a_row_is_kept_without_copying(self):
        row = CostRow(dict.fromkeys((2018, 2019), 0), (Decimal("5.00"),))
        assert Segment("a", (0.0,), row, 2018).cost_by_year is row

    def test_a_row_is_checked_like_a_table(self):
        flat = CostRow({2018: 0, 2019: 0}, (Decimal("5"),))
        row = Segment("a", (0.0,), flat, 2018).cost_by_year
        assert [str(cost) for cost in row.values()] == ["5.00", "5.00"]
        zero_in_2019 = CostRow({2018: 0, 2019: 1}, (Decimal("1.00"), ZERO))
        with pytest.raises(ValueError, match="segment a: cost for 2019 must be positive"):
            Segment("a", (0.0,), zero_in_2019, 2018)
        with pytest.raises(ValueError, match="1E\\+18"):
            Segment("a", (0.0,), CostRow({2018: 0}, (MONEY_LIMIT,)), 2018)


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

    def test_the_first_repeated_member_is_named(self):
        # b repeats before a does, so b is named
        with pytest.raises(ValueError, match="^cluster 2018: duplicate member id 'b'$"):
            Cluster(2018, "a", ("a", "b", "c", "b", "a"), "5.00", "5.00")

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
        assert validate_dataset(segments, schedule([3, 2])) == ()

    def test_conservation_mismatch_of_one(self):
        segments = line_segments(range(5), years=[2018, 2019])
        issues = validate_dataset(segments, schedule([3, 3]))
        assert issues
        issue = [i for i in issues if i.code == "conservation_mismatch"][0]
        assert issue.message.endswith("by -1.00")

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
        assert validate_dataset(segments, schedule(budgets)) == ()

    def test_duplicate_ids_flagged(self):
        segments = [seg("a", (0, 0)), seg("a", (1, 0))]
        issues = validate_dataset(segments, schedule([2]))
        assert "duplicate_id" in [i.code for i in issues]

    def test_missing_cost_year_flagged(self):
        segments = [seg("a", (0, 0), year=2018)]
        issues = validate_dataset(segments, schedule([1, 1]))  # 2018, 2019
        assert "missing_cost_year" in [i.code for i in issues]

    @given(st.lists(
        st.sets(st.integers(2017, 2021), min_size=1), min_size=1, max_size=8
    ))
    def test_missing_cost_years_match_each_table(self, tables):
        # rows of one shared index are checked once; the findings must be
        # those of a year-by-year check of every segment's own table
        sched = schedule([1, 1, 1])  # 2018, 2019, 2020
        shared = CostRow(dict.fromkeys((2018, 2020), 0), (Decimal("1.00"),))
        segments = [
            Segment(
                f"s{i}", (0.0,), shared if i % 2 else dict.fromkeys(years, "1.00"), min(years)
            )
            for i, years in enumerate(tables)
        ]
        expected = [
            (f"s{i}", year)
            for i, years in enumerate(tables)
            for year in sched.years
            if year not in ({2018, 2020} if i % 2 else years)
        ]
        issues = validate_dataset(segments, sched)
        missing = [i for i in issues if i.code == "missing_cost_year"]
        assert [(i.message.split()[1], i.year) for i in missing] == expected

    def test_bad_scheduled_year_flagged(self):
        segments = [seg("a", (0, 0), year=2030, years=[2018])]
        issues = validate_dataset(segments, schedule([1]))
        assert "bad_scheduled_year" in [i.code for i in issues]

    def test_dimension_mismatch_flagged(self):
        segments = [seg("a", (0, 0)), seg("b", (1, 2, 3))]
        issues = validate_dataset(segments, schedule([2]))
        assert "dimension_mismatch" in [i.code for i in issues]

    @pytest.mark.parametrize(
        "coords, codes",
        [
            # D * n * n: 4e307 * 2 * 2 is finite, 4e307 * 3 * 3 is not
            ([(0.0, 0.0), (4e307, 0.0)], []),
            ([(0.0, 0.0), (4e307, 0.0), (0.0, 0.0)], ["distance_overflow"]),
            ([(9e307, 0.0), (-9e307, 0.0)], ["distance_overflow"]),  # D is inf
            # no corners across dimensions: only the mismatch is reported
            ([(9e307,), (-9e307, 0.0)], ["dimension_mismatch"]),
        ],
    )
    def test_distance_overflow_flagged(self, coords, codes):
        segments = [seg(f"s{k}", c) for k, c in enumerate(coords)]
        issues = validate_dataset(segments, schedule([len(coords)]))
        assert [i.code for i in issues] == codes

    def test_empty_dataset(self):
        issues = validate_dataset([], schedule([1]))
        assert [i.code for i in issues] == ["empty_dataset"]

    def test_pure(self):
        segments = line_segments(range(3))
        sched = schedule([2])
        assert validate_dataset(segments, sched) == validate_dataset(segments, sched)


def _records(shift):
    """One record of each type, built by the code that builds it; ``shift``
    moves a point and a budget, so records of two shifts differ."""
    segments = [seg("a", (shift, 0)), seg("b", (1, 0)), seg("c", (3, 0), cost="2.00")]
    sched = schedule([f"{2 + shift}.00"], low="0.50", high="1.00")
    entry = sched.entries[0]
    plan = schedule_aware_plan(segments, sched)
    metrics = compute_metrics(plan, sched, segments)
    text = emit_plan(plan, metrics, sched, segments, input_digest(str(shift)))
    comparison = compare_plans(plan_from_schedule(segments, sched), plan, sched, segments)
    _, trace = radial_neighbor_clustering(segments, segments[0], entry.budget)
    records = [
        segments[0], entry, sched, plan.clusters[0], Diagnostic("code", "message", 2018 + shift),
        plan, metrics.per_year[0], metrics.overall, metrics, comparison.per_year[0], comparison,
        parse_plan_document(text), order_by_distance(segments, segments[shift]), trace,
        build_tolerance_band(segments, segments[0], entry.budget, "0.50", "1.00"),
    ]
    return {type(record): record for record in records}


# hash(record) hashes its fields' tuple, so a record holding a segment (whose
# cost row is a mapping) or a mappingproxy has none
UNHASHABLE = {Segment, ClusterBuildTrace, ToleranceBand, PlanComparison}


def required(*names):
    return [(name, inspect.Parameter.empty) for name in names]


# each record's constructor: its fields in order, with their defaults
RECORDS = {
    Segment: required("id", "coords", "cost_by_year", "scheduled_year"),
    BudgetEntry: required("year", "budget") + [("low_tolerance", ZERO), ("high_tolerance", ZERO)],
    BudgetSchedule: required("entries") + [("conservation_tolerance", ZERO)],
    Cluster: required("year", "center_id", "member_ids", "realized_cost", "budget"),
    Diagnostic: required("code", "message") + [("year", None), ("segment_ids", ())],
    Plan: required("clusters") + [("unassigned_ids", ()), ("diagnostics", ())],
    YearMetrics: required(
        "year", "budget", "realized_cost", "utilization", "member_count",
        "mean_member_distance_to_center", "mean_pairwise_distance", "over_budget",
    ),
    OverallMetrics: required(
        "total_budget", "total_cost", "total_deviation", "weighted_mean_dispersion"
    ),
    PlanMetrics: required("per_year", "overall", "unassigned_count"),
    YearDispersionDelta: required("year", "center_delta", "pairwise_delta"),
    PlanComparison: required(
        "per_year", "overall_dispersion_delta", "segments_moved", "year_shift_histogram"
    ),
    PlanDocument: required("input_digest", "schedule", "plan", "members", "metrics"),
    DistanceOrdering: required("anchor_id", "ordered_ids"),
    ClusterBuildTrace: required("center_id", "admitted", "stop_reason"),
    ToleranceBand: required("low_cluster", "mid_cluster", "high_cluster", "inner", "band"),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_are_frozen_values(kind):
    params = inspect.signature(kind).parameters.values()
    assert [(p.name, p.default) for p in params] == RECORDS[kind]
    names = [name for name, _ in RECORDS[kind]]
    record, other = _records(0)[kind], _records(1)[kind]
    values = [getattr(record, name) for name in names]
    rebuilt = kind(*values)
    assert record == rebuilt and not record != rebuilt and record is not rebuilt
    assert record != other and not record == other
    # equal only to a record of the same type
    assert record != tuple(values)
    assert all(record != r for r in _records(0).values() if type(r) is not kind)
    assert repr(record) == f"{kind.__qualname__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)
    ) + ")"
    for name in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == values
    if kind in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(rebuilt) == hash(tuple(values))
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(2, 6)]
    for twin in copies:
        assert type(twin) is kind and twin == record
        assert [getattr(twin, name) for name in names] == values
