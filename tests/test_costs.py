from decimal import Decimal

import pytest

from paveplan.costs import flat_cost_table
from paveplan.io_formats import emit_cost_matrix_csv, load_cost_matrix, load_segments
from paveplan.radial import schedule_aware_plan
from paveplan.synth import compounded_costs

from helpers import schedule, seg


class TestCompoundedCosts:
    def test_zero_growth_is_flat(self):
        costs = compounded_costs("a", Decimal("100.00"), 2019, (2018, 2019, 2020), 0.0)
        assert costs == (Decimal("100.00"),) * 3

    def test_one_year_later_compounds(self):
        costs = compounded_costs("a", Decimal("100.00"), 2018, (2018, 2019), 0.10)
        assert costs[1] == Decimal("110.00")

    def test_one_year_earlier_discounts_half_up(self):
        costs = compounded_costs("a", Decimal("100.00"), 2019, (2018, 2019), 0.10)
        assert costs[0] == Decimal("90.91")  # 100 / 1.1

    def test_negative_growth_rounds_half_up_both_ways(self):
        # 100 * 0.98 ** -1 = 102.0408..., 100 * 0.98 ** 2 = 96.04 exactly,
        # 10.25 * 0.98 = 10.045 rounds up to 10.05
        costs = compounded_costs("a", Decimal("100.00"), 2019, (2018, 2019, 2020, 2021), -0.02)
        assert costs == tuple(map(Decimal, ("102.04", "100.00", "98.00", "96.04")))
        costs = compounded_costs("a", Decimal("10.25"), 2018, (2018, 2019), -0.02)
        assert costs == (Decimal("10.25"), Decimal("10.05"))

    def test_gapped_years_compound_per_calendar_year(self):
        # 2018 to 2020 is two steps of 1.1 whether or not 2019 is a plan year
        costs = compounded_costs("a", Decimal("100.00"), 2018, (2018, 2020), 0.10)
        assert costs == (Decimal("100.00"), Decimal("121.00"))
        costs = compounded_costs("a", Decimal("100.00"), 2020, (2017, 2020, 2021), 0.10)
        assert costs == tuple(map(Decimal, ("75.13", "100.00", "110.00")))  # 100 / 1.331
        assert compounded_costs("a", Decimal("100.00"), 2018, (2020,), 0.10) == (
            Decimal("121.00"),
        )

    def test_years_too_far_apart_are_over_the_money_limit(self):
        with pytest.raises(ValueError, match="year 100000000 is Infinity, not below 1E\\+18"):
            compounded_costs("a", Decimal("1.00"), 0, (0, 10**8), 0.1)

    def test_growth_rate_floor(self):
        with pytest.raises(ValueError, match="greater than -1"):
            compounded_costs("a", Decimal("1.00"), 2018, (2018,), -1.0)

    def test_cost_at_or_over_the_money_limit_is_an_error(self):
        with pytest.raises(
            ValueError, match="segment a: synthesized cost for year 2030 is 1.000E\\+18, not below 1E\\+18"
        ):
            compounded_costs("a", Decimal("1000000.00"), 2018, tuple(range(2018, 2031)), 9.0)

    def test_rounded_to_zero_is_an_error(self):
        with pytest.raises(ValueError, match="segment a: .* 2018 rounds to 0.00"):
            compounded_costs("a", Decimal("0.01"), 2019, (2018, 2019), 1.6)


def test_flat_and_matrix_costs_give_the_same_plan():
    years = (2018, 2019)
    base = [
        seg("a", (0, 0), cost="2.00", year=2018),
        seg("b", (50, 0), cost="2.00", year=2019),
    ]
    flat = flat_cost_table(base, years)
    via_matrix = load_cost_matrix(emit_cost_matrix_csv(flat, years), base)
    assert via_matrix == flat
    sched = schedule([2, 2])
    assert schedule_aware_plan(flat, sched, 0) == schedule_aware_plan(via_matrix, sched, 0)


def test_flat_table_shares_one_cost_object_per_segment():
    # 30 years of one validated cost: one Decimal, not 30 copies
    segments = load_segments(
        "id,x,y,scheduled_year,cost\n"
        "a,0,0,2018,10.00\n"
        "b,1,0,2030,4.5\n"
        "c,2,0,2047,7\n"
    )
    years = tuple(range(2018, 2048))
    for loaded, flat in zip(segments, flat_cost_table(segments, years)):
        assert tuple(flat.cost_by_year) == years
        assert len({id(cost) for cost in flat.cost_by_year.values()}) == 1
        assert flat.base_cost() == loaded.base_cost()


def test_flat_rows_share_one_year_index():
    segments = [
        seg("a", (0, 0), cost="10.00", year=2018),
        seg("b", (1, 0), cost="4.50", year=2030),
        seg("c", (2, 0), cost="7.00", year=2051),
    ]
    years = tuple(range(2047, 2017, -1))
    a, b, c = flat_cost_table(segments, years)
    assert a.cost_by_year._index is b.cost_by_year._index
    assert tuple(b.cost_by_year) == years[::-1]
    # scheduled outside the plan years: also priced in its own year
    assert c.cost_by_year._index is not a.cost_by_year._index
    assert tuple(c.cost_by_year) == (*years[::-1], 2051)
    assert c.cost_at(2051) == c.cost_at(2018) == Decimal("7.00")
