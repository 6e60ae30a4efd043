"""Shared builders for the test suite."""

import json
import re
from decimal import Decimal

from hypothesis import strategies as st

from paveplan.model import BudgetEntry, BudgetSchedule, Segment


def seg(sid, coords, cost="1.00", year=2018, years=None):
    """Segment with a flat cost table over ``years`` (plus its own year)."""
    table_years = set(years) if years else set()
    table_years.add(year)
    amount = Decimal(str(cost))
    return Segment(
        id=sid,
        coords=tuple(float(c) for c in coords),
        cost_by_year={y: amount for y in table_years},
        scheduled_year=year,
    )


def line_segments(xs, cost="1.00", year=2018, years=None, prefix="s"):
    """Unit-spaced points on the x-axis; ids carry the x value."""
    return [seg(f"{prefix}{x}", (x, 0.0), cost=cost, year=year, years=years) for x in xs]


def schedule(budgets, start_year=2018, low="0.00", high="0.00", tolerance="0.00"):
    entries = tuple(
        BudgetEntry(
            year=start_year + i,
            budget=Decimal(str(b)),
            low_tolerance=Decimal(str(low)),
            high_tolerance=Decimal(str(high)),
        )
        for i, b in enumerate(budgets)
    )
    return BudgetSchedule(entries, Decimal(str(tolerance)))


def random_segments(rng, n, *, years=(2018,), max_coord=10000.0, max_cents=50000):
    """n random segments with flat cost tables over ``years``."""
    out = []
    for i in range(n):
        year = years[rng.randrange(len(years))]
        cost = Decimal(rng.randint(1, max_cents)) / 100
        out.append(
            Segment(
                id=f"r{i:04d}",
                coords=(rng.uniform(0.0, max_coord), rng.uniform(0.0, max_coord)),
                cost_by_year={y: cost for y in years},
                scheduled_year=year,
            )
        )
    return out


def random_schedule(rng, years, *, max_budget_cents=2_000_00, with_tolerances=False):
    entries = []
    for year in years:
        budget = Decimal(rng.randint(100, max_budget_cents)) / 100
        if with_tolerances:
            low = min(Decimal(rng.randint(0, int(budget * 100) - 1)) / 100, budget - Decimal("0.01"))
            high = Decimal(rng.randint(0, max_budget_cents // 2)) / 100
        else:
            low = high = Decimal("0.00")
        entries.append(
            BudgetEntry(year=year, budget=budget, low_tolerance=low, high_tolerance=high)
        )
    return BudgetSchedule(tuple(entries))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)

CSV_CELLS = st.sampled_from(
    ["0", "1", "1.00", "2.50", "2018", "2019", "Y2018", "-1", "0.001", "1e400",
     "nan", "1_0", "", " ", "id", '"', '"a,b"', "a\rb"]
) | st.text(max_size=6)


@st.composite
def csv_texts(draw, header, row):
    """Now and then arbitrary text; mostly ``header`` followed by rows made
    from the valid template ``row`` (``{i}`` is the row index, ``{year}``
    2018 + i) with a few cells swapped for plausible or arbitrary ones and,
    now and then, a cell too many or too few."""
    if draw(st.sampled_from([False] * 3 + [True])):
        return draw(st.text())
    lines = [header]
    for i in range(draw(st.integers(1, 4))):
        cells = row.format(i=i, year=2018 + i).split(",")
        for k in range(len(cells)):
            if draw(st.sampled_from([False] * 9 + [True])):
                cells[k] = draw(CSV_CELLS)
        width = draw(st.sampled_from([len(cells)] * 8 + [len(cells) - 1, len(cells) + 1]))
        cells = (cells + [draw(CSV_CELLS)])[:width]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def document_text(obj):
    """The plan document object ``obj`` in the form paveplan writes, so a
    test that edits a document reaches the fault it targets, not a
    formatting difference at line 1."""
    return json.dumps(obj, indent=2) + "\n"


def money_respellings(amount):
    """``amount``, a money string, as a document may spell it and ``money()``
    reads it, but not as paveplan writes it; for "3.00": "3", "3.0",
    " 3.00", "3.000" and "+3.00"."""
    return [amount[:-3], amount[:-1], " " + amount, amount + "0", "+" + amount]


def _first_difference(text, reference):
    """The 1-based number of the first line where ``text`` differs from
    ``reference``, and both lines, each cut to 80 characters either way of
    their first differing character, as a refusal shows them."""
    lines, expected = text.split("\n"), reference.split("\n")
    n = next(i for i, (a, b) in enumerate(zip(lines, expected)) if a != b)
    column = next(
        (i for i, (a, b) in enumerate(zip(lines[n], expected[n])) if a != b),
        min(len(lines[n]), len(expected[n])),
    )
    cut = slice(max(0, column - 80), column + 80)
    return n + 1, expected[n][cut], lines[n][cut]


def refusal(text, reference):
    """The message that refuses the plan document ``text`` at the first line
    where it differs from ``reference``, the text paveplan writes for it."""
    line, expected, found = _first_difference(text, reference)
    return f"plan document line {line}: expected {expected!r}, found {found!r}"


def refused_at(text, reference):
    """A pattern for the refusal of ``text`` at the first line where it
    differs from ``reference``, showing that line as found, up to and past
    the difference; the expected text is whatever the writer writes there
    from the values it read."""
    line, expected, found = _first_difference(text, reference)
    same = next((i for i, (a, b) in enumerate(zip(found, expected)) if a != b), len(found))
    return (
        re.escape(f"plan document line {line}: expected ") + ".*"
        + re.escape(f", found {found[:same]!r}"[:-1]) + ".*'$"
    )
