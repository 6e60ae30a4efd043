"""Shared builders for the test suite."""

import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

from hypothesis import strategies as st

from paveplan.metrics import compute_metrics
from paveplan.model import BudgetEntry, BudgetSchedule, Segment
from paveplan.synth import synthesize_dataset

SRC = Path(__file__).resolve().parents[1] / "src"


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


@st.composite
def far_unit_points(draw):
    """2 to 60 points 1e15 to 1e17 from the origin on every axis, a whole
    number of units apart: past 2**53 a unit rounds, and near-equal
    distances share most of their digits."""
    dimension = draw(st.integers(1, 3))
    offset = draw(st.integers(10**15, 10**17)) * draw(st.sampled_from((1, -1)))
    coordinate = st.integers(0, 6).map(lambda k: float(offset + k))
    return draw(st.lists(st.tuples(*[coordinate] * dimension), min_size=2, max_size=60))


@st.composite
def ulp_apart_points(draw):
    """The origin and 1 to 59 points on the axes at ``d`` or one ulp past
    ``d`` from it: pairs of distances that differ by one ulp, or tie."""
    dimension = draw(st.integers(1, 3))
    d = draw(st.floats(5e-324, 1e300))
    radii = (d, math.nextafter(d, math.inf))
    points = [(0.0,) * dimension]
    for _ in range(draw(st.integers(1, 59))):
        point = [0.0] * dimension
        point[draw(st.integers(0, dimension - 1))] = draw(st.sampled_from(radii)) * draw(
            st.sampled_from((1.0, -1.0))
        )
        points.append(tuple(point))
    return draw(st.permutations(points))


NEAR_TIE_POINTS = far_unit_points() | ulp_apart_points()

# duplicates, signed zeros, the least subnormal, and points 1.8e308 apart,
# whose distance overflows to inf
KERNEL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 9e307, -9e307]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def kernel_point_sets(draw, max_size):
    """1 to ``max_size`` points of one dimension, 1 to 3, over ``KERNEL_FLOATS``."""
    dimension = draw(st.integers(1, 3))
    point = st.tuples(*[KERNEL_FLOATS] * dimension)
    return draw(st.lists(point, min_size=1, max_size=max_size))


# whole multiples of the least subnormal: every distance rounds to a whole unit
SUBNORMAL_SPREADS = st.lists(
    st.tuples(*[st.integers(-2**20, 2**20).map(lambda k: k * 5e-324)] * 2), min_size=1, max_size=60
)


@st.composite
def small_datasets(draw):
    """A small dataset and its schedule: a ``synthesize_dataset`` draw
    (flat or compounded costs, with or without tolerances), or points on a
    grid at two costs, whose distances and costs tie so often that ties by
    id shape the plan."""
    years = tuple(range(2018, 2018 + draw(st.integers(1, 4))))
    if draw(st.booleans()):
        blobs = draw(st.integers(1, 3))
        return synthesize_dataset(
            draw(st.integers(max(blobs, len(years)), 40)), blobs, years,
            draw(st.integers(0, 2**16)), growth_rate=draw(st.sampled_from([0.0, 0.05])),
            tolerance_fraction=draw(st.sampled_from([0.0, 0.05, 0.5])),
        )
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    segments = [
        seg(f"g{i}-{j}", (i, j), cost=draw(st.sampled_from(["1.00", "2.50"])),
            year=years[(i + j) % len(years)], years=years)
        for i in range(width) for j in range(height)
    ]
    entries = []
    for year in years:
        cents = draw(st.integers(100, 250 * len(segments)))
        low, high = draw(st.integers(0, cents - 1)), draw(st.integers(0, cents))
        money = [Decimal(k) / 100 for k in (cents, low, high)]
        entries.append(BudgetEntry(year, *money))
    return segments, BudgetSchedule(tuple(entries))


def scaled(segments, schedule, factor):
    """``segments`` and ``schedule`` with every cost, budget and tolerance
    multiplied by ``factor``, exactly, as ``Decimal`` multiplies cents."""
    segments = [
        Segment(
            s.id, s.coords, {y: c * factor for y, c in s.cost_by_year.items()}, s.scheduled_year
        )
        for s in segments
    ]
    entries = tuple(
        BudgetEntry(e.year, e.budget * factor, e.low_tolerance * factor, e.high_tolerance * factor)
        for e in schedule.entries
    )
    return segments, BudgetSchedule(entries, schedule.conservation_tolerance * factor)


def renamed(segments, names):
    """``segments`` with each id replaced by ``names[id]``."""
    return [Segment(names[s.id], s.coords, s.cost_by_year, s.scheduled_year) for s in segments]


def plan_outline(plan, rename=lambda sid: sid):
    """What ``plan`` decides, every id passed through ``rename``: each
    cluster's year, center and members in order, the unassigned ids, and
    each diagnostic's code, year and ids. Money and messages are left out."""
    ids = lambda sids: tuple(map(rename, sids))
    return (
        [(c.year, c.center_id and rename(c.center_id), ids(c.member_ids)) for c in plan.clusters],
        ids(plan.unassigned_ids),
        [(d.code, d.year, ids(d.segment_ids)) for d in plan.diagnostics],
    )


def distance_figures(plan, schedule, segments):
    """Each year's two dispersion figures and the weighted mean, in ``float.hex``."""
    figures = compute_metrics(plan, schedule, segments)
    return [
        (y.mean_member_distance_to_center.hex(), y.mean_pairwise_distance.hex())
        for y in figures.per_year
    ], figures.overall.weighted_mean_dispersion.hex()


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


def run_paveplan(args, *, cwd, env=None):
    """Run ``paveplan *args`` in a subprocess, in ``cwd``, with the
    environment ``env`` adds to this one; output is text. The command is
    the console script that ``PAVEPLAN_CONSOLE_SCRIPT`` names, when set (CI
    sets it after ``pip install .``), or else ``python -m paveplan.cli`` on
    this interpreter with this checkout's ``src`` first on the path."""
    script = os.environ.get("PAVEPLAN_CONSOLE_SCRIPT")
    environ = {**os.environ, **(env or {})}
    if script:
        command = [script]
    else:
        command = [sys.executable, "-m", "paveplan.cli"]
        environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    return subprocess.run(
        [*command, *map(str, args)], cwd=cwd, env=environ, capture_output=True,
        text=True, encoding="utf-8", errors="replace",
    )
