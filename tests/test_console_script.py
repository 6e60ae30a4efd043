"""Malformed segment cells through the command line, one process a command.

Each command runs as its own process (``helpers.run_paveplan``): the
installed console script when ``PAVEPLAN_CONSOLE_SCRIPT`` names it, as CI
does after ``pip install .``, else ``python -m paveplan.cli``.
"""

import os

import pytest

from helpers import run_paveplan

GOOD = "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\n"

# each malformed row after GOOD's, with the first line every command prints
# for it: the bad cell's row and column (a short row has no column to name)
CASES = {
    "nan": ("b,nan,0,2018,1.00", "error: row 3, column 'x': "),
    "inf": ("b,0,inf,2018,1.00", "error: row 3, column 'y': "),
    "year": ("b,0,0,٢٠١٩,1.00", "error: row 3, column 'scheduled_year': "),
    "cost": ("b,0,0,2018,1.234", "error: row 3, column 'cost': "),
    "short": ("b,0,0,2018", "error: row 3: expected 5 fields, got 4"),
}

# cluster, and the read-side commands against a plan built from the good rows
COMMANDS = [
    ["cluster", "--budgets", "budgets.csv", "--algo", "schedule",
     "--out", "out.json", "--svg", "out.svg"],
    ["metrics", "--plan", "plan.json"],
    ["compare", "--before", "plan.json", "--after", "plan.json"],
    ["render", "--plan", "plan.json", "--out", "out.svg"],
]


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    """A directory holding GOOD as good.csv, its budgets and its plan."""
    directory = tmp_path_factory.mktemp("console")
    (directory / "budgets.csv").write_text("year,budget\n2018,2.00\n", encoding="utf-8")
    (directory / "good.csv").write_text(GOOD, encoding="utf-8")
    run = run_paveplan(
        ["cluster", "--segments", "good.csv", "--budgets", "budgets.csv",
         "--algo", "schedule", "--out", "plan.json"],
        cwd=directory,
    )
    assert run.returncode == 0, run.stderr
    return directory


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_segment_cells_exit_2_and_write_nothing(planned, case):
    row, expected = CASES[case]
    name = f"{case}.csv"
    (planned / name).write_text(f"{GOOD}{row}\n", encoding="utf-8")
    before = sorted(os.listdir(planned))
    for command in COMMANDS:
        run = run_paveplan([*command, "--segments", name], cwd=planned)
        where = (name, command[0])
        assert run.returncode == 2, (where, run.returncode, run.stderr)
        assert run.stderr.startswith(expected), (where, run.stderr)
        assert run.stderr.count("\n") == 1, (where, run.stderr)
        assert sorted(os.listdir(planned)) == before, where
