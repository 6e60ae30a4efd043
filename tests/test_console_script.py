"""The README quick start, checked against ``tests/oracles.py``, malformed
cells, and inputs at the money and float limits through the command line.

Each command runs as its own process (``helpers.run_paveplan``): the
installed console script when ``PAVEPLAN_CONSOLE_SCRIPT`` names it, as CI
does after ``pip install .``, else ``python -m paveplan.cli``. The CSVs
are read with ``csv`` and ``Decimal``, never with paveplan's loaders.
"""

import csv
import json
import math
import os
from decimal import Decimal
from types import SimpleNamespace

import pytest

from helpers import run_paveplan
from oracles import oracle_document_json, oracle_medoid, oracle_prefix_cluster, oracle_year_figures

DATASET = ["--segments", "segments.csv", "--budgets", "budgets.csv"]
# each plan document of the quick start, and the cluster options that write it
PLANS = {
    "plan.json": ["--algo", "schedule", "--svg", "plan.svg"],
    "landmark.json": ["--algo", "landmark"],
    "random.json": ["--algo", "random", "--seed", "3"],
    "landmark-skip.json": ["--algo", "landmark", "--skip-mode"],
    "schedule-skip.json": ["--algo", "schedule", "--skip-mode"],
}
DOCUMENTS = [*PLANS, "before.json"]
# the plans of the plain radial walk, and whether each passes over a miss
WALKS = {"landmark.json": False, "random.json": False, "landmark-skip.json": True}


@pytest.fixture(scope="module", params=["flat", "matrix"])
def quick_start(request, tmp_path_factory):
    """The README quick start's dataset, flat or with costs compounded 5% a
    year in a cost matrix, and every document written from it."""
    directory = tmp_path_factory.mktemp(request.param)
    matrix = ["--cost-matrix", "matrix.csv"] if request.param == "matrix" else []
    commands = [
        ["synth", "--n", "800", "--blobs", "5", "--years", "2018:2022", "--seed", "7",
         "--tolerance-fraction", "0.05", "--out-segments", "segments.csv",
         "--out-budgets", "budgets.csv",
         *(["--growth-rate", "0.05", "--out-matrix", "matrix.csv"] if matrix else [])],
        ["validate", *DATASET, *matrix],
        *(["cluster", *DATASET, *matrix, *options, "--out", path]
          for path, options in PLANS.items()),
        ["baseline", *DATASET, *matrix, "--out", "before.json"],
        ["compare", "--before", "before.json", "--after", "plan.json",
         "--segments", "segments.csv"],
    ]
    for command in commands:
        run = run_paveplan(command, cwd=directory)
        assert run.returncode == 0, (command, run.stderr)
    return directory


def _csv_rows(path):
    return {row["id"]: row for row in csv.DictReader(path.read_text(encoding="utf-8").splitlines())}


@pytest.mark.parametrize("path", DOCUMENTS)
def test_documents_are_the_stdlib_encoding_of_brute_force_figures(quick_start, path):
    # each year's figures are the brute-force sums over its members, and
    # metrics prints them again
    text = (quick_start / path).read_bytes().decode("utf-8")
    document = json.loads(text)
    assert text == oracle_document_json(document)
    run = run_paveplan(["metrics", "--plan", path, "--segments", "segments.csv"], cwd=quick_start)
    assert run.returncode == 0, run.stderr
    printed, stored = json.loads(run.stdout), document["metrics"]
    keys = ("mean_member_distance_to_center", "mean_pairwise_distance")
    years = zip(document["clusters"], stored["per_year"], printed["per_year"], strict=True)
    for cluster, old, new in years:
        ids = [member["id"] for member in cluster["members"]]
        center = ids.index(cluster["center_id"]) if ids else None
        figures = oracle_year_figures([member["coords"] for member in cluster["members"]], center)
        expected = list(map(float.hex, figures))
        assert [old[k].hex() for k in keys] == [new[k].hex() for k in keys] == expected, ids[:1]
    overall = [m["overall"]["weighted_mean_dispersion"].hex() for m in (stored, printed)]
    assert overall[0] == overall[1]
    deviation = printed["conservation"]["total_deviation"]
    assert deviation == printed["overall"]["total_deviation"]
    tolerance = Decimal(document["schedule"]["conservation_tolerance"])
    assert printed["conservation"]["within_tolerance"] is (abs(Decimal(deviation)) <= tolerance)


def test_baseline_centers_are_medoids(quick_start):
    # each total a math.dist sum in member order, the least (total, id) wins
    for cluster in json.loads((quick_start / "before.json").read_bytes())["clusters"]:
        members = [SimpleNamespace(**member) for member in cluster["members"]]
        medoid = oracle_medoid(members, dist=math.dist) if members else None
        assert cluster["center_id"] == medoid, cluster["year"]


@pytest.mark.parametrize("path", WALKS)
def test_walks_drain_the_pool_as_prefixes(quick_start, path):
    # year by year, each cluster is the prefix walk from its center over
    # what earlier years left, every point priced in the cluster's year
    rows = _csv_rows(quick_start / "segments.csv")
    matrix = (quick_start / "matrix.csv").exists() and _csv_rows(quick_start / "matrix.csv")
    price = lambda sid, year: Decimal(matrix[sid][f"Y{year}"] if matrix else rows[sid]["cost"])
    pool = {sid: SimpleNamespace(id=sid, coords=(float(row["x"]), float(row["y"])))
            for sid, row in rows.items()}
    for cluster in json.loads((quick_start / path).read_bytes())["clusters"]:
        year = cluster["year"]
        if cluster["center_id"] is None:
            assert not pool, year
            continue
        members = oracle_prefix_cluster(
            pool.values(), pool[cluster["center_id"]], Decimal(cluster["budget"]),
            cost=lambda point: price(point.id, year), dist=math.dist, skip=WALKS[path],
        )
        assert [member["id"] for member in cluster["members"]] == members, year
        for sid in members:
            del pool[sid]


def test_a_minified_plan_is_refused_at_line_1(quick_start, tmp_path):
    # a plan document reads back only as the bytes paveplan writes
    minified = json.dumps(json.loads((quick_start / "plan.json").read_bytes()))
    (tmp_path / "minified.json").write_text(minified, encoding="utf-8")
    render = ["render", "--plan", "minified.json", "--out", "minified.svg"]
    run = run_paveplan([*render, "--segments", quick_start / "segments.csv"], cwd=tmp_path)
    assert run.returncode == 2, (run.returncode, run.stderr)
    assert run.stderr.startswith("error: plan document line 1: "), run.stderr
    assert run.stderr.count("\n") == 1, run.stderr
    assert sorted(os.listdir(tmp_path)) == ["minified.json"]


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


def test_a_tolerance_fraction_past_one_gives_the_cap(tmp_path):
    # every year gets e_l = e_h = budget - 0.01, even where fraction x
    # budget does not fit the decimal context
    run = run_paveplan(
        ["synth", "--n", "5", "--blobs", "1", "--years", "2018:2020", "--seed", "1",
         "--tolerance-fraction", "1e300", "--out-segments", "segments.csv",
         "--out-budgets", "budgets.csv"],
        cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr
    with open(tmp_path / "budgets.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["year"] for row in rows] == ["2018", "2019", "2020"]
    for row in rows:
        cap = Decimal(row["budget"]) - Decimal("0.01")
        assert Decimal(row["e_l"]) == Decimal(row["e_h"]) == cap, row


def _refused_dataset(directory, segments, budgets):
    """Write the dataset and return the argv naming it."""
    (directory / "segments.csv").write_text(segments, encoding="utf-8")
    (directory / "budgets.csv").write_text(budgets, encoding="utf-8")
    return ["--segments", "segments.csv", "--budgets", "budgets.csv"]


PLAN = ["cluster", "--algo", "schedule", "--out", "plan.json", "--svg", "plan.svg"]


def test_an_outer_cap_at_the_money_limit_is_refused(tmp_path):
    # budget + e_h is 10^18 or more: validate refuses it (exit 1), cluster
    # cannot plan it (exit 2), and neither writes a file
    dataset = _refused_dataset(
        tmp_path,
        "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\nb,1,0,2018,1.00\n",
        "year,budget,e_l,e_h\n2018,2.00,0.00,999999999999999999.00\n",
    )
    refusal = "year 2018: budget + e_h 1000000000000000001.00 is not below 1E+18\n"
    for command, code, output in [
        (["validate"], 1, f"outer_cap_too_large: {refusal}"), (PLAN, 2, f"error: {refusal}"),
    ]:
        run = run_paveplan([*command, *dataset], cwd=tmp_path)
        assert run.returncode == code, (command, run.returncode, run.stdout, run.stderr)
        assert output in (run.stdout, run.stderr), (command, run.stdout, run.stderr)
        assert sorted(os.listdir(tmp_path)) == ["budgets.csv", "segments.csv"], command


def test_an_overflowing_distance_is_refused(tmp_path):
    # segments 1.8e308 apart, whose distance overflows floats: validate
    # refuses them (exit 1), cluster cannot plan them (exit 2), no file
    dataset = _refused_dataset(
        tmp_path,
        "id,x,y,scheduled_year,cost\n"
        "a,9e307,0,2020,5.00\nb,-9e307,0,2020,5.00\nc,0,1,2021,5.00\n",
        "year,budget\n2020,10.00\n2021,5.00\n",
    )
    run = run_paveplan(["validate", *dataset], cwd=tmp_path)
    assert run.returncode == 1, (run.returncode, run.stdout, run.stderr)
    assert run.stdout.startswith("distance_overflow: "), run.stdout
    run = run_paveplan([*PLAN, *dataset], cwd=tmp_path)
    assert run.returncode == 2, (run.returncode, run.stdout, run.stderr)
    assert sorted(os.listdir(tmp_path)) == ["budgets.csv", "segments.csv"]


def test_two_outputs_naming_one_file_are_refused(tmp_path):
    # refused (exit 2) before either is written, and before any other work
    synth = ["synth", "--n", "20", "--blobs", "2", "--years", "2018:2019", "--seed", "1"]
    run = run_paveplan(
        [*synth, "--out-segments", "segments.csv", "--out-budgets", "budgets.csv"], cwd=tmp_path
    )
    assert run.returncode == 0, run.stderr
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    for command in [
        ["cluster", "--algo", "schedule", "--segments", "segments.csv",
         "--budgets", "budgets.csv", "--out", "p.json", "--svg", "p.json"],
        [*synth, "--out-segments", "d.csv", "--out-budgets", "d.csv"],
    ]:
        run = run_paveplan(command, cwd=tmp_path)
        assert run.returncode == 2, (command, run.returncode, run.stdout, run.stderr)
        assert run.stderr.endswith("name the same file\n"), run.stderr
        assert run.stderr.count("\n") == 1, run.stderr
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before, command
