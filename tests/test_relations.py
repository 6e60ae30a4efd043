"""Relations between runs: what a command prints or writes depends only on
what it is given, and on nothing else of the CSV or the interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

import paveplan.io_formats
from paveplan.cli import main
from paveplan.io_formats import emit_budgets_csv, emit_segments_csv
from paveplan.radial import landmark_based_radial_clustering, main_algorithm, schedule_aware_plan
from paveplan.synth import synthesize_dataset

from helpers import (
    distance_figures, plan_outline, renamed, run_paveplan, scaled, small_datasets,
)


def _write_dataset(directory, n=60, blobs=3, years=range(2018, 2021), seed=5):
    segments, schedule = synthesize_dataset(n, blobs, years, seed, tolerance_fraction=0.05)
    (directory / "segments.csv").write_text(emit_segments_csv(segments), encoding="utf-8")
    (directory / "budgets.csv").write_text(emit_budgets_csv(schedule), encoding="utf-8")


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    """A directory holding a dataset, its schedule-aware plan (after.json)
    and its baseline (before.json)."""
    directory = tmp_path_factory.mktemp("plans")
    _write_dataset(directory)
    dataset = ["--segments", str(directory / "segments.csv"),
               "--budgets", str(directory / "budgets.csv")]
    assert main(["cluster", *dataset, "--algo", "schedule", "--out", str(directory / "after.json")]) == 0
    assert main(["baseline", *dataset, "--out", str(directory / "before.json")]) == 0
    return directory


def _rewrite(text, rewrite_row):
    """``text``, a segments CSV as paveplan writes it, with each data row's
    cells ``[id, x, y, year, cost]`` passed through ``rewrite_row(index, cells)``."""
    header, *rows = text.splitlines()
    cells = [rewrite_row(i, row.split(",")) for i, row in enumerate(rows)]
    return "\n".join([header, *map(",".join, cells)]) + "\n"


def _changed(position, value):
    def rewrite(i, cells):
        if i == 0:
            cells[position] = value
        return cells
    return rewrite


# each variant of the CSV the plans were made from, and whether reading it
# takes the row reader (a year cell padded with a no-break space)
VARIANTS = {
    "same": (lambda text: text, False),
    "extra-row": (lambda text: text + "extra,1.5,-2.5,2019,3.00\n", False),
    "cost-changed": (lambda text: _rewrite(text, _changed(4, "1.23")), False),
    "year-changed": (lambda text: _rewrite(text, _changed(3, "2031")), False),
    "padded": (
        lambda text: _rewrite(
            text, lambda i, cells: [f" {cell} " for cell in cells[:4]] + [cells[4] + "0"]
        ),
        False,
    ),
    "integer-costs-nbsp-years": (
        lambda text: _rewrite(
            text, lambda i, cells: [*cells[:3], f"\xa0{cells[3]}", str(i + 1)]
        ),
        True,
    ),
}


def _read_side(directory, segments, capsys):
    """What ``metrics`` and ``compare`` print and the SVG ``render`` writes,
    each against the segments CSV at ``segments``."""
    after, before = str(directory / "after.json"), str(directory / "before.json")
    svg = directory / "after.svg"
    capsys.readouterr()
    assert main(["metrics", "--plan", after, "--segments", str(segments)]) == 0
    metrics = capsys.readouterr().out
    assert main(["compare", "--before", before, "--after", after, "--segments", str(segments)]) == 0
    compared = capsys.readouterr().out
    assert main(["render", "--plan", after, "--segments", str(segments), "--out", str(svg)]) == 0
    return metrics, compared, svg.read_bytes()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_read_side_output_depends_only_on_ids_and_coordinates(plans, variant, capsys, monkeypatch):
    rewrite, by_rows = VARIANTS[variant]
    text = (plans / "segments.csv").read_text(encoding="utf-8")
    changed = plans / f"{variant}.csv"
    changed.write_text(rewrite(text), encoding="utf-8")
    expected = _read_side(plans, plans / "segments.csv", capsys)
    rows, calls = paveplan.io_formats._segment_rows, []
    monkeypatch.setattr(
        paveplan.io_formats, "_segment_rows", lambda text: calls.append(1) or rows(text)
    )
    assert _read_side(plans, changed, capsys) == expected
    assert bool(calls) is by_rows  # the variant took the reader it was written for


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    _write_dataset(tmp_path, n=200, blobs=4)
    dataset = ["--segments", tmp_path / "segments.csv", "--budgets", tmp_path / "budgets.csv"]
    commands = [
        ["cluster", *dataset, "--algo", "schedule", "--out", "plan.json", "--svg", "plan.svg"],
        ["baseline", *dataset, "--out", "before.json"],
        ["compare", "--before", "before.json", "--after", "plan.json",
         "--segments", tmp_path / "segments.csv"],
    ]
    artifacts = []
    for seed in ("0", "1"):
        directory = tmp_path / f"seed-{seed}"
        directory.mkdir()
        printed = []
        for command in commands:
            run = run_paveplan(command, cwd=directory, env={"PYTHONHASHSEED": seed})
            assert run.returncode == 0, (seed, command[0], run.stderr)
            printed.append((run.stdout, run.stderr))
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        assert sorted(files) == ["before.json", "plan.json", "plan.svg"]
        artifacts.append((files, printed))
    assert artifacts[0] == artifacts[1]


# each engine as ``cluster --algo`` runs it, with or without skip mode
ENGINES = {
    "random": lambda segments, schedule, skip: main_algorithm(
        segments, schedule, 3, skip_mode=skip
    ),
    "landmark": lambda segments, schedule, skip: landmark_based_radial_clustering(
        segments, schedule, 0, skip_mode=skip
    ),
    "schedule": lambda segments, schedule, skip: schedule_aware_plan(
        segments, schedule, 0, skip_mode=skip
    ),
}


@settings(max_examples=150, deadline=None)
@given(small_datasets(), st.sampled_from(sorted(ENGINES)), st.booleans())
def test_money_scaled_by_100_gives_the_same_plan(dataset, engine, skip):
    segments, schedule = dataset
    plan = ENGINES[engine](segments, schedule, skip)
    big_segments, big_schedule = scaled(segments, schedule, 100)
    big = ENGINES[engine](big_segments, big_schedule, skip)
    assert plan_outline(big) == plan_outline(plan)
    assert [c.realized_cost for c in big.clusters] == [c.realized_cost * 100 for c in plan.clusters]
    assert distance_figures(big, big_schedule, big_segments) == distance_figures(
        plan, schedule, segments
    )


@settings(max_examples=150, deadline=None)
@given(small_datasets(), st.sampled_from(sorted(ENGINES)), st.booleans(), st.randoms())
def test_an_order_preserving_rename_renames_the_plan(dataset, engine, skip, rng):
    segments, schedule = dataset
    ids = sorted(s.id for s in segments)
    # distinct ids of one to six hex digits, of which only the order is kept
    new_ids = sorted(map("{:x}".format, rng.sample(range(2**24), len(ids))))
    names = dict(zip(ids, new_ids))
    plan = ENGINES[engine](segments, schedule, skip)
    assert plan_outline(ENGINES[engine](renamed(segments, names), schedule, skip)) == (
        plan_outline(plan, names.__getitem__)
    )
