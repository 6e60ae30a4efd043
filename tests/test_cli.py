import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from itertools import chain
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings, strategies as st

import paveplan.cli
import paveplan.radial
from paveplan.cli import main
from paveplan.io_formats import (
    emit_budgets_csv,
    emit_cost_matrix_csv,
    emit_segments_csv,
    load_segments,
    parse_plan_document,
)
from paveplan.model import (
    BudgetEntry, BudgetSchedule, CostRow, PavePlanError, Segment, validate_dataset,
)
from paveplan.synth import synthesize_dataset

from helpers import JSON_VALUES, csv_texts, money_respellings, refusal, refused_at, seg
from oracles import oracle_document_json

TWO_BLOB_SEGMENTS = (
    "id,x,y,scheduled_year,cost\n"
    "a1,0,0,2018,1.00\n"
    "a2,1,0,2019,1.00\n"
    "a3,0,1,2018,1.00\n"
    "b1,100,0,2019,1.00\n"
    "b2,101,0,2018,1.00\n"
    "b3,100,1,2019,1.00\n"
)
TWO_BLOB_BUDGETS = "year,budget\n2018,3.00\n2019,3.00\n"
# the golden plan document: the landmark plan of these segments
GOLDEN_TEXT = (Path(__file__).parent / "data" / "two_blob_plan.json").read_text(encoding="utf-8")
REALIZED_2018 = "found '      \"realized_cost\": \"3.00\",'"


@pytest.fixture
def two_blob_files(tmp_path):
    segments = tmp_path / "segments.csv"
    budgets = tmp_path / "budgets.csv"
    segments.write_text(TWO_BLOB_SEGMENTS, encoding="utf-8")
    budgets.write_text(TWO_BLOB_BUDGETS, encoding="utf-8")
    return segments, budgets


def test_cluster_landmark_two_blobs(two_blob_files, tmp_path):
    segments, budgets = two_blob_files
    out = tmp_path / "plan.json"
    code = main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            "--algo", "landmark",
            "--axis", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    document = parse_plan_document(out.read_text(encoding="utf-8"))
    blobs = [{sid[0] for sid in c.member_ids} for c in document.plan.clusters]
    assert blobs == [{"b"}, {"a"}]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--algo", "random"], "--seed is required with --algo random"),
        (["--algo", "landmark", "--seed", "1"], "--seed is not valid with --algo landmark"),
        (["--algo", "random", "--seed", "1", "--axis", "0"], "--axis is not valid"),
        (["--algo", "landmark", "--low-tolerance", "1.00"], "only apply to --algo schedule"),
        (["--algo", "random", "--seed", "1", "--low-tolerance", "1.00"], "only apply to"),
        (["--algo", "schedule", "--conservation-tolerance=-0.01"], "must be non-negative"),
    ],
    ids=["random-without-seed", "landmark-with-seed", "random-with-axis",
         "landmark-with-tolerance", "random-with-tolerance", "negative-conservation"],
)
def test_cluster_refuses_options_that_do_not_apply(options, message, two_blob_files, capsys):
    segments, budgets = two_blob_files
    out = segments.parent / "plan.json"
    try:
        code = main(["cluster", "--segments", str(segments), "--budgets", str(budgets),
                     *options, "--out", str(out)])
    except SystemExit as exc:  # a usage error
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


ALGO_ARGS = {
    "random": ["--algo", "random", "--seed", "1"],
    "landmark": ["--algo", "landmark"],
    "schedule": ["--algo", "schedule"],
}


@pytest.mark.parametrize("algo", sorted(ALGO_ARGS))
def test_strict_conservation_failure_exits_1(
    algo, two_blob_files, tmp_path, capsys
):
    segments, _ = two_blob_files
    budgets = tmp_path / "bad_budgets.csv"
    budgets.write_text("year,budget\n2018,3.00\n2019,9.00\n", encoding="utf-8")
    out = tmp_path / "plan.json"
    code = main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            *ALGO_ARGS[algo],
            "--strict",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "conservation_mismatch: total scheduled cost 6.00 deviates from "
        "total budget 12.00 by -6.00\n"
    )
    assert not out.exists()  # no partial artifacts


@pytest.mark.parametrize("algo", sorted(ALGO_ARGS))
def test_strict_validates_once(algo, two_blob_files, tmp_path, monkeypatch):
    calls = []

    def counting(segments, schedule):
        calls.append(1)
        return validate_dataset(segments, schedule)

    monkeypatch.setattr(paveplan.cli, "validate_dataset", counting)
    monkeypatch.setattr(paveplan.radial, "validate_dataset", counting)
    segments, budgets = two_blob_files
    code = main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            *ALGO_ARGS[algo],
            "--strict",
            "--out", str(tmp_path / "plan.json"),
        ]
    )
    assert code == 0
    assert len(calls) == 1


def test_header_only_budgets_exits_2(two_blob_files, tmp_path, capsys):
    segments, _ = two_blob_files
    budgets = tmp_path / "budgets.csv"
    budgets.write_text("year,budget\n", encoding="utf-8")
    out = tmp_path / "plan.json"
    code = main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            "--algo", "schedule",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "no data rows" in capsys.readouterr().err
    assert not out.exists()


def test_parse_error_exits_2(tmp_path, capsys):
    segments = tmp_path / "segments.csv"
    budgets = tmp_path / "budgets.csv"
    segments.write_text("id,x,y,scheduled_year,cost\na,zero,0,2018,1.00\n", encoding="utf-8")
    budgets.write_text(TWO_BLOB_BUDGETS, encoding="utf-8")
    code = main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            "--algo", "landmark",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["exit-0", "exit-2", "usage", "usage-in-handler", "help"])
def test_main_leaves_the_cyclic_collector_as_it_found_it(
    case, enabled, two_blob_files, tmp_path, capsys, monkeypatch
):
    # a command runs with the collector off; each way out restores the caller's setting
    segments, budgets = two_blob_files
    load, collecting = paveplan.cli._load_dataset, []
    monkeypatch.setattr(
        paveplan.cli, "_load_dataset", lambda args: collecting.append(gc.isenabled()) or load(args)
    )
    parse, parsing = paveplan.cli.build_parser, []
    monkeypatch.setattr(
        paveplan.cli, "build_parser", lambda: parsing.append(gc.isenabled()) or parse()
    )
    if case == "exit-2":  # a CsvFormatError
        segments.write_text("id,x,y,scheduled_year,cost\na,zero,0,2018,1.00\n", encoding="utf-8")
    dataset = ["--segments", str(segments), "--budgets", str(budgets)]
    argv = {
        "exit-0": ["cluster", *dataset, "--algo", "schedule", "--out", str(tmp_path / "p.json")],
        "exit-2": ["cluster", *dataset, "--algo", "schedule", "--out", str(tmp_path / "p.json")],
        "usage": ["cluster", *dataset, "--algo", "nowhere"],
        "usage-in-handler": ["cluster", *dataset, "--algo", "random"],
        "help": ["cluster", "--help"],
    }[case]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case.startswith("exit"):
            code = main(argv)
        else:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            code = excinfo.value.code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == {"exit-0": 0, "help": 0}.get(case, 2)
    assert collecting == ([False] if case.startswith("exit") else [])
    assert parsing == [False]  # argparse's objects are built with the collector off


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(
        [
            "validate",
            "--segments", str(tmp_path / "absent.csv"),
            "--budgets", str(tmp_path / "absent2.csv"),
        ]
    )
    assert code == 2


def test_validate_reports_issues(two_blob_files, tmp_path, capsys):
    segments, _ = two_blob_files
    budgets = tmp_path / "bad_budgets.csv"
    budgets.write_text("year,budget\n2018,3.00\n2019,9.00\n", encoding="utf-8")
    code = main(
        ["validate", "--segments", str(segments), "--budgets", str(budgets)]
    )
    assert code == 1
    assert "conservation_mismatch" in capsys.readouterr().out


def test_validate_ok(two_blob_files, capsys):
    segments, budgets = two_blob_files
    code = main(["validate", "--segments", str(segments), "--budgets", str(budgets)])
    assert code == 0
    assert "admissible" in capsys.readouterr().out


def test_synth_single_row(tmp_path):
    out_segments = tmp_path / "segments.csv"
    out_budgets = tmp_path / "budgets.csv"
    code = main(
        [
            "synth",
            "--n", "1",
            "--blobs", "1",
            "--years", "2018",
            "--seed", "7",
            "--out-segments", str(out_segments),
            "--out-budgets", str(out_budgets),
        ]
    )
    assert code == 0
    lines = out_segments.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2  # header + one row


def test_synth_then_cluster_is_deterministic(tmp_path):
    artifacts = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        seg_path = base / "segments.csv"
        bud_path = base / "budgets.csv"
        plan_path = base / "plan.json"
        svg_path = base / "plan.svg"
        assert main(
            [
                "synth",
                "--n", "60",
                "--blobs", "3",
                "--years", "2018:2020",
                "--seed", "11",
                "--out-segments", str(seg_path),
                "--out-budgets", str(bud_path),
            ]
        ) == 0
        assert main(
            [
                "cluster",
                "--segments", str(seg_path),
                "--budgets", str(bud_path),
                "--algo", "schedule",
                "--out", str(plan_path),
                "--svg", str(svg_path),
            ]
        ) == 0
        artifacts.append(
            (
                seg_path.read_bytes(),
                bud_path.read_bytes(),
                plan_path.read_bytes(),
                svg_path.read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]


def test_synth_growth_matrix_then_cluster(tmp_path):
    seg_path = tmp_path / "segments.csv"
    bud_path = tmp_path / "budgets.csv"
    mat_path = tmp_path / "matrix.csv"
    plan_path = tmp_path / "plan.json"
    assert main(
        [
            "synth",
            "--n", "40",
            "--blobs", "2",
            "--years", "2018:2020",
            "--seed", "3",
            "--growth-rate", "0.08",
            "--out-segments", str(seg_path),
            "--out-budgets", str(bud_path),
            "--out-matrix", str(mat_path),
        ]
    ) == 0
    assert main(
        [
            "cluster",
            "--segments", str(seg_path),
            "--budgets", str(bud_path),
            "--cost-matrix", str(mat_path),
            "--algo", "schedule",
            "--out", str(plan_path),
        ]
    ) == 0
    obj = json.loads(plan_path.read_text(encoding="utf-8"))
    # moved projects must be priced at their cluster's year, so realized
    # costs recompute exactly from the emitted member costs, as the parse
    # derives them
    for cluster in obj["clusters"]:
        total = sum((Decimal(m["cost_used"]) for m in cluster["members"]), Decimal("0.00"))
        assert f"{total:.2f}" == cluster["realized_cost"]
    parse_plan_document(plan_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("algo", [["landmark"], ["random", "--seed", "3"]], ids=["landmark", "random"])
def test_matrix_plans_of_scalar_cost_algos_read_back(algo, tmp_path, monkeypatch):
    # every engine prices a project at its cluster's year, as the document does
    monkeypatch.chdir(tmp_path)
    assert main(
        ["synth", "--n", "60", "--blobs", "3", "--years", "2018:2020", "--seed", "5",
         "--growth-rate", "0.05", "--out-segments", "s.csv", "--out-budgets", "b.csv",
         "--out-matrix", "m.csv"]
    ) == 0
    assert main(
        ["cluster", "--segments", "s.csv", "--budgets", "b.csv", "--cost-matrix", "m.csv",
         "--algo", *algo, "--out", "plan.json"]
    ) == 0
    obj = json.loads(Path("plan.json").read_text(encoding="utf-8"))
    assert any(m["scheduled_year"] != c["year"] for c in obj["clusters"] for m in c["members"])
    assert main(["metrics", "--plan", "plan.json", "--segments", "s.csv"]) == 0


def test_growth_rate_requires_matrix_output(tmp_path, monkeypatch, capsys):
    # refused before any dataset is built
    calls = []
    synthesize = paveplan.cli.synthesize_dataset
    monkeypatch.setattr(
        paveplan.cli, "synthesize_dataset", lambda *a, **k: calls.append(a) or synthesize(*a, **k)
    )
    code = main(
        [
            "synth",
            "--n", "10",
            "--blobs", "1",
            "--years", "2018,2019",
            "--seed", "1",
            "--growth-rate", "0.05",
            "--out-segments", str(tmp_path / "s.csv"),
            "--out-budgets", str(tmp_path / "b.csv"),
        ]
    )
    assert code == 2
    assert "--out-matrix" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, parameter",
    [
        (["--tolerance-fraction", "nan"], "tolerance fraction"),
        (["--tolerance-fraction", "inf"], "tolerance fraction"),
        (["--tolerance-fraction", "-1"], "tolerance fraction"),
        (["--growth-rate", "nan"], "growth rate"),
        (["--growth-rate", "inf"], "growth rate"),
    ],
)
def test_synth_refuses_non_finite_options(flags, parameter, tmp_path, capsys):
    code = main(
        [
            "synth",
            "--n", "20",
            "--blobs", "2",
            "--years", "2018:2019",
            "--seed", "1",
            *flags,
            "--out-segments", str(tmp_path / "s.csv"),
            "--out-budgets", str(tmp_path / "b.csv"),
            "--out-matrix", str(tmp_path / "m.csv"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert parameter in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "spec, problem",
    [(spec, "is not a year list or range") for spec in ["2018:", ":2020", "2018,,2019", "x", "2018:2019:2020"]]
    # int() takes digit separators and non-ASCII digits
    + [(spec, "is not a year list or range") for spec in ["2_018:2019", "٢٠١٨:2019", "2018,2_019"]]
    + [("2020:2018", "is a reversed range")],
)
def test_synth_names_a_bad_years_spec(spec, problem, tmp_path, capsys):
    code = main(
        ["synth", "--n", "20", "--blobs", "2", "--years", spec, "--seed", "1",
         "--out-segments", str(tmp_path / "s.csv"), "--out-budgets", str(tmp_path / "b.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: --years {spec!r} {problem}\n"
    assert list(tmp_path.iterdir()) == []


def test_synth_years_keep_whitespace_and_signs(tmp_path):
    assert main(
        ["synth", "--n", "20", "--blobs", "2", "--years", " 2018 : +2019 ", "--seed", "1",
         "--out-segments", str(tmp_path / "s.csv"), "--out-budgets", str(tmp_path / "b.csv")]
    ) == 0
    years = [line.split(",")[0] for line in (tmp_path / "b.csv").read_text().splitlines()[1:]]
    assert years == ["2018", "2019"]


def test_synth_auto_budgets_need_one_project_per_year(tmp_path, capsys):
    # with one project per year, every auto-sized budget is at least the
    # least synthetic cost, 5,000.00; with fewer, synth refuses
    args = ["synth", "--blobs", "1", "--years", "2018:2020", "--seed", "1",
            "--out-segments", str(tmp_path / "s.csv"), "--out-budgets", str(tmp_path / "b.csv")]
    assert main([*args, "--n", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: auto-sized budgets need at least one project per year\n"
    )
    assert list(tmp_path.iterdir()) == []
    assert main([*args, "--n", "3"]) == 0
    rows = (tmp_path / "b.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 3
    assert all(Decimal(row.split(",")[1]) >= Decimal("5000.00") for row in rows)


def test_synth_refuses_a_long_span_of_years_unbuilt(tmp_path, capsys):
    # a million years for five projects: refused by the span's length, so
    # no tuple of years (8 MB of pointers alone) is ever built
    tracemalloc.start()
    try:
        code = main(
            ["synth", "--n", "5", "--blobs", "1", "--years", "0:999999", "--seed", "1",
             "--out-segments", str(tmp_path / "s.csv"), "--out-budgets", str(tmp_path / "b.csv")]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "error: auto-sized budgets need at least one project per year\n"
    )
    assert peak < 1 << 20
    assert list(tmp_path.iterdir()) == []


def _synth_budgets(*tolerances):
    # the budgets of synth --n 5 --blobs 1 --years 2018:2020 --seed 1
    budgets = {2018: "22411.87", 2019: "16936.63", 2020: "11832.44"}
    rows = (f"{y},{b},{t},{t}\n" for (y, b), t in zip(budgets.items(), tolerances))
    return "year,budget,e_l,e_h\n" + "".join(rows)


@pytest.mark.parametrize(
    "fraction, budgets",
    [
        ("0.05", _synth_budgets("1120.59", "846.83", "591.62")),
        ("0.999999", _synth_budgets("22411.84", "16936.61", "11832.42")),
        # from a fraction of 1 on, each tolerance is the budget less 0.01; a
        # product of 1e300 and a budget does not fit the decimal context
        *[(f, _synth_budgets("22411.86", "16936.62", "11832.43")) for f in ("1", "2", "1e300")],
        *[(f, _synth_budgets("0.00", "0.00", "0.00")) for f in ("0", "-0.0")],
    ],
    ids=["0.05", "0.999999", "1", "2", "1e300", "0", "-0.0"],
)
def test_synth_tolerance_fraction_bytes(fraction, budgets, tmp_path):
    assert main(
        ["synth", "--n", "5", "--blobs", "1", "--years", "2018:2020", "--seed", "1",
         f"--tolerance-fraction={fraction}", "--out-segments", str(tmp_path / "s.csv"),
         "--out-budgets", str(tmp_path / "b.csv")]
    ) == 0
    assert (tmp_path / "b.csv").read_text(encoding="utf-8") == budgets


SYNTH_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1e308,
     -1e308, 1.0, -1.0]
) | st.floats()


@settings(max_examples=150, deadline=None)
@given(tolerance=st.none() | SYNTH_FLOATS, growth=st.none() | SYNTH_FLOATS, matrix=st.booleans())
@example(tolerance=1e300, growth=None, matrix=False)
def test_synth_float_options_exit_0_or_2(tolerance, growth, matrix):
    # given as --opt=value: argparse reads a lone -1.7e+173 as a flag
    options = {"--tolerance-fraction": tolerance, "--growth-rate": growth}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        args = ["synth", "--n", "5", "--blobs", "1", "--years", "2018:2020", "--seed", "1",
                *(f"{name}={value!r}" for name, value in options.items() if value is not None),
                "--out-segments", str(out / "s.csv"), "--out-budgets", str(out / "b.csv")]
        if matrix:
            args += ["--out-matrix", str(out / "m.csv")]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(args)
        assert code in (0, 2)
        outputs = ["b.csv", "m.csv", "s.csv"] if matrix else ["b.csv", "s.csv"]
        assert sorted(p.name for p in out.iterdir()) == ([] if code else outputs)


@pytest.mark.parametrize("value", ["1_0", "١٠"])
def test_integer_options_refuse_other_digits(value, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(
            ["synth", "--n", value, "--blobs", "2", "--years", "2018", "--seed", "1",
             "--out-segments", str(tmp_path / "s.csv"), "--out-budgets", str(tmp_path / "b.csv")]
        )
    assert excinfo.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "files, where",
    [
        ({"segments.csv": "id,x,y,scheduled_year,cost\na,0,0,2_018,1.00\n"},
         "row 2, column 'scheduled_year': malformed integer '2_018'"),
        ({"budgets.csv": "year,budget\n٢٠١٨,1.00\n"},
         "row 2, column 'year': malformed integer '٢٠١٨'"),
        ({"matrix.csv": "id,Y2_018\na,1.00\n"},
         "row 1, column 'Y2_018': malformed integer '2_018'"),
    ],
    ids=["segments-year", "budgets-year", "matrix-year"],
)
def test_csv_integers_refuse_other_digits(files, where, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    texts = {
        "segments.csv": "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\n",
        "budgets.csv": "year,budget\n2018,1.00\n",
        "matrix.csv": "id,Y2018\na,1.00\n",
    }
    texts.update(files)
    for name, text in texts.items():
        Path(name).write_text(text, encoding="utf-8")
    args = ["--segments", "segments.csv", "--budgets", "budgets.csv"]
    for command in (
        ["validate", *args, "--cost-matrix", "matrix.csv"],
        ["cluster", "--algo", "schedule", *args, "--cost-matrix", "matrix.csv", "--out", "p.json"],
    ):
        assert main(command) == 2
        assert capsys.readouterr().err == f"error: {where}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(texts)


def test_duplicate_matrix_id_names_its_first_row(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    texts = {
        "segments.csv": "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\n",
        "budgets.csv": "year,budget\n2018,1.00\n",
        "matrix.csv": "id,Y2018\na,1.00\nb,1.00\na,2.00\n",
    }
    for name, text in texts.items():
        Path(name).write_text(text, encoding="utf-8")
    code = main(
        ["cluster", "--algo", "schedule", "--segments", "segments.csv", "--budgets",
         "budgets.csv", "--cost-matrix", "matrix.csv", "--out", "plan.json"]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: row 4, column 'id': duplicate id 'a' (first seen on row 2)\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(texts)


OUTER_CAP_SEGMENTS = "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\nb,1,0,2018,1.00\n"
OUTER_CAP_BUDGETS = "year,budget,e_l,e_h\n2018,2.00,0.00,999999999999999999.00\n"


@pytest.mark.parametrize(
    "budgets, flags, outer",
    [("year,budget,e_l,e_h\n2018,900000000000000000.00,0.00,900000000000000000.00\n", [],
      "1800000000000000000.00"),
     ("year,budget\n2018,900000000000000000.00\n", ["--high-tolerance", "100000000000000000.00"],
      "1000000000000000000.00")],
    ids=["budgets-csv", "high-tolerance-option"],
)
def test_outer_cap_past_the_money_limit_names_the_year(budgets, flags, outer, tmp_path,
                                                       monkeypatch, capsys):
    # the landmark engine plans these inputs; the band's outer cap,
    # budget + e_h, is refused before any walk, naming its year
    monkeypatch.chdir(tmp_path)
    Path("segments.csv").write_text(OUTER_CAP_SEGMENTS, encoding="utf-8")
    Path("budgets.csv").write_text(budgets, encoding="utf-8")
    args = ["--segments", "segments.csv", "--budgets", "budgets.csv"]
    assert main(["cluster", "--algo", "schedule", *args, *flags, "--out", "plan.json"]) == 2
    assert capsys.readouterr().err == (
        f"error: year 2018: budget + e_h {outer} is not below 1E+18\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "segments.csv"]
    assert main(["cluster", "--algo", "landmark", *args, "--out", "plan.json"]) == 0


def test_validate_and_strict_refuse_an_outer_cap_past_the_money_limit(
    tmp_path, monkeypatch, capsys
):
    # what the schedule engine cannot plan is not admissible
    monkeypatch.chdir(tmp_path)
    Path("segments.csv").write_text(OUTER_CAP_SEGMENTS, encoding="utf-8")
    Path("budgets.csv").write_text(OUTER_CAP_BUDGETS, encoding="utf-8")
    args = ["--segments", "segments.csv", "--budgets", "budgets.csv"]
    finding = (
        "outer_cap_too_large: year 2018: budget + e_h 1000000000000000001.00 "
        "is not below 1E+18\n"
    )
    assert main(["validate", *args]) == 1
    assert capsys.readouterr().out == finding
    for algo in ALGOS:
        assert main(["cluster", *algo, "--strict", *args, "--out", "plan.json"]) == 1
        assert capsys.readouterr().err == finding
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "segments.csv"]


# two points 1.8e308 apart: finite coordinates whose distance overflows
OVERFLOW_SEGMENTS = (
    "id,x,y,scheduled_year,cost\n"
    "a,9e307,0,2020,5.00\n"
    "b,-9e307,0,2020,5.00\n"
    "c,0,1,2021,5.00\n"
)
OVERFLOW_BUDGETS = "year,budget\n2020,10.00\n2021,5.00\n"


@pytest.mark.parametrize(
    "command",
    [
        ["cluster", "--algo", "schedule", "--svg", "plan.svg"],
        ["baseline"],
    ],
)
def test_overflowing_dispersion_exits_2_and_writes_nothing(
    command, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("segments.csv").write_text(OVERFLOW_SEGMENTS, encoding="utf-8")
    Path("budgets.csv").write_text(OVERFLOW_BUDGETS, encoding="utf-8")
    code = main(
        [*command, "--segments", "segments.csv", "--budgets", "budgets.csv",
         "--out", "plan.json"]
    )
    assert code == 2
    assert "error: year 2020:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "segments.csv"]


def test_validate_and_strict_refuse_overflowing_distances(tmp_path, monkeypatch, capsys):
    # what compute_metrics cannot sum is not admissible
    monkeypatch.chdir(tmp_path)
    Path("segments.csv").write_text(OVERFLOW_SEGMENTS, encoding="utf-8")
    Path("budgets.csv").write_text(OVERFLOW_BUDGETS, encoding="utf-8")
    args = ["--segments", "segments.csv", "--budgets", "budgets.csv"]
    finding = "distance_overflow: 3 segments span inf: their distance sums may overflow floats\n"
    assert main(["validate", *args]) == 1
    assert capsys.readouterr().out == finding
    for algo in ALGOS:
        assert main(["cluster", *algo, "--strict", *args, "--out", "plan.json"]) == 1
        assert capsys.readouterr().err == finding
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "segments.csv"]


HUGE = "99999999999999999999999999.99"


@pytest.mark.parametrize(
    "command", [["validate"], ["cluster", "--algo", "schedule", "--out", "plan.json"]]
)
@pytest.mark.parametrize(
    "segments_text, budgets_text, column",
    [
        # two such costs summed to 200000000000000000000000000.00 in the
        # 28-digit context, and the dataset passed as conserved
        (
            f"id,x,y,scheduled_year,cost\na,0,0,2018,{HUGE}\nb,1,0,2019,{HUGE}\n",
            f"year,budget\n2018,{HUGE}\n2019,{HUGE}\n",
            "cost",
        ),
        (
            "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\n",
            "year,budget\n2018,1000000000000000000.00\n",
            "budget",
        ),
    ],
)
def test_money_of_ten_to_the_eighteenth_exits_2(
    command, segments_text, budgets_text, column, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("segments.csv").write_text(segments_text, encoding="utf-8")
    Path("budgets.csv").write_text(budgets_text, encoding="utf-8")
    assert main([*command, "--segments", "segments.csv", "--budgets", "budgets.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: row 2, column {column!r}: money must be below 1E+18")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "segments.csv"]


def test_totals_past_the_money_limit_read_back(tmp_path, capsys):
    # three costs just under 10**18 in one year: the baseline's realized
    # cost and the document totals exceed it, and every command reads them
    amount = "999999999999999999.99"
    segments = tmp_path / "segments.csv"
    budgets = tmp_path / "budgets.csv"
    segments.write_text(
        "id,x,y,scheduled_year,cost\n"
        + "".join(f"s{i},{i},0,2018,{amount}\n" for i in range(3)),
        encoding="utf-8",
    )
    budgets.write_text(f"year,budget\n2018,{amount}\n", encoding="utf-8")
    plan = _plan_file("baseline", segments, budgets, tmp_path / "plan.json")
    text = plan.read_text(encoding="utf-8")
    assert '"realized_cost": "2999999999999999999.97"' in text
    parse_plan_document(text)
    assert main(["metrics", "--plan", str(plan), "--segments", str(segments)]) == 0
    assert main(["compare", "--before", str(plan), "--after", str(plan),
                 "--segments", str(segments)]) == 0


HUGE = Decimal("1000000000000000000.00")


def _edit_budget_past_the_limit(obj):
    # a 2018 budget of 10**18, with every field derived from it
    obj["schedule"]["entries"][0]["budget"] = obj["clusters"][0]["budget"] = f"{HUGE}"
    obj["metrics"]["per_year"][0].update(
        budget=f"{HUGE}", utilization=float(Decimal("3.00") / HUGE)
    )
    obj["metrics"]["overall"].update(total_budget=f"{HUGE + 3}", total_deviation=f"{3 - HUGE}")


def _edit_cost_past_the_limit(obj):
    # a 2018 member cost of 10**18, with every field derived from it
    realized = HUGE + 2
    obj["clusters"][0]["members"][0]["cost_used"] = f"{HUGE}"
    obj["clusters"][0]["realized_cost"] = f"{realized}"
    obj["metrics"]["per_year"][0].update(
        realized_cost=f"{realized}", utilization=float(realized / 3), over_budget=True
    )
    obj["metrics"]["overall"].update(total_cost=f"{realized + 3}", total_deviation=f"{realized - 3}")


def _edit_cost_past_any_float(obj):
    # realized / budget past any Decimal would overflow, were the cost read
    obj["schedule"]["entries"][0]["budget"] = obj["clusters"][0]["budget"] = "0.01"
    obj["clusters"][0]["members"][0]["cost_used"] = "1e999999"


def _edit_budget_past_any_float(obj):
    # so would realized / budget, were this budget read
    obj["schedule"]["entries"][0]["budget"] = obj["clusters"][0]["budget"] = "1e-1000000"


@pytest.mark.parametrize("command", ["metrics", "render", "compare"])
@pytest.mark.parametrize(
    "edit, message",
    [
        # read as no amount, so as 0.00, which the document does not hold
        (_edit_budget_past_the_limit,
         "plan document line 9: expected '        \"budget\": \"0.00\",', "
         "found '        \"budget\": \"1000000000000000000.00\",'"),
        (_edit_cost_past_the_limit,
         "plan document line 26: expected '      \"realized_cost\": \"2.00\",', "
         "found '      \"realized_cost\": \"1000000000000000002.00\",'"),
        (_edit_cost_past_any_float,
         "plan document line 26: expected '      \"realized_cost\": \"2.00\",', " + REALIZED_2018),
        (_edit_budget_past_any_float,
         "plan document line 9: expected '        \"budget\": \"0.00\",', "
         "found '        \"budget\": \"1e-1000000\",'"),
    ],
    ids=["budget", "cost", "cost-under-a-cent-budget", "budget-under-any-cent"],
)
def test_plan_document_money_past_the_limit_exits_2(
    command, edit, message, two_blob_files, tmp_path, capsys
):
    text = _golden_document(edit)
    _refused_by_every_reader(command, text, message, two_blob_files, tmp_path, capsys)


@pytest.mark.parametrize(
    "growth_rate, sha256",
    [
        ("0.08", "d497046c8477519dda6f27c98578582a99ef1b5ce65549740097fab451d7fedc"),
        # discounts later years: pins the half-up rounding both ways
        ("-0.02", "ef34d6530a608315abceed362fedc7c521177edbca6534a8aaab2cabb4aefba1"),
    ],
)
def test_cost_matrix_plan_bytes(growth_rate, sha256, tmp_path, monkeypatch):
    # no benchmark workload plans with --cost-matrix; pin its bytes here. The
    # input digest covers the synthesized CSVs, so this pins them too
    monkeypatch.chdir(tmp_path)
    assert main(
        ["synth", "--n", "300", "--blobs", "3", "--years", "2018:2022", "--seed", "5",
         "--tolerance-fraction", "0.05", "--growth-rate", growth_rate,
         "--out-segments", "s.csv", "--out-budgets", "b.csv", "--out-matrix", "m.csv"]
    ) == 0
    assert main(
        ["cluster", "--segments", "s.csv", "--budgets", "b.csv", "--cost-matrix", "m.csv",
         "--algo", "schedule", "--out", "plan.json"]
    ) == 0
    assert hashlib.sha256(Path("plan.json").read_bytes()).hexdigest() == sha256


EMPTY_AND_SINGLETON_SEGMENTS = (
    "id,x,y,scheduled_year,cost\n"
    "n1,0.5,0.25,2018,3.10\n"
    "n2,7.125,-2.5,2018,4.20\n"
    "n3,3.3,9.1,2018,1.05\n"
    "n4,-4.75,1.5,2018,2.00\n"
    "solo,12.5,-7.25,2020,6.00\n"
    "late,1,1,2031,1.00\n"
)
EMPTY_AND_SINGLETON_BUDGETS = "year,budget\n2018,10.35\n2019,5.00\n2020,6.00\n"


@pytest.mark.parametrize(
    "case, sha256",
    [
        ("synth", "9668a667ce5c34ee6bdb2f55cfe49ad27d1beb2190fef82404f24bb61a265bd3"),
        # 2019 holds no project, 2020 one, and one project lies past the plan
        ("empty-and-singleton", "18da65348bed09b50b7ac9356be89a50a3e3b26292f063cefda5fbf12ecdec61"),
    ],
)
def test_baseline_plan_bytes(case, sha256, tmp_path, monkeypatch):
    # the baseline writes its medoids and dispersion figures from one pass
    # over each year's pairs; pin the bytes the two-pass code wrote
    monkeypatch.chdir(tmp_path)
    if case == "synth":
        assert main(
            ["synth", "--n", "300", "--blobs", "3", "--years", "2018:2022", "--seed", "5",
             "--tolerance-fraction", "0.05", "--out-segments", "s.csv", "--out-budgets", "b.csv"]
        ) == 0
    else:
        Path("s.csv").write_text(EMPTY_AND_SINGLETON_SEGMENTS, encoding="utf-8")
        Path("b.csv").write_text(EMPTY_AND_SINGLETON_BUDGETS, encoding="utf-8")
    assert main(["baseline", "--segments", "s.csv", "--budgets", "b.csv", "--out", "plan.json"]) == 0
    assert hashlib.sha256(Path("plan.json").read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "algo, synth_seed, sha256",
    [
        (["landmark"], "5", "eae2b82e0ac9f458d337f3f9afb9b1a5b0274ddfb8296a2f49e60dcdcd9f8e98"),
        (["random", "--seed", "3", "--skip-mode"], "5",
         "36f8f132606bb3f2bc3069ba4e9cc0f0f43bdbfd75395eb3f797c9d445ede02b"),
        (["schedule", "--skip-mode"], "5",
         "49b785a8195d10b31f2bbe28a7437cb269f2ac8e274e8e9d1029c225cacfc2f1"),
        # at synth seed 5 skip mode admits nothing more under landmark centers
        (["landmark", "--skip-mode"], "6",
         "8045c728c094e55b8c1ea3c956c6d0df21488bf536989ab9d1b4749dc71ad786"),
    ],
    ids=["landmark", "random-skip", "schedule-skip", "landmark-skip"],
)
def test_walk_plan_bytes(algo, synth_seed, sha256, tmp_path, monkeypatch):
    # walk paths no benchmark workload runs: the landmark engine, and
    # skip mode, which reads the nearest-first stream past the first miss
    monkeypatch.chdir(tmp_path)
    assert main(
        ["synth", "--n", "300", "--blobs", "3", "--years", "2018:2022", "--seed", synth_seed,
         "--tolerance-fraction", "0.05", "--out-segments", "s.csv", "--out-budgets", "b.csv"]
    ) == 0
    assert main(
        ["cluster", "--segments", "s.csv", "--budgets", "b.csv", "--algo", *algo,
         "--out", "plan.json"]
    ) == 0
    assert hashlib.sha256(Path("plan.json").read_bytes()).hexdigest() == sha256


def test_cluster_builds_each_segment_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(
        ["synth", "--n", "120", "--blobs", "3", "--years", "2018:2022", "--seed", "5",
         "--tolerance-fraction", "0.05", "--out-segments", "s.csv", "--out-budgets", "b.csv"]
    ) == 0
    ids = [s.id for s in load_segments(Path("s.csv").read_text(encoding="utf-8"))]
    built, checked = [], []
    trusted, init = Segment._trusted, Segment.__init__
    monkeypatch.setattr(Segment, "_trusted", lambda *a: built.append(a[0]) or trusted(*a))
    # __init__ runs every check a Segment(...) call makes
    monkeypatch.setattr(
        Segment, "__init__", lambda s, *a, **k: checked.append((a, k)) or init(s, *a, **k)
    )
    assert main(
        ["cluster", "--segments", "s.csv", "--budgets", "b.csv", "--algo", "schedule",
         "--out", "plan.json"]
    ) == 0
    assert built == ids  # once per CSV row, in row order
    assert checked == []  # the loader checked each cell; nothing checks again
    assert len(ids) == 120


@pytest.mark.parametrize(
    "command",
    [["validate"], ["cluster", "--algo", "schedule", "--out", "plan.json"],
     ["baseline", "--out", "plan.json"]],
)
def test_both_files_malformed_names_the_segments_row(command, tmp_path, monkeypatch, capsys):
    # the budgets are read first, yet the segments file's fault is the one
    # reported, as when the segments were read first
    monkeypatch.chdir(tmp_path)
    Path("segments.csv").write_text(
        "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\nb,1,north,2018,1.00\n",
        encoding="utf-8",
    )
    Path("budgets.csv").write_text("year,budget\n2018,lots\n", encoding="utf-8")
    args = [*command, "--segments", "segments.csv", "--budgets", "budgets.csv"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "error: row 3, column 'y': malformed number 'north'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "segments.csv"]
    # with the segments mended, the budget is named
    Path("segments.csv").write_text(
        "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\n", encoding="utf-8"
    )
    assert main(args) == 2
    assert "row 2, column 'budget'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "segments.csv"]


GOOD_SEGMENT_ROWS = "id,x,y,scheduled_year,cost\na,0,0,2018,1.00\n"
# a row appended to GOOD_SEGMENT_ROWS, and the one line every reader of the
# segments CSV prints for it
SEGMENT_ROW_REFUSALS = {
    "empty-id": (" ,1,1,2018,1.00", "row 3, column 'id': empty id"),
    "duplicate-id": ("a,1,1,2018,1.00", "row 3, column 'id': duplicate id 'a' (first seen on row 2)"),
    "malformed-coordinate": ("b,north,0,2018,1.00", "row 3, column 'x': malformed number 'north'"),
    "non-finite-coordinate": ("b,0,inf,2018,1.00", "row 3, column 'y': non-finite number 'inf'"),
    "non-ascii-year": ("b,0,0,\u0662\u0660\u0661\u0669,1.00",
                       "row 3, column 'scheduled_year': malformed integer '\u0662\u0660\u0661\u0669'"),
    "control-char-year": ("b,0,0,\x1c2019,1.00",
                          "row 3, column 'scheduled_year': malformed integer '\\x1c2019'"),
    "sub-cent-cost": ("b,0,0,2018,1.234",
                      "row 3, column 'cost': money must have at most 2 decimal places, got '1.234'"),
    "zero-cost": ("b,0,0,2018,0.00", "row 3, column 'cost': cost must be positive, got 0.00"),
    "negative-cost": ("b,0,0,2018,-1.00", "row 3, column 'cost': cost must be positive, got -1.00"),
    "short-row": ("b,0,0,2018", "row 3: expected 5 fields, got 4"),
    # row 3's last cell is named before row 4's first
    "two-faulty-rows": ("b,0,0,2018,0.00\n,0,0,2018,1.00",
                        "row 3, column 'cost': cost must be positive, got 0.00"),
}
READ_SIDE_ARGS = {
    "metrics": ["metrics", "--plan", "plan.json"],
    "compare": ["compare", "--before", "plan.json", "--after", "plan.json"],
    "render": ["render", "--plan", "plan.json", "--out", "plan.svg"],
}


@pytest.fixture
def good_plan(tmp_path, monkeypatch):
    """A plan document built from GOOD_SEGMENT_ROWS, in the working directory."""
    monkeypatch.chdir(tmp_path)
    Path("good.csv").write_text(GOOD_SEGMENT_ROWS, encoding="utf-8")
    Path("budgets.csv").write_text("year,budget\n2018,1.00\n", encoding="utf-8")
    assert main(
        ["cluster", "--segments", "good.csv", "--budgets", "budgets.csv", "--algo", "schedule",
         "--out", "plan.json"]
    ) == 0


@pytest.mark.parametrize("command", ["cluster", *READ_SIDE_ARGS])
@pytest.mark.parametrize("row, message", SEGMENT_ROW_REFUSALS.values(), ids=SEGMENT_ROW_REFUSALS)
def test_every_reader_refuses_a_bad_segment_row_alike(
    command, row, message, good_plan, tmp_path, capsys
):
    Path("bad.csv").write_text(f"{GOOD_SEGMENT_ROWS}{row}\n", encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    args = READ_SIDE_ARGS.get(command) or [
        "cluster", "--budgets", "budgets.csv", "--algo", "schedule", "--out", "out.json",
        "--svg", "out.svg",
    ]
    capsys.readouterr()
    assert main([*args, "--segments", "bad.csv"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", READ_SIDE_ARGS)
def test_read_side_builds_no_segment(command, good_plan, monkeypatch, capsys):
    # the read side keeps ids and coordinates; it checks every cost cell
    # without pricing a row
    built = []
    trusted, cost_row = Segment._trusted, CostRow.__init__
    monkeypatch.setattr(Segment, "_trusted", lambda *a: built.append(a) or trusted(*a))
    monkeypatch.setattr(CostRow, "__init__", lambda *a: built.append(a) or cost_row(*a))
    assert main([*READ_SIDE_ARGS[command], "--segments", "good.csv"]) == 0
    assert built == []


def test_failed_svg_write_leaves_no_plan(two_blob_files, tmp_path, capsys):
    segments, budgets = two_blob_files
    command = ["cluster", "--algo", "schedule", "--segments", str(segments),
               "--budgets", str(budgets), "--out", str(tmp_path / "p.json")]
    assert main([*command, "--svg", str(tmp_path / "nodir" / "x.svg")]) == 2
    assert "nodir" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "segments.csv"]
    # an existing plan keeps its bytes
    (tmp_path / "p.json").write_text("old", encoding="utf-8")
    assert main([*command, "--svg", str(tmp_path / "nodir" / "x.svg")]) == 2
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "budgets.csv", "p.json", "segments.csv"
    ]
    # a directory named as either output: no file or hidden sibling is left
    (tmp_path / "adir").mkdir()
    for out, svg in [("adir", "x.svg"), ("p.json", "adir")]:
        assert main([*command[:-1], str(tmp_path / out), "--svg", str(tmp_path / svg)]) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert (tmp_path / "p.json").read_text(encoding="utf-8") == "old"
        assert sorted(os.listdir(tmp_path)) == ["adir", "budgets.csv", "p.json", "segments.csv"]


def test_failed_matrix_write_leaves_no_synth_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("b.csv").write_text("old", encoding="utf-8")
    code = main(
        ["synth", "--n", "20", "--blobs", "2", "--years", "2018:2019", "--seed", "1",
         "--growth-rate", "0.05", "--out-segments", "s.csv", "--out-budgets", "b.csv",
         "--out-matrix", "nodir/m.csv"]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: 'nodir/m.csv'\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]
    assert Path("b.csv").read_text(encoding="utf-8") == "old"


SAME_FILE_OUTPUTS = {
    "cluster": (["cluster", "--algo", "schedule", "--segments", "segments.csv",
                 "--budgets", "budgets.csv"], "--out", "--svg"),
    "synth": (["synth", "--n", "20", "--blobs", "2", "--years", "2018:2019", "--seed", "1",
               "--growth-rate", "0.05", "--out-matrix", "m.csv"], "--out-segments",
              "--out-budgets"),
}


@pytest.mark.parametrize("alias", [False, True], ids=["plain", "symlink"])
@pytest.mark.parametrize("command", SAME_FILE_OUTPUTS)
def test_two_outputs_naming_one_file_are_refused(
    command, alias, two_blob_files, tmp_path, monkeypatch, capsys
):
    # one would overwrite the other; refused before anything is written
    monkeypatch.chdir(tmp_path)
    args, first, second = SAME_FILE_OUTPUTS[command]
    other = "d.out"
    if alias:
        Path("d.out").write_text("old", encoding="utf-8")
        os.symlink("d.out", "alias.out")
        other = "alias.out"

    def listing():
        return {p.name: (p.is_symlink(), p.read_bytes()) for p in tmp_path.iterdir()}

    before = listing()
    assert main([*args, first, "d.out", second, other]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: outputs d.out and {other} name the same file\n"
    )
    assert listing() == before


@pytest.mark.parametrize("command", SAME_FILE_OUTPUTS)
def test_two_outputs_naming_one_file_are_refused_before_any_work(
    command, tmp_path, monkeypatch, capsys
):
    # the schedule plan of this dataset reports a finding on stderr; a
    # refused run reports only the refusal, and reads, plans and synthesizes nothing
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "20", "--blobs", "2", "--years", "2018:2019", "--seed", "1",
                 "--out-segments", "segments.csv", "--out-budgets", "budgets.csv"]) == 0
    args, first, second = SAME_FILE_OUTPUTS[command]
    assert main([*args, first, "p.out", second, "q.out"]) == 0
    if command == "cluster":
        assert "unassigned_remainder" in capsys.readouterr().err

    def never(*args, **kwargs):
        raise AssertionError("called")

    for name in ("_load_dataset", "schedule_aware_plan", "synthesize_dataset"):
        monkeypatch.setattr(paveplan.cli, name, never)
    capsys.readouterr()
    assert main([*args, first, "d.out", second, "d.out"]) == 2
    assert capsys.readouterr().err == "error: outputs d.out and d.out name the same file\n"


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
def test_plan_to_dev_stdout_is_written_in_place(two_blob_files, capfd):
    segments, budgets = two_blob_files
    command = ["cluster", "--algo", "schedule", "--segments", str(segments),
               "--budgets", str(budgets)]
    assert main(command) == 0
    expected = capfd.readouterr().out
    before = os.lstat("/dev/stdout")
    assert main([*command, "--out", "/dev/stdout"]) == 0
    assert capfd.readouterr().out == expected
    assert os.lstat("/dev/stdout") == before  # not replaced by a file


def test_plan_document_records_validation_diagnostics(tmp_path):
    # every year's cost is missing for 2020, c is scheduled outside the plan
    # and the budgets exceed the scheduled cost; year 2018 takes every point
    paths = {}
    for name, text in (
        ("segments", "id,x,y,scheduled_year,cost\n"
                     "a,0,0,2018,1.00\nb,1,0,2018,1.00\nc,2,0,2021,1.00\n"),
        ("budgets", "year,budget\n2018,10.00\n2019,1.00\n2020,1.00\n"),
        ("cost-matrix", "id,Y2018,Y2019\na,1.00,1.00\nb,1.00,1.00\nc,1.00,1.00\n"),
    ):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text, encoding="utf-8")
    out = tmp_path / "plan.json"
    code = main(
        ["cluster", "--algo", "schedule", "--out", str(out),
         *chain.from_iterable((f"--{name}", str(path)) for name, path in paths.items())]
    )
    assert code == 0
    diagnostics = json.loads(out.read_text(encoding="utf-8"))["diagnostics"]
    assert diagnostics == [
        {"code": kind, "message": message, "year": year, "segment_ids": []}
        for kind, message, year in [
            ("missing_cost_year", "segment a has no cost for schedule year 2020", 2020),
            ("missing_cost_year", "segment b has no cost for schedule year 2020", 2020),
            ("missing_cost_year", "segment c has no cost for schedule year 2020", 2020),
            ("bad_scheduled_year",
             "segment c is scheduled for 2021, which is not a plan year", 2021),
            ("conservation_mismatch",
             "total scheduled cost 2.00 deviates from total budget 12.00 by -10.00",
             None),
            ("empty_cluster", "no projects left for year 2019", 2019),
            ("empty_cluster", "no projects left for year 2020", 2020),
        ]
    ]


def test_metrics_command(two_blob_files, tmp_path, capsys):
    segments, budgets = two_blob_files
    plan_path = tmp_path / "plan.json"
    main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            "--algo", "landmark",
            "--out", str(plan_path),
        ]
    )
    capsys.readouterr()
    code = main(["metrics", "--plan", str(plan_path), "--segments", str(segments)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"]["total_cost"] == "6.00"
    assert payload["conservation"]["within_tolerance"] is True


@pytest.mark.parametrize(
    "command, deviation, within, sha256",
    [
        (["cluster", "--algo", "schedule"], "-27864.18", False,
         "83c034aa9421138e3a77a25f969c62be3814c4eb7fc68ffedce87384fd411895"),
        (["cluster", "--algo", "schedule", "--conservation-tolerance", "100000.00"],
         "-27864.18", True,
         "6cca89ddc82f98d00899d6478a3084b903a49515ac9ce0ea56ef156ee7253dc9"),
        (["baseline"], "0.00", True,
         "34d6ea405fa5198dc8ba36e80cc828dd35fbe686b2d9727f07e71d24f845f1e1"),
    ],
    ids=["schedule", "schedule-tolerant", "baseline"],
)
def test_metrics_stdout_bytes(command, deviation, within, sha256, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(
        ["synth", "--n", "300", "--blobs", "3", "--years", "2018:2022", "--seed", "5",
         "--tolerance-fraction", "0.05", "--out-segments", "s.csv", "--out-budgets", "b.csv"]
    ) == 0
    assert main(
        [command[0], "--segments", "s.csv", "--budgets", "b.csv", *command[1:],
         "--out", "plan.json"]
    ) == 0
    capsys.readouterr()
    assert main(["metrics", "--plan", "plan.json", "--segments", "s.csv"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["conservation"] == {"total_deviation": deviation, "within_tolerance": within}
    assert payload["overall"]["total_deviation"] == deviation
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_compare_command(two_blob_files, tmp_path, capsys):
    segments, budgets = two_blob_files
    before_path = tmp_path / "before.json"
    after_path = tmp_path / "after.json"
    main(
        [
            "baseline",
            "--segments", str(segments),
            "--budgets", str(budgets),
            "--out", str(before_path),
        ]
    )
    main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            "--algo", "schedule",
            "--out", str(after_path),
        ]
    )
    capsys.readouterr()
    code = main(
        [
            "compare",
            "--before", str(before_path),
            "--after", str(after_path),
            "--segments", str(segments),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall_dispersion_delta"] < 0  # grouped plan is tighter


SHIFTED_SEGMENTS = (
    "id,x,y,scheduled_year,cost\n"
    "a1,0,0,2018,1.00\n"
    "a2,1,0.5,2020,1.00\n"
    "b1,50,0,2019,1.00\n"
    "b2,51,0,2018,1.00\n"
    "c1,100,0,2020,1.00\n"
    "c2,101,0.25,2019,1.00\n"
)
SHIFTED_COMPARISON = """\
{
  "per_year": [
    {
      "year": 2018,
      "center_delta": -24.984611796797793,
      "pairwise_delta": -49.969223593595586
    },
    {
      "year": 2019,
      "center_delta": -24.94128937633362,
      "pairwise_delta": -49.88257875266724
    },
    {
      "year": 2020,
      "center_delta": -49.00063130910554,
      "pairwise_delta": -98.00126261821109
    }
  ],
  "overall_dispersion_delta": -65.95102165482464,
  "segments_moved": 6,
  "year_shift_histogram": {
    "-2": 1,
    "-1": 2,
    "1": 2,
    "2": 1
  }
}
"""


def test_compare_prints_every_field(tmp_path, capsys):
    # each pair of neighbours is scheduled apart; grouping them shifts
    # projects by -2, -1, 1 and 2 years
    segments, budgets = tmp_path / "s.csv", tmp_path / "b.csv"
    segments.write_text(SHIFTED_SEGMENTS, encoding="utf-8")
    budgets.write_text("year,budget\n2018,2.00\n2019,2.00\n2020,2.00\n", encoding="utf-8")
    before = _plan_file("baseline", segments, budgets, tmp_path / "before.json")
    after = _plan_file("cluster", segments, budgets, tmp_path / "after.json", "--algo", "schedule")
    capsys.readouterr()
    assert _compare(before, after, segments) == 0
    assert capsys.readouterr().out == SHIFTED_COMPARISON


def test_render_command(two_blob_files, tmp_path):
    segments, budgets = two_blob_files
    plan_path = tmp_path / "plan.json"
    svg_path = tmp_path / "plan.svg"
    main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            "--algo", "landmark",
            "--out", str(plan_path),
        ]
    )
    code = main(
        [
            "render",
            "--plan", str(plan_path),
            "--segments", str(segments),
            "--out", str(svg_path),
        ]
    )
    assert code == 0
    assert svg_path.read_text(encoding="utf-8").startswith("<svg")


def _plan_file(command, segments, budgets, out, *flags):
    code = main(
        [command, "--segments", str(segments), "--budgets", str(budgets), *flags,
         "--out", str(out)]
    )
    assert code == 0
    return out


def _compare(before, after, segments):
    return main(
        ["compare", "--before", str(before), "--after", str(after),
         "--segments", str(segments)]
    )


def test_compare_refuses_plans_from_other_inputs(two_blob_files, tmp_path, capsys):
    segments, budgets = two_blob_files
    moved = tmp_path / "moved.csv"
    moved.write_text(TWO_BLOB_SEGMENTS.replace("b3,100,1,", "b3,100,2,"), encoding="utf-8")
    before = _plan_file("baseline", segments, budgets, tmp_path / "before.json")
    after = _plan_file("cluster", moved, budgets, tmp_path / "after.json", "--algo", "schedule")
    digests = [
        parse_plan_document(p.read_text(encoding="utf-8")).input_digest
        for p in (before, after)
    ]
    capsys.readouterr()
    assert _compare(before, after, segments) == 2
    assert capsys.readouterr().err == (
        f"error: plans come from different inputs: input_digest {digests[0]} "
        f"vs {digests[1]}\n"
    )


def test_compare_refuses_other_budgets(two_blob_files, tmp_path, capsys):
    segments, budgets = two_blob_files
    before = _plan_file("baseline", segments, budgets, tmp_path / "before.json")
    obj = json.loads(before.read_text(encoding="utf-8"))
    # same input_digest; a cluster's budget is its schedule entry's and its
    # metrics entry's, and the totals follow
    obj["schedule"]["entries"][1]["budget"] = obj["clusters"][1]["budget"] = "4.00"
    obj["metrics"]["per_year"][1].update(budget="4.00", utilization=0.75)
    obj["metrics"]["overall"].update(total_budget="7.00", total_deviation="-1.00")
    after = tmp_path / "after.json"
    after.write_text(oracle_document_json(obj), encoding="utf-8")
    capsys.readouterr()
    assert _compare(before, after, segments) == 2
    assert capsys.readouterr().err == (
        "error: plans have different (year, budget) schedules\n"
    )


def test_compare_allows_tolerance_overrides(two_blob_files, tmp_path, capsys):
    segments, budgets = two_blob_files
    before = _plan_file("baseline", segments, budgets, tmp_path / "before.json")
    after = _plan_file(
        "cluster", segments, budgets, tmp_path / "after.json",
        "--algo", "schedule", "--low-tolerance", "1.00", "--high-tolerance", "2.00",
    )
    assert _compare(before, after, segments) == 0


@pytest.mark.parametrize("command", ["metrics", "render", "compare"])
def test_segments_from_another_seed_exit_2(command, tmp_path, capsys):
    files = {}
    for seed in (1, 2):
        files[seed] = (tmp_path / f"segments{seed}.csv", tmp_path / f"budgets{seed}.csv")
        assert main(
            ["synth", "--n", "40", "--blobs", "2", "--years", "2018:2019",
             "--seed", str(seed), "--out-segments", str(files[seed][0]),
             "--out-budgets", str(files[seed][1])]
        ) == 0
    plan = _plan_file("cluster", *files[1], tmp_path / "plan.json", "--algo", "landmark")
    first_id, first_coords, *_ = parse_plan_document(plan.read_text(encoding="utf-8")).members[0]
    other = files[2][0]
    other_segments = load_segments(other.read_text(encoding="utf-8"))
    assert {s.id: s.coords for s in other_segments}[first_id] != first_coords
    args = {
        "metrics": ["--plan", str(plan)],
        "render": ["--plan", str(plan), "--out", str(tmp_path / "plan.svg")],
        "compare": ["--before", str(plan), "--after", str(plan)],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--segments", str(other)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: segment {first_id!r} is at ") and err.count("\n") == 1
    assert not (tmp_path / "plan.svg").exists()


def _document_without_metrics():
    obj = json.loads(GOLDEN_TEXT)
    del obj["metrics"]
    return oracle_document_json(obj)


def _document_with_budget(value):
    obj = json.loads(GOLDEN_TEXT)
    obj["clusters"][0]["budget"] = value
    return oracle_document_json(obj)


@pytest.mark.parametrize("command", ["metrics", "render", "compare"])
@pytest.mark.parametrize(
    "text",
    ["[]", '{"format_version": "1"}', _document_without_metrics()]
    + [
        pytest.param(_document_with_budget(value), id=f"budget={value!r}")
        for value in ["3", "3.0", " 3.00", "3.000", "+3.00"]
    ],
)
def test_malformed_plan_document_exits_2(command, text, two_blob_files, tmp_path, capsys):
    segments, _ = two_blob_files
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(text, encoding="utf-8")
    plan_args = {
        "metrics": ["--plan", str(plan_path)],
        "render": ["--plan", str(plan_path), "--out", str(tmp_path / "plan.svg")],
        "compare": ["--before", str(plan_path), "--after", str(plan_path)],
    }[command]
    code = main([command, *plan_args, "--segments", str(segments)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: plan document") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["metrics", "render", "compare"])
def test_fractional_year_in_plan_document_exits_2(
    command, two_blob_files, tmp_path, capsys
):
    # int() would take 2018.7 as 2018, and re-emitting would change the bytes
    segments, budgets = two_blob_files
    before = _plan_file("baseline", segments, budgets, tmp_path / "before.json")
    after = _plan_file("cluster", segments, budgets, tmp_path / "after.json", "--algo", "schedule")
    original = after.read_text(encoding="utf-8")
    obj = json.loads(original)
    obj["clusters"][0]["members"][0]["scheduled_year"] = 2018.7
    after.write_text(oracle_document_json(obj), encoding="utf-8")
    args = {
        "metrics": ["--plan", str(after)],
        "render": ["--plan", str(after), "--out", str(tmp_path / "plan.svg")],
        "compare": ["--before", str(before), "--after", str(after)],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--segments", str(segments)]) == 2
    err = capsys.readouterr().err
    assert re.match("error: " + refused_at(oracle_document_json(obj), original), err)
    assert err.count("\n") == 1
    assert not (tmp_path / "plan.svg").exists()


def _golden_document(edit):
    obj = json.loads(GOLDEN_TEXT)
    edit(obj)
    return oracle_document_json(obj)


def _edit_member(**fields):
    return lambda obj: obj["clusters"][0]["members"][0].update(fields)


def _edit_utilization(obj):
    obj["metrics"]["per_year"][0]["utilization"] = 1


def _refused_by_every_reader(command, text, message, two_blob_files, tmp_path, capsys):
    segments, _ = two_blob_files
    plan = tmp_path / "plan.json"
    plan.write_text(text, encoding="utf-8")
    args = {
        "metrics": ["--plan", str(plan)],
        "render": ["--plan", str(plan), "--out", str(tmp_path / "plan.svg")],
        "compare": ["--before", str(plan), "--after", str(plan)],
    }[command]
    assert main([command, *args, "--segments", str(segments)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["budgets.csv", "plan.json", "segments.csv"]


@pytest.mark.parametrize("command", ["metrics", "render", "compare"])
@pytest.mark.parametrize(
    "edit, realized",
    [
        # each is written back as other bytes: 101.0, 1.0
        (_edit_member(coords=[101, 0]), None),
        (_edit_utilization, None),
        # the first 2018 member, moved to another year at another cost: the
        # writer derives its cluster's realized cost, which comes first
        (_edit_member(assigned_year=1999, cost_used="123.45"), "125.45"),
        (_edit_member(cost_used="123.45"), "125.45"),
    ],
    ids=["int-coords", "int-utilization", "member-year", "member-cost"],
)
def test_inconsistent_plan_document_exits_2(
    command, edit, realized, two_blob_files, tmp_path, capsys
):
    text = _golden_document(edit)
    message = refusal(text, GOLDEN_TEXT) if realized is None else (
        f"plan document line 26: expected '      \"realized_cost\": \"{realized}\",', "
        + REALIZED_2018
    )
    _refused_by_every_reader(command, text, message, two_blob_files, tmp_path, capsys)


def _edit_cluster_budget(obj):
    obj["clusters"][0]["budget"] = "30.00"


def _edit_entry_budget(obj):
    obj["schedule"]["entries"][0]["budget"] = "9.00"


def _drop_last_cluster(obj):
    del obj["clusters"][-1]


def _swap_clusters(obj):
    obj["clusters"].reverse()


@pytest.mark.parametrize("command", ["metrics", "render", "compare"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_cluster_budget,
         "line 25: expected '      \"budget\": \"3.00\",', found '      \"budget\": \"30.00\",'"),
        # the cluster's budget is derived from its entry's, and comes after it
        (_edit_entry_budget,
         "line 25: expected '      \"budget\": \"9.00\",', found '      \"budget\": \"3.00\",'"),
        (_drop_last_cluster, "line 59: expected '    },', found '    }'"),
        (_swap_clusters,
         "line 23: expected '      \"year\": 2018,', found '      \"year\": 2019,'"),
    ],
    ids=["cluster-budget", "entry-budget", "missing-cluster", "swapped-clusters"],
)
def test_cluster_must_match_its_schedule_entry(
    command, edit, message, two_blob_files, tmp_path, capsys
):
    # the clusters' and the schedule's budgets give one conservation figure
    _refused_by_every_reader(
        command, _golden_document(edit), f"plan document {message}", two_blob_files,
        tmp_path, capsys,
    )


def _drop_last_year_metrics(obj):
    del obj["metrics"]["per_year"][-1]


def _edit_year_metrics(**fields):
    return lambda obj: obj["metrics"]["per_year"][0].update(fields)


def _edit_overall(**fields):
    return lambda obj: obj["metrics"]["overall"].update(fields)


def _edit_unassigned_count(obj):
    obj["metrics"]["unassigned_count"] = 1


def _found_document(obj):
    # a 2019 entry dropped, and a 2018 budget and the deviation changed; the
    # first difference in document order is named
    _drop_last_year_metrics(obj)
    _edit_year_metrics(budget="30.00")(obj)
    _edit_overall(total_deviation="-27.00")(obj)


@pytest.mark.parametrize("command", ["metrics", "render", "compare"])
@pytest.mark.parametrize(
    "edit",
    [
        _drop_last_year_metrics,
        _edit_year_metrics(year=2017),
        _edit_year_metrics(budget="30.00"),
        _edit_year_metrics(realized_cost="2.00"),
        _edit_year_metrics(member_count=4),
        _edit_year_metrics(over_budget=True),
        _edit_overall(total_budget="6.01"),
        _edit_overall(total_cost="5.00"),
        _edit_overall(total_deviation="-27.00"),
        _edit_unassigned_count,
        _found_document,
    ],
    ids=["missing-entry", "year", "budget", "cost", "count", "over-budget", "total-budget",
         "total-cost", "deviation", "unassigned-count", "found"],
)
def test_metrics_block_must_match_the_clusters(
    command, edit, two_blob_files, tmp_path, capsys
):
    # every field here but the dispersion figures is derived from the
    # clusters, so the writer writes the golden line where the edit is
    text = _golden_document(edit)
    _refused_by_every_reader(
        command, text, refusal(text, GOLDEN_TEXT), two_blob_files, tmp_path, capsys
    )


DISPERSION = ("mean_member_distance_to_center", "mean_pairwise_distance", "weighted_mean_dispersion")
MONEY_KEYS = ("conservation_tolerance", "budget", "low_tolerance", "high_tolerance", "cost_used")


def _leaves(node, path=()):
    """Each ``(path, value)`` of a scalar below ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, path + (key,))
    else:
        yield path, node


def _is_derived(path):
    # the metrics block but its dispersion figures, each cluster's year,
    # budget and realized cost, and each member's assigned year
    return path[-1] not in DISPERSION and (
        path[0] == "metrics"
        or path[0] == "clusters" and path[-1] in ("year", "budget", "realized_cost", "assigned_year")
    )


def _respellings(path, value):
    """A primary value in other JSON forms, each read as some value of its
    field's type; a member's cost only as the same amount, since its
    cluster's realized cost, written first, is derived from it."""
    if path[-1] in MONEY_KEYS:
        return [*money_respellings(value), float(value)]
    if isinstance(value, int):
        return [str(value), float(value), [value]]
    return [[value], len(value)]


# the golden document's leaves but its version (checked up front) and its
# coordinates (primary figures that the segments CSV checks)
EDITABLE = [
    (path, value) for path, value in _leaves(json.loads(GOLDEN_TEXT))
    if path != ("format_version",) and (path[-1] in DISPERSION or not isinstance(value, float))
]


@settings(deadline=None)
@given(st.data())
def test_one_edit_is_refused_at_its_line_or_recomputed(data):
    # any other value in a derived field, or a primary value in another JSON
    # form, is refused naming its line, and metrics exits 2 writing nothing;
    # a stored dispersion figure may hold anything, as metrics recomputes it
    path, old = data.draw(st.sampled_from(EDITABLE))
    if path[-1] in DISPERSION:
        new = data.draw(st.floats())
    elif _is_derived(path):
        new = data.draw(JSON_VALUES.filter(lambda v: json.dumps(v) != json.dumps(old)))
    else:
        new = data.draw(st.sampled_from(_respellings(path, old)))
    obj = json.loads(GOLDEN_TEXT)
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    text = oracle_document_json(obj)
    with tempfile.TemporaryDirectory() as tmp:
        segments = Path(tmp) / "segments.csv"
        segments.write_text(TWO_BLOB_SEGMENTS, encoding="utf-8")
        outputs = []
        for plan_text in (GOLDEN_TEXT, text):
            plan = Path(tmp) / "plan.json"
            plan.write_text(plan_text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["metrics", "--plan", str(plan), "--segments", str(segments)])
            outputs.append((code, out.getvalue(), err.getvalue()))
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["plan.json", "segments.csv"]
    if path[-1] in DISPERSION:
        assert outputs[1] == outputs[0]
        assert outputs[0][0] == 0
        return
    with pytest.raises(PavePlanError) as excinfo:
        parse_plan_document(text)
    message = str(excinfo.value)
    if _is_derived(path):
        assert message == refusal(text, GOLDEN_TEXT)
    else:
        assert re.match(refused_at(text, GOLDEN_TEXT), message)
    assert outputs[1] == (2, "", f"error: {message}\n")


def test_stored_float_figures_are_left_to_metrics(two_blob_files, tmp_path, capsys):
    segments, _ = two_blob_files
    plan = tmp_path / "plan.json"
    plan.write_text(_golden_document(lambda obj: None), encoding="utf-8")
    assert main(["metrics", "--plan", str(plan), "--segments", str(segments)]) == 0
    expected = capsys.readouterr().out

    def edit(obj):
        _edit_year_metrics(mean_member_distance_to_center=7.5, mean_pairwise_distance=99.0)(obj)
        _edit_overall(weighted_mean_dispersion=-1.0)(obj)

    plan.write_text(_golden_document(edit), encoding="utf-8")
    assert main(["metrics", "--plan", str(plan), "--segments", str(segments)]) == 0
    assert capsys.readouterr().out == expected


def test_over_budget_singleton_plan_reads_back(tmp_path, capsys):
    segments = tmp_path / "segments.csv"
    budgets = tmp_path / "budgets.csv"
    segments.write_text("id,x,y,scheduled_year,cost\na,0,0,2018,5.00\n", encoding="utf-8")
    budgets.write_text("year,budget\n2018,3.00\n", encoding="utf-8")
    plan = _plan_file("cluster", segments, budgets, tmp_path / "plan.json", "--algo", "landmark")
    assert "over_budget_singleton" in capsys.readouterr().err
    assert main(["metrics", "--plan", str(plan), "--segments", str(segments)]) == 0
    assert json.loads(capsys.readouterr().out)["per_year"][0]["over_budget"] is True


@settings(deadline=None)
@given(
    segments_text=csv_texts("id,x,y,scheduled_year,cost", "s{i},{i},0,{year},1.00"),
    budgets_text=csv_texts("year,budget,e_l,e_h", "{year},1.00,0.00,0.00"),
    matrix_text=st.none() | csv_texts("id,Y2018,Y2019", "s{i},1.00,1.00"),
)
def test_validate_any_csv_exits_0_1_or_2(segments_text, budgets_text, matrix_text):
    with tempfile.TemporaryDirectory() as tmp:
        args = ["validate"]
        files = {"segments": segments_text, "budgets": budgets_text, "cost-matrix": matrix_text}
        for name, text in files.items():
            if text is not None:
                path = Path(tmp) / f"{name}.csv"
                path.write_text(text, encoding="utf-8")
                args += [f"--{name}", str(path)]
        assert main(args) in (0, 1, 2)


def test_verbose_is_read_when_logging(two_blob_files, monkeypatch, capsys):
    segments, budgets = two_blob_files
    args = ["validate", "--segments", str(segments), "--budgets", str(budgets)]
    monkeypatch.delenv("PAVEPLAN_VERBOSE", raising=False)
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("PAVEPLAN_VERBOSE", "1")
    assert main(args) == 0
    assert capsys.readouterr().err == "loaded 6 segments over 2 years\n"


def test_render_unknown_segment_exits_2(two_blob_files, tmp_path, capsys):
    segments, _ = two_blob_files
    obj = json.loads(GOLDEN_TEXT)
    obj["unassigned"].append(
        dict(obj["clusters"][0]["members"][0], id="zz", assigned_year=None, cost_used=None)
    )
    obj["metrics"]["unassigned_count"] = 1
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(oracle_document_json(obj), encoding="utf-8")
    code = main(
        ["render", "--plan", str(plan_path), "--segments", str(segments),
         "--out", str(tmp_path / "plan.svg")]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: plan references unknown segment 'zz'\n"


def test_cluster_svg_is_well_formed_for_markup_ids(tmp_path):
    segments = tmp_path / "segments.csv"
    budgets = tmp_path / "budgets.csv"
    svg_path = tmp_path / "plan.svg"
    segments.write_text(
        TWO_BLOB_SEGMENTS.replace("a1,", "a<b&c,"), encoding="utf-8"
    )
    budgets.write_text(TWO_BLOB_BUDGETS, encoding="utf-8")
    code = main(
        [
            "cluster",
            "--segments", str(segments),
            "--budgets", str(budgets),
            "--algo", "landmark",
            "--svg", str(svg_path),
        ]
    )
    assert code == 0
    root = ElementTree.parse(svg_path).getroot()
    titles = {t.text for t in root.iter("{http://www.w3.org/2000/svg}title")}
    assert "a<b&c" in titles


def test_cr_inside_a_quoted_id_survives_the_cli(tmp_path):
    segments = tmp_path / "segments.csv"
    budgets = tmp_path / "budgets.csv"
    renamed = [
        Segment("a\rb", s.coords, s.cost_by_year, s.scheduled_year) if s.id == "a1" else s
        for s in load_segments(TWO_BLOB_SEGMENTS)
    ]
    segments.write_text(emit_segments_csv(renamed), encoding="utf-8")
    budgets.write_text(TWO_BLOB_BUDGETS, encoding="utf-8")
    plan = _plan_file("cluster", segments, budgets, tmp_path / "plan.json", "--algo", "landmark")
    document = parse_plan_document(plan.read_text(encoding="utf-8"))
    assert "a\rb" in {sid for c in document.plan.clusters for sid in c.member_ids}
    assert main(["metrics", "--plan", str(plan), "--segments", str(segments)]) == 0


def test_crlf_inputs_give_the_same_plan_under_another_digest(two_blob_files, tmp_path):
    # the digest covers the bytes as written, line endings included
    crlf = []
    for path in two_blob_files:
        copy = tmp_path / f"crlf_{path.name}"
        copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        crlf.append(copy)
    lf_text, crlf_text = (
        _plan_file("cluster", *files, tmp_path / f"{name}.json", "--algo", "schedule")
        .read_text(encoding="utf-8")
        for name, files in (("lf", two_blob_files), ("crlf", crlf))
    )
    lf_digest = parse_plan_document(lf_text).input_digest
    crlf_digest = parse_plan_document(crlf_text).input_digest
    assert lf_digest != crlf_digest
    assert crlf_text.replace(crlf_digest, lf_digest) == lf_text


def test_cli_loads_only_the_standard_library(tmp_path):
    # xml.sax.saxutils alone once added about 3 MB of peak memory
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import paveplan.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(paveplan.cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert "paveplan.cli" in loaded
    top_level = {name.split(".")[0] for name in loaded}
    assert top_level - set(sys.stdlib_module_names) == {"paveplan"}
    assert not loaded & {
        "xml.sax", "urllib.request", "http.client", "email", "ssl", "dataclasses", "hashlib"
    }


# ids that need CSV quoting, SVG escaping or more than one UTF-8 byte, or
# hold characters XML 1.0 forbids in a document
IDS = st.text(
    alphabet=list(',"\r\n<&>é中 ab\x0b\x1f\ufffe'), min_size=1, max_size=5
).map(str.strip)
ALGOS = [["--algo", "schedule"], ["--algo", "landmark"], ["--algo", "random", "--seed", "3"]]


@st.composite
def datasets(draw):
    years = range(2018, 2018 + draw(st.integers(2, 3)))
    ids = draw(st.lists(IDS.filter(bool), min_size=1, max_size=12, unique=True))
    segments = [
        seg(
            sid,
            draw(st.tuples(st.integers(0, 20), st.integers(0, 20))),
            cost=Decimal(draw(st.integers(1, 500))) / 100,
            year=draw(st.sampled_from(years)),
        )
        for sid in ids
    ]
    entries = []
    for year in years:
        budget = draw(st.integers(100, 2000))
        entries.append(
            BudgetEntry(
                year,
                Decimal(budget) / 100,
                Decimal(draw(st.integers(0, min(budget - 1, 200)))) / 100,
                Decimal(draw(st.integers(0, 200))) / 100,
            )
        )
    return segments, BudgetSchedule(tuple(entries))


# budget-row cells: near the cent and money limits, or any amount
BUDGET_CELLS = st.sampled_from(
    ["0.00", "0.01", "1.00", "5000.00", "500000000000000000.00", "999999999999999999.00",
     "1000000000000000000.00", "-1.00", "1.001", "x"]
) | st.integers(0, 10**19).map(lambda cents: f"{cents // 100}.{cents % 100:02d}")


@st.composite
def mutated_synth_datasets(draw):
    """A small synth dataset's CSVs, with cells of its budget rows replaced."""
    years = range(2018, 2018 + draw(st.integers(1, 3)))
    n = draw(st.integers(len(years), 8))
    segments, schedule = synthesize_dataset(
        n, draw(st.integers(1, min(n, 2))), years, draw(st.integers(0, 9)),
        tolerance_fraction=draw(st.sampled_from([0.0, 0.05, 1.0])),
    )
    rows = ["year,budget,e_l,e_h"]
    for entry in schedule.entries:
        amounts = (entry.budget, entry.low_tolerance, entry.high_tolerance)
        cells = [f"{amount:.2f}" for amount in amounts]
        for column in draw(st.sets(st.integers(0, 2))):
            cells[column] = draw(BUDGET_CELLS)
        rows.append(",".join([str(entry.year), *cells]))
    tolerance = draw(st.sampled_from(["0.00", "999999999999999999.00"]))
    return emit_segments_csv(segments), "\n".join(rows) + "\n", tolerance


@settings(max_examples=60, deadline=None)
@given(mutated_synth_datasets())
@example((OUTER_CAP_SEGMENTS, OUTER_CAP_BUDGETS, "0.00"))
@example((OVERFLOW_SEGMENTS, OVERFLOW_BUDGETS, "0.00"))
def test_validate_admits_only_what_every_engine_plans(dataset):
    segments_text, budgets_text, tolerance = dataset
    with tempfile.TemporaryDirectory() as tmp:
        segments, budgets = Path(tmp) / "segments.csv", Path(tmp) / "budgets.csv"
        segments.write_text(segments_text, encoding="utf-8")
        budgets.write_text(budgets_text, encoding="utf-8")
        args = ["--segments", str(segments), "--budgets", str(budgets),
                "--conservation-tolerance", tolerance]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if main(["validate", *args]) != 0:
                return
            plans = [str(Path(tmp) / f"plan{k}.json") for k in range(len(ALGOS))]
            for algo, plan in zip(ALGOS, plans):
                assert main(["cluster", *algo, *args, "--out", plan]) == 0, algo
            # each plan written reads back through every read-side command
            svg, read = str(Path(tmp) / "plan.svg"), ["--segments", str(segments)]
            for plan in plans:
                assert main(["metrics", "--plan", plan, *read]) == 0, plan
                assert main(["render", "--plan", plan, *read, "--out", svg]) == 0, plan
                assert main(["compare", "--before", plans[0], "--after", plan, *read]) == 0, plan


@settings(max_examples=25, deadline=None)
@given(dataset=datasets(), algo=st.sampled_from(ALGOS))
def test_every_artifact_reads_back_through_the_cli(dataset, algo):
    segments, schedule = dataset
    with tempfile.TemporaryDirectory() as tmp:
        path = {
            name: str(Path(tmp) / name)
            for name in ["segments.csv", "budgets.csv", "plan.json", "svg_plan.json",
                         "plan.svg", "before.json", "render.svg"]
        }
        Path(path["segments.csv"]).write_text(emit_segments_csv(segments), encoding="utf-8")
        Path(path["budgets.csv"]).write_text(emit_budgets_csv(schedule), encoding="utf-8")
        dataset_args = ["--segments", path["segments.csv"], "--budgets", path["budgets.csv"]]
        read_args = ["--segments", path["segments.csv"]]
        commands = [
            ["cluster", *dataset_args, *algo, "--out", path["plan.json"]],
            ["cluster", *dataset_args, *algo, "--out", path["svg_plan.json"],
             "--svg", path["plan.svg"]],
            ["baseline", *dataset_args, "--out", path["before.json"]],
            ["compare", "--before", path["before.json"], "--after", path["plan.json"],
             *read_args],
            ["metrics", "--plan", path["svg_plan.json"], *read_args],
            ["render", "--plan", path["plan.json"], *read_args, "--out", path["render.svg"]],
        ]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for command in commands:
                assert main(command) == 0, command
        texts = {
            name: Path(path[name]).read_text(encoding="utf-8")
            for name in ["plan.json", "svg_plan.json", "before.json"]
        }
        assert texts["plan.json"] == texts["svg_plan.json"]
        for text in texts.values():
            document = parse_plan_document(text)
            assert sorted(document.plan.all_ids()) == sorted(s.id for s in segments)
        for name in ["plan.svg", "render.svg"]:
            ElementTree.parse(path[name])


# cells README "File formats" refuses by name: malformed, non-ASCII or
# underscored numbers, money past two decimals or the limit, non-positive
# costs, non-finite coordinates, unknown or repeated ids and years
FUZZ_CELLS = st.sampled_from([
    "", " ", "x", "nan", "inf", "-inf", "1e400", "9e307", "-9e307", "٣", "1_0", "2_018",
    "1.001", "0.00", "-1.00", "1000000000000000000.00", "2017", "2018", "2018.0", "Y2018",
    "Y2_018", "Y٢٠١٨", "id", "s0", "s1", '"a,b"', '"', "a\rb",
])
# what a plan document may hold in place of one of its tokens
FUZZ_TOKENS = st.sampled_from([
    '""', '"x"', '"s0"', '"0.00"', '"-1.00"', '"1000000000000000000.00"', '"2018"', "0", "-0",
    "1", "2018", "1.0", "1.5", "1e400", "-1e400", "NaN", "Infinity", "null", "true", "[]",
    "{}", "", ",", ":", "[", "}",
])
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[-+0-9.eE]+|true|false|null|[][{},:]')


def _mutated_csv(draw, text):
    """``text``, which holds no quoted cell, after one to three edits: a cell
    replaced, a row repeated or dropped, or a cell added to a row."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["cell"] * 4 + ["repeat", "drop", "widen"]))
        if edit == "cell":
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(FUZZ_CELLS)
        elif edit == "repeat":
            rows.insert(r, list(rows[r]))
        elif edit == "drop" and len(rows) > 1:
            del rows[r]
        elif edit == "widen":
            rows[r].append(draw(FUZZ_CELLS))
    return "".join(",".join(row) + "\n" for row in rows)


def _edited_document(draw, text):
    """``text`` with one or two of its JSON tokens replaced by another token
    of the document or a drawn one."""
    for _ in range(draw(st.integers(1, 2))):
        tokens = list(_TOKEN.finditer(text))
        token = draw(st.sampled_from(tokens))
        new = draw(FUZZ_TOKENS | st.sampled_from(tokens).map(lambda t: t.group()))
        text = text[: token.start()] + new + text[token.end() :]
    return text


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_every_command_survives_mutated_inputs(data):
    draw = data.draw
    years = range(2018, 2018 + draw(st.integers(1, 2)))
    segments, schedule_obj = synthesize_dataset(
        draw(st.integers(len(years), 6)), 1, years, draw(st.integers(0, 9)), growth_rate=0.05
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: str(Path(tmp) / name) for name in
                ["s.csv", "b.csv", "m.csv", "plan.json", "ref.json", "out.json", "out.svg"]}
        texts = {
            "s.csv": emit_segments_csv(segments),
            "b.csv": emit_budgets_csv(schedule_obj),
            "m.csv": emit_cost_matrix_csv(segments, years),
        }
        for name, text in texts.items():
            Path(path[name]).write_text(text, encoding="utf-8")
        dataset = ["--segments", path["s.csv"], "--budgets", path["b.csv"]]
        if draw(st.booleans()):
            dataset += ["--cost-matrix", path["m.csv"]]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for name in ["plan.json", "ref.json"]:
                assert main(["cluster", "--algo", "landmark", *dataset, "--out", path[name]]) == 0
            target = draw(st.sampled_from(["s.csv", "m.csv", "plan.json"]))
            text = Path(path[target]).read_text(encoding="utf-8")
            edit = _edited_document if target == "plan.json" else _mutated_csv
            Path(path[target]).write_text(edit(draw, text), encoding="utf-8")
            documents = draw(st.permutations([path["plan.json"], path["ref.json"]]))
            command = draw(st.sampled_from([
                ["validate", *dataset],
                *(["cluster", *algo, *dataset, "--out", path["out.json"],
                   "--svg", path["out.svg"]] for algo in ALGOS),
                ["baseline", *dataset, "--out", path["out.json"]],
                ["metrics", "--plan", path["plan.json"], "--segments", path["s.csv"]],
                ["render", "--plan", path["plan.json"], "--segments", path["s.csv"],
                 "--out", path["out.svg"]],
                ["compare", "--before", documents[0], "--after", documents[1],
                 "--segments", path["s.csv"]],
                ["synth", "--n", draw(st.sampled_from(["3", "3", "0", "1_0"])), "--blobs", "1",
                 "--years", draw(st.sampled_from(["2018:2019", "2018", "2019:2018", "x"])),
                 "--seed", "1", "--out-segments", path["out.json"],
                 "--out-budgets", path[draw(st.sampled_from(["out.json", "out.svg"]))]],
            ]))
            before = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
            try:
                code = main(command)
            except SystemExit as exc:  # argparse refusing an option
                code = exc.code
        assert code in (0, 1, 2), command
        if code:
            assert {p.name: p.read_bytes() for p in Path(tmp).iterdir()} == before, command
