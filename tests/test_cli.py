import json
from decimal import Decimal
from pathlib import Path
from xml.etree import ElementTree

import pytest

import paveplan.cli
import paveplan.refine
from paveplan.cli import main
from paveplan.io_formats import parse_plan_document
from paveplan.model import validate_dataset

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
    blobs = [{m.id[0] for m in c.members} for c in document.clusters]
    assert blobs == [{"b"}, {"a"}]


def test_cluster_random_requires_seed(two_blob_files):
    segments, budgets = two_blob_files
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "cluster",
                "--segments", str(segments),
                "--budgets", str(budgets),
                "--algo", "random",
            ]
        )
    assert excinfo.value.code == 2


def test_cluster_landmark_rejects_seed(two_blob_files):
    segments, budgets = two_blob_files
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "cluster",
                "--segments", str(segments),
                "--budgets", str(budgets),
                "--algo", "landmark",
                "--seed", "1",
            ]
        )
    assert excinfo.value.code == 2


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
    monkeypatch.setattr(paveplan.refine, "validate_dataset", counting)
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
    document = parse_plan_document(plan_path.read_text(encoding="utf-8"))
    # moved projects must be priced at their cluster's year, so realized
    # costs recompute exactly from the emitted member costs
    for cluster in document.clusters:
        total = sum((m.cost_used for m in cluster.members), Decimal("0.00"))
        assert total == cluster.realized_cost


def test_matrix_rejected_for_scalar_cost_algos(two_blob_files, tmp_path):
    segments, budgets = two_blob_files
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("id,Y2018,Y2019\na1,1.00,1.00\n", encoding="utf-8")
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "cluster",
                "--segments", str(segments),
                "--budgets", str(budgets),
                "--cost-matrix", str(matrix),
                "--algo", "landmark",
            ]
        )
    assert excinfo.value.code == 2


def test_growth_rate_requires_matrix_output(tmp_path, capsys):
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


def _document_without_metrics():
    obj = json.loads(
        (Path(__file__).parent / "data" / "two_blob_plan.json").read_text(encoding="utf-8")
    )
    del obj["metrics"]
    return json.dumps(obj)


@pytest.mark.parametrize("command", ["metrics", "render", "compare"])
@pytest.mark.parametrize(
    "text", ["[]", '{"format_version": "1"}', _document_without_metrics()]
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


def test_render_unknown_segment_exits_2(two_blob_files, tmp_path, capsys):
    segments, _ = two_blob_files
    obj = json.loads(
        (Path(__file__).parent / "data" / "two_blob_plan.json").read_text(encoding="utf-8")
    )
    obj["unassigned"].append(dict(obj["clusters"][0]["members"][0], id="zz"))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(obj), encoding="utf-8")
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
