"""Every byte pin of the suite in one table: a name, a builder of the bytes,
and their sha256 (or, for the golden document, the file they must equal).
Importing it builds nothing and needs only the standard library, so
``PYTHONPATH=src python -S tests/pins.py`` checks the pins without pytest:
one line per entry, exit 1 naming each mismatch. Tier-1 runs ``test_pins.py``."""

import hashlib
import io
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from paveplan.cli import main
from paveplan.costs import flat_cost_table
from paveplan.io_formats import (
    emit_budgets_csv, emit_cost_matrix_csv, emit_plan, emit_segments_csv, input_digest,
    load_budgets, load_segments, render_plan_svg,
)
from paveplan.metrics import compute_metrics
from paveplan.model import Cluster, Plan, Segment
from paveplan.radial import landmark_based_radial_clustering, schedule_aware_plan
from paveplan.synth import synthesize_dataset

GOLDEN = Path(__file__).parent / "data" / "two_blob_plan.json"
TWO_BLOB_SEGMENTS = (
    "id,x,y,scheduled_year,cost\n"
    "a1,0,0,2018,1.00\n"
    "a2,1,0,2019,1.00\n"
    "a3,0,1,2018,1.00\n"
    "b1,100,0,2019,1.00\n"
    "b2,101,0,2018,1.00\n"
    "b3,100,1,2019,1.00\n"
)


def two_blob_plan():
    """The golden document's plan, metrics, schedule, segments and digest."""
    budgets_csv = "year,budget,e_l,e_h\n2018,3.00,0.00,0.00\n2019,3.00,0.00,0.00\n"
    schedule = load_budgets(budgets_csv)
    segments = flat_cost_table(load_segments(TWO_BLOB_SEGMENTS), schedule.years)
    plan = landmark_based_radial_clustering(segments, schedule, 0)
    metrics = compute_metrics(plan, schedule, segments)
    return plan, metrics, schedule, segments, input_digest(TWO_BLOB_SEGMENTS, budgets_csv, "")


def _cli(*commands, files=()):
    """A builder: in a new directory holding ``files`` as s.csv and b.csv, run
    ``commands``; return what the last printed or, if nothing, plan.json."""
    def build():
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as directory:
            os.chdir(directory)
            try:
                for name, text in zip(("s.csv", "b.csv"), files):
                    Path(name).write_text(text, encoding="utf-8")
                for command in commands:
                    out, err = io.StringIO(), io.StringIO()
                    try:
                        with redirect_stdout(out), redirect_stderr(err):
                            code = main(command.split())
                    except SystemExit as exc:  # argparse's refusal of an option
                        code = exc.code
                    if code:
                        raise RuntimeError(f"{command} exited {code}: {err.getvalue()}")
                return out.getvalue().encode() or Path("plan.json").read_bytes()
            finally:
                os.chdir(home)
    return build


YEARS = range(2018, 2023)
# the dataset every synth pin below plans; a --seed given after it wins
SYNTH = (
    "synth --n 300 --blobs 3 --years 2018:2022 --seed 5 --tolerance-fraction 0.05"
    " --out-segments s.csv --out-budgets b.csv"
)
PLAN = "--segments s.csv --budgets b.csv --out plan.json"
MATRIX_PLAN = f"cluster {PLAN} --algo schedule --cost-matrix m.csv"
METRICS = "metrics --plan plan.json --segments s.csv"
# 2019 holds no project, 2020 one, and one project lies past the plan
EMPTY_AND_SINGLETON = (
    "id,x,y,scheduled_year,cost\n"
    "n1,0.5,0.25,2018,3.10\n"
    "n2,7.125,-2.5,2018,4.20\n"
    "n3,3.3,9.1,2018,1.05\n"
    "n4,-4.75,1.5,2018,2.00\n"
    "solo,12.5,-7.25,2020,6.00\n"
    "late,1,1,2031,1.00\n",
    "year,budget\n2018,10.35\n2019,5.00\n2020,6.00\n",
)


def _quick_start(write, *growth_rates):
    """A builder of ``write(segments, schedule)`` on the README quick start
    (n 800, 5 blobs, 2018:2022, seed 7), the same at each growth rate."""
    def build():
        texts = {write(*synthesize_dataset(800, 5, YEARS, 7, growth_rate=rate,
                                           tolerance_fraction=0.05)) for rate in growth_rates}
        if len(texts) > 1:
            raise ValueError(f"the text differs between growth rates {growth_rates}")
        return texts.pop().encode()
    return build


def _plan_at_14400_segments():
    # the largest scale the benchmark leaves out: center search prunes on
    # math.dist's accuracy there
    segments, schedule = synthesize_dataset(14400, 11, YEARS, 1, tolerance_fraction=0.05)
    plan = schedule_aware_plan(segments, schedule)
    return emit_plan(plan, compute_metrics(plan, schedule, segments), schedule, segments).encode()


def _svg_map():
    # 11 years, so the palette wraps, one of them empty; centers that are not
    # their cluster's first member; unassigned members; ids that need
    # escaping or hold a character XML forbids; negative and -0.0 coordinates
    points, clusters, unassigned = [], [], ('d"e', "f\x0bg", "u>")
    for i, year in enumerate(range(2018, 2029)):
        if year == 2021:
            clusters.append(Cluster(year, None, (), "0.00", "1.00"))
            continue
        ids = [f"{year}-{k}" for k in range(3)] + (["a&b", "<c>"] if year == 2018 else [])
        points += [(sid, ((k - 1) * 3.5 * (i - 5), k - i * 1.25)) for k, sid in enumerate(ids)]
        clusters.append(Cluster(year, ids[i % len(ids)], tuple(ids), "3.00", "3.00"))
    points += [(sid, (-0.0, -2.5 * k)) for k, sid in enumerate(unassigned)]
    segments = [Segment(sid, coords, {2018: "1.00"}, 2018) for sid, coords in points]
    return render_plan_svg(Plan(tuple(clusters), unassigned), segments).encode()


# (name, builder, sha256 or the file to equal)
PINS = [
    # no benchmark workload plans with --cost-matrix; the discount of -0.02
    # pins the half-up rounding the other way
    ("cost-matrix-plan-growth",
     _cli(f"{SYNTH} --growth-rate 0.08 --out-matrix m.csv", MATRIX_PLAN),
     "d497046c8477519dda6f27c98578582a99ef1b5ce65549740097fab451d7fedc"),
    ("cost-matrix-plan-discount",
     _cli(f"{SYNTH} --growth-rate -0.02 --out-matrix m.csv", MATRIX_PLAN),
     "ef34d6530a608315abceed362fedc7c521177edbca6534a8aaab2cabb4aefba1"),
    # the baseline writes its medoids and dispersion figures from one pass
    # over each year's pairs; these are the bytes the two-pass code wrote
    ("baseline-plan-synth", _cli(SYNTH, f"baseline {PLAN}"),
     "9668a667ce5c34ee6bdb2f55cfe49ad27d1beb2190fef82404f24bb61a265bd3"),
    ("baseline-plan-empty-and-singleton", _cli(f"baseline {PLAN}", files=EMPTY_AND_SINGLETON),
     "18da65348bed09b50b7ac9356be89a50a3e3b26292f063cefda5fbf12ecdec61"),
    # walk paths no benchmark workload runs: the landmark engine, and skip
    # mode, which reads the nearest-first stream past the first miss
    ("walk-plan-landmark", _cli(SYNTH, f"cluster {PLAN} --algo landmark"),
     "eae2b82e0ac9f458d337f3f9afb9b1a5b0274ddfb8296a2f49e60dcdcd9f8e98"),
    ("walk-plan-random-skip", _cli(SYNTH, f"cluster {PLAN} --algo random --seed 3 --skip-mode"),
     "36f8f132606bb3f2bc3069ba4e9cc0f0f43bdbfd75395eb3f797c9d445ede02b"),
    ("walk-plan-schedule-skip", _cli(SYNTH, f"cluster {PLAN} --algo schedule --skip-mode"),
     "49b785a8195d10b31f2bbe28a7437cb269f2ac8e274e8e9d1029c225cacfc2f1"),
    # at synth seed 5 skip mode admits nothing more under landmark centers
    ("walk-plan-landmark-skip",
     _cli(f"{SYNTH} --seed 6", f"cluster {PLAN} --algo landmark --skip-mode"),
     "8045c728c094e55b8c1ea3c956c6d0df21488bf536989ab9d1b4749dc71ad786"),
    # a total deviation of -27864.18, out of the default tolerance and then
    # within a wider one; the baseline's is 0.00
    ("metrics-stdout-schedule", _cli(SYNTH, f"cluster {PLAN} --algo schedule", METRICS),
     "83c034aa9421138e3a77a25f969c62be3814c4eb7fc68ffedce87384fd411895"),
    ("metrics-stdout-schedule-tolerant",
     _cli(SYNTH, f"cluster {PLAN} --algo schedule --conservation-tolerance 100000.00", METRICS),
     "6cca89ddc82f98d00899d6478a3084b903a49515ac9ce0ea56ef156ee7253dc9"),
    ("metrics-stdout-baseline", _cli(SYNTH, f"baseline {PLAN}", METRICS),
     "34d6ea405fa5198dc8ba36e80cc828dd35fbe686b2d9727f07e71d24f845f1e1"),
    # flat and compounded by 5% a year
    ("quick-start-segments", _quick_start(lambda s, _: emit_segments_csv(s), 0.0, 0.05),
     "a2810b9663f8e81c2403c34bfe5d8871306fa690d9aedd0d1eb8416f81761175"),
    ("quick-start-budgets", _quick_start(lambda _, b: emit_budgets_csv(b), 0.0, 0.05),
     "25cd3077b337deded16d59ba846c3705f58480c58777cec41246f7c6b640b407"),
    ("quick-start-matrix-flat", _quick_start(lambda s, _: emit_cost_matrix_csv(s, YEARS), 0.0),
     "72f99766e90e60ac158d4592d5a48b223fcbef69c10506d0ad31cdb35e7b2a28"),
    ("quick-start-matrix-growth", _quick_start(lambda s, _: emit_cost_matrix_csv(s, YEARS), 0.05),
     "af8d439f962635abfba5f52f4e885971fded124b5efb8c1f9bf0587321310aa1"),
    ("plan-at-14400-segments", _plan_at_14400_segments,
     "02f04a3468c8ed33302b194f4fafb6ee4cb857535340d3ed19deca4be7149509"),
    ("svg-map", _svg_map, "87dfd0562c5f37900f44651aa7a0d271371e551b246c2adc198695fdcd8ba781"),
    # any byte-level drift in the plan format is a breaking change
    ("golden-two-blob-document", lambda: emit_plan(*two_blob_plan()).encode(), GOLDEN),
]


def mismatch(build, expected):
    """None if ``build`` returns the bytes ``expected`` names, else how they differ."""
    data = build()
    if isinstance(expected, Path):
        return None if data == expected.read_bytes() else f"differs from {expected.name}"
    digest = hashlib.sha256(data).hexdigest()
    return None if digest == expected else f"sha256 {digest}, pinned {expected}"


if __name__ == "__main__":
    failed = []
    for name, build, expected in PINS:
        try:
            problem = mismatch(build, expected)
        except Exception as exc:  # a failed build
            problem = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        print(f"FAIL {name}: {problem}" if problem else f"ok   {name}")
        if problem:
            failed.append(name)
    sys.exit(f"{len(failed)} of {len(PINS)} pins differ: {', '.join(failed)}" if failed else 0)
