"""Command-line front door: validate, cluster, metrics, compare, render, synth.

Exit codes: 0 success, 1 validation failure (strict mode or a failed
``validate``), 2 usage / I/O / parse errors and artifacts that did not come
from the same inputs. Diagnostics always go to standard error; artifacts
are only written after the whole pipeline has run, so failures leave no
partial output files. Two outputs naming one file, or an output naming an
existing regular file the command reads, are refused before any input is
read.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import stat
import sys
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .io_formats import (
    CsvFormatError,
    PlanDocument,
    emit_budgets_csv,
    emit_cost_matrix_csv,
    emit_plan,
    emit_segments_csv,
    input_digest,
    load_budgets,
    load_coordinates,
    load_cost_matrix,
    load_segments,
    parse_int,
    parse_plan_document,
    render_plan_svg,
)
from .metrics import compare_plans, compute_metrics, plan_from_schedule
from .model import (
    BudgetEntry,
    BudgetSchedule,
    MismatchedInputsError,
    PavePlanError,
    Plan,
    Segment,
    UnknownSegmentError,
    ValidationFailedError,
    money,
    validate_dataset,
)
from .radial import landmark_based_radial_clustering, main_algorithm, schedule_aware_plan
from .synth import synthesize_dataset


def _log(message: str) -> None:
    # read on every call, so a setting made after import takes effect
    if os.environ.get("PAVEPLAN_VERBOSE"):
        print(message, file=sys.stderr)


def _read(path: Path) -> str:
    # newline="" keeps a CR inside a quoted CSV field, and the digest sees
    # the bytes as written
    with open(path, encoding="utf-8", newline="") as file:
        return file.read()


def _load_dataset(args: argparse.Namespace) -> tuple[list[Segment], BudgetSchedule, str]:
    """The segments, with cost tables, the schedule and the input digest the
    dataset flags name. The budgets are read first, so that each segment is
    priced as it is parsed; a bad segments file is still the one reported."""
    segments_text = _read(args.segments)
    budgets_text = _read(args.budgets)
    matrix_text = _read(args.cost_matrix) if args.cost_matrix else ""
    try:
        schedule = load_budgets(budgets_text, conservation_tolerance=args.conservation_tolerance)
    except CsvFormatError:
        load_coordinates(segments_text)
        raise
    if args.cost_matrix:
        segments = load_cost_matrix(matrix_text, load_segments(segments_text))
    else:
        segments = load_segments(segments_text, schedule.years)
    digest = input_digest(segments_text, budgets_text, matrix_text)
    _log(f"loaded {len(segments)} segments over {len(schedule.entries)} years")
    return segments, schedule, digest


def _with_tolerance_overrides(
    schedule: BudgetSchedule, low: Decimal | None, high: Decimal | None
) -> BudgetSchedule:
    entries = tuple(
        BudgetEntry(
            e.year, e.budget, e.low_tolerance if low is None else low,
            e.high_tolerance if high is None else high,
        )
        for e in schedule.entries
    )
    return BudgetSchedule(entries, schedule.conservation_tolerance)


def _refuse_shared_outputs(paths: Iterable[Path]) -> None:
    """Refuse two ``paths`` that resolve to one file, a symlink alias too."""
    named: dict[str, Path] = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in named:
            raise PavePlanError(f"outputs {named[real]} and {path} name the same file")
        named[real] = path


def _refuse_outputs_over_inputs(outputs: Iterable[Path], inputs: Iterable[Path]) -> None:
    """Refuse an output that resolves to an existing regular file one of
    ``inputs`` names, a symlink alias too; a pipe or a terminal may be both."""
    read = {os.path.realpath(path): path for path in inputs}
    for path in outputs:
        real = os.path.realpath(path)
        if real in read and os.path.isfile(real):
            raise PavePlanError(f"output {path} and input {read[real]} name the same file")


def _write_outputs(files: Sequence[tuple[Path, str]], stdout_text: str = "") -> None:
    """Write each ``(path, text)``, then ``stdout_text`` to standard output.

    A new or regular file is first written to a hidden sibling, and each
    sibling is renamed over its path only once all are written. So if a write
    fails, the siblings go, no new file appears and every existing file keeps
    its bytes. Any other path (``/dev/stdout``, a symlink, a pipe) is written
    in place after the renames. Two paths that resolve to one file (a
    symlink alias too) are refused before anything is written; ``main`` has
    already refused them for the commands, so here it guards other callers.
    """
    _refuse_shared_outputs(path for path, _ in files)
    staged: list[tuple[Path, Path]] = []
    in_place: list[tuple[Path, str]] = []
    try:
        for number, (path, text) in enumerate(files):
            path = Path(path)
            mode = path.lstat().st_mode if os.path.lexists(path) else None
            if mode is not None and not stat.S_ISREG(mode):
                if stat.S_ISDIR(mode):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
                in_place.append((path, text))
                continue
            sibling = path.with_name(f".{path.name}.{os.getpid()}.{number}.tmp")
            try:
                with open(sibling, "x", encoding="utf-8") as file:
                    staged.append((sibling, path))
                    # in slices: one write would hold a UTF-8 copy of the whole text
                    for start in range(0, len(text), 1 << 16):
                        file.write(text[start : start + (1 << 16)])
            except OSError as exc:
                exc.filename = str(path)  # name the output, not its sibling
                raise
            if mode is not None:
                os.chmod(sibling, stat.S_IMODE(mode))
    except BaseException:
        for sibling, _ in staged:
            sibling.unlink(missing_ok=True)
        raise
    for sibling, path in staged:
        os.replace(sibling, path)
        _log(f"wrote {path}")
    for path, text in in_place:
        path.write_text(text, encoding="utf-8")
        _log(f"wrote {path}")
    sys.stdout.write(stdout_text)


def _write_plan(
    plan: Plan,
    schedule: BudgetSchedule,
    segments: Sequence[Segment],
    digest: str,
    plan_out: Path | None,
    svg_out: Path | None = None,
) -> int:
    """Print the plan's diagnostics, then write its document, with its
    metrics, to ``plan_out`` (stdout if omitted) and its SVG map to
    ``svg_out`` if given. Nothing is written until every artifact is built."""
    metrics = compute_metrics(plan, schedule, segments)
    plan_text = emit_plan(plan, metrics, schedule, segments, digest)
    files = [(plan_out, plan_text)] if plan_out else []
    if svg_out:
        files.append((svg_out, render_plan_svg(plan, segments)))
    for diag in plan.diagnostics:
        where = f" [{diag.year}]" if diag.year is not None else ""
        print(f"{diag.code}{where}: {diag.message}", file=sys.stderr)
    _write_outputs(files, "" if plan_out else plan_text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    segments, schedule, _ = _load_dataset(args)
    issues = validate_dataset(segments, schedule)
    if not issues:
        print("dataset is admissible")
        return 0
    for issue in issues:
        print(f"{issue.code}: {issue.message}")
    return 1


def _cmd_cluster(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.algo == "random":
        if args.seed is None:
            parser.error("--seed is required with --algo random")
        if args.axis is not None:
            parser.error("--axis is not valid with --algo random")
    else:
        if args.seed is not None:
            parser.error(f"--seed is not valid with --algo {args.algo}")
    if args.algo != "schedule" and (
        args.low_tolerance is not None or args.high_tolerance is not None
    ):
        parser.error("--low-tolerance/--high-tolerance only apply to --algo schedule")
    segments, schedule, digest = _load_dataset(args)
    if args.strict and args.algo != "schedule":
        # the schedule pipeline validates, and raises in strict mode, itself
        issues = validate_dataset(segments, schedule)
        if issues:
            raise ValidationFailedError(issues)
    axis = 0 if args.axis is None else args.axis
    if args.algo == "random":
        plan = main_algorithm(segments, schedule, args.seed, skip_mode=args.skip_mode)
    elif args.algo == "landmark":
        plan = landmark_based_radial_clustering(
            segments, schedule, axis, skip_mode=args.skip_mode
        )
    else:
        schedule = _with_tolerance_overrides(
            schedule, args.low_tolerance, args.high_tolerance
        )
        plan = schedule_aware_plan(
            segments, schedule, axis, strict=args.strict, skip_mode=args.skip_mode
        )
    return _write_plan(plan, schedule, segments, digest, args.out, args.svg)


def _document_coordinates(path: Path, *documents: PlanDocument) -> dict[str, tuple]:
    """The segments CSV at ``path`` as id -> coordinates, refused unless it
    holds every member of the documents at the coordinates they record."""
    lookup = load_coordinates(_read(path))
    for document in documents:
        for sid, recorded, *_ in document.members:
            coords = lookup.get(sid)
            if coords is None:
                raise UnknownSegmentError(f"plan references unknown segment {sid!r}")
            if coords != recorded:
                raise MismatchedInputsError(
                    f"segment {sid!r} is at {list(coords)} in {path} "
                    f"but at {list(recorded)} in the plan document"
                )
    return lookup


def _check_same_inputs(before: PlanDocument, after: PlanDocument) -> None:
    """Refuse two plans built from different inputs; tolerance overrides are
    flags, not inputs, so they may differ."""
    if before.input_digest != after.input_digest:
        raise MismatchedInputsError(
            f"plans come from different inputs: input_digest {before.input_digest} "
            f"vs {after.input_digest}"
        )
    if [(e.year, e.budget) for e in before.schedule.entries] != [
        (e.year, e.budget) for e in after.schedule.entries
    ]:
        raise MismatchedInputsError("plans have different (year, budget) schedules")


def _json_value(value: object) -> object:
    """A value json cannot write: a money amount as a "0.00" string, a
    read-only mapping as a dict, a record as the object of its fields."""
    if isinstance(value, Decimal):
        return f"{value:.2f}"
    if isinstance(value, Mapping):
        return dict(value)
    return dict(zip(value.__slots__, value._fields()))


def _cmd_metrics(args: argparse.Namespace) -> int:
    document = parse_plan_document(_read(args.plan))
    # dispersion only needs coordinates; money figures come from the document
    coordinates = _document_coordinates(args.segments, document)
    schedule = document.schedule
    metrics = compute_metrics(document.plan, schedule, coordinates)
    obj = _json_value(metrics)
    # the document's clusters match its schedule entries, so this is the
    # realized cost minus the schedule's total budget
    deviation = metrics.overall.total_deviation
    obj["conservation"] = {
        "total_deviation": f"{deviation:.2f}",
        "within_tolerance": abs(deviation) <= schedule.conservation_tolerance,
    }
    print(json.dumps(obj, indent=2, default=_json_value))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    before_doc = parse_plan_document(_read(args.before))
    after_doc = parse_plan_document(_read(args.after))
    _check_same_inputs(before_doc, after_doc)
    coordinates = _document_coordinates(args.segments, before_doc, after_doc)
    # the years and budgets agree; only tolerance overrides may differ
    schedule = after_doc.schedule
    comparison = compare_plans(before_doc.plan, after_doc.plan, schedule, coordinates)
    print(json.dumps(comparison, indent=2, default=_json_value))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    document = parse_plan_document(_read(args.plan))
    coordinates = _document_coordinates(args.segments, document)
    _write_outputs([(args.out, render_plan_svg(document.plan, coordinates))])
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    segments, schedule, digest = _load_dataset(args)
    plan = plan_from_schedule(segments, schedule)
    return _write_plan(plan, schedule, segments, digest, args.out)


def _parse_years(spec: str) -> Sequence[int]:
    """The years ``--years`` names: ``2018:2022`` (both ends in, as a ``range``,
    so a refused long span is never built) or ``2018,2019``."""
    try:
        if ":" not in spec:
            return tuple(map(parse_int, spec.split(",")))
        start, end = map(parse_int, spec.split(":"))
    except ValueError:
        raise ValueError(f"--years {spec!r} is not a year list or range") from None
    if end < start:
        raise ValueError(f"--years {spec!r} is a reversed range")
    return range(start, end + 1)


def _cmd_synth(args: argparse.Namespace) -> int:
    years = _parse_years(args.years)
    if args.growth_rate and not args.out_matrix:
        raise PavePlanError(
            "--growth-rate produces year-dependent costs; also pass --out-matrix"
        )
    segments, schedule = synthesize_dataset(
        args.n, args.blobs, years, args.seed,
        growth_rate=args.growth_rate, tolerance_fraction=args.tolerance_fraction,
    )
    files = [
        (args.out_segments, emit_segments_csv(segments)),
        (args.out_budgets, emit_budgets_csv(schedule)),
    ]
    if args.out_matrix:
        files.append((args.out_matrix, emit_cost_matrix_csv(segments, years)))
    _write_outputs(files)
    return 0


def _option(convert):
    """An argparse type: ``convert``, its ``ValueError`` the option's error."""

    def option(value: str):
        try:
            return convert(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return option


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paveplan",
        description="Cluster maintenance projects into per-fiscal-year spatial groups under budget caps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    int_arg, money_arg = _option(parse_int), _option(money)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--segments", type=Path, required=True, help="segments CSV")
        p.add_argument("--budgets", type=Path, required=True, help="budgets CSV")
        p.add_argument("--cost-matrix", type=Path, help="per-year cost matrix CSV")
        p.add_argument(
            "--conservation-tolerance",
            type=money_arg,
            default=Decimal("0.00"),
            help="allowed gap between total cost and total budget (default 0.00)",
        )
        p.set_defaults(inputs=("segments", "budgets", "cost_matrix"))

    p_validate = sub.add_parser("validate", help="check dataset invariants")
    add_dataset_args(p_validate)
    p_validate.set_defaults(handler=_cmd_validate)

    p_cluster = sub.add_parser("cluster", help="build a plan")
    add_dataset_args(p_cluster)
    p_cluster.add_argument(
        "--algo", choices=("random", "landmark", "schedule"), required=True
    )
    p_cluster.add_argument("--seed", type=int_arg, help="random algorithm only")
    p_cluster.add_argument("--axis", type=int_arg, help="initial-center axis (default 0)")
    p_cluster.add_argument(
        "--low-tolerance", type=money_arg, help="global inner tolerance override"
    )
    p_cluster.add_argument(
        "--high-tolerance", type=money_arg, help="global outer tolerance override"
    )
    p_cluster.add_argument("--strict", action="store_true", help="abort on validation issues")
    p_cluster.add_argument(
        "--skip-mode",
        action="store_true",
        help="keep scanning past the first non-fitting point (extension, off by default)",
    )
    p_cluster.add_argument("--out", type=Path, help="plan JSON path (stdout if omitted)")
    p_cluster.add_argument("--svg", type=Path, help="also render a schematic SVG map")
    p_cluster.set_defaults(handler=partial(_cmd_cluster, parser=parser), outputs=("out", "svg"))

    p_metrics = sub.add_parser("metrics", help="recompute metrics for a plan document")
    p_metrics.add_argument("--plan", type=Path, required=True)
    p_metrics.add_argument("--segments", type=Path, required=True)
    p_metrics.set_defaults(handler=_cmd_metrics)

    p_compare = sub.add_parser("compare", help="compare two plan documents")
    p_compare.add_argument("--before", type=Path, required=True)
    p_compare.add_argument("--after", type=Path, required=True)
    p_compare.add_argument("--segments", type=Path, required=True)
    p_compare.set_defaults(handler=_cmd_compare)

    p_render = sub.add_parser("render", help="render a plan document to SVG")
    p_render.add_argument("--plan", type=Path, required=True)
    p_render.add_argument("--segments", type=Path, required=True)
    p_render.add_argument("--out", type=Path, required=True)
    p_render.set_defaults(handler=_cmd_render, inputs=("plan", "segments"), outputs=("out",))

    p_baseline = sub.add_parser(
        "baseline", help="emit the plan implied by the input schedule (for compare)"
    )
    add_dataset_args(p_baseline)
    p_baseline.add_argument("--out", type=Path, help="plan JSON path (stdout if omitted)")
    p_baseline.set_defaults(handler=_cmd_baseline, outputs=("out",))

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--n", type=int_arg, required=True)
    p_synth.add_argument("--blobs", type=int_arg, required=True)
    p_synth.add_argument("--years", required=True, help="e.g. 2018:2022 or 2018,2019")
    p_synth.add_argument("--seed", type=int_arg, required=True)
    p_synth.add_argument("--tolerance-fraction", type=float, default=0.0)
    p_synth.add_argument("--growth-rate", type=float, default=0.0)
    p_synth.add_argument("--out-segments", type=Path, required=True)
    p_synth.add_argument("--out-budgets", type=Path, required=True)
    p_synth.add_argument("--out-matrix", type=Path)
    p_synth.set_defaults(handler=_cmd_synth, outputs=("out_segments", "out_budgets", "out_matrix"))

    return parser


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # a command makes no reference cycles, so a collection finds none
    try:
        args = build_parser().parse_args(argv)  # argparse's exits restore it too
        # from the argument paths alone: a refused run reads and prints nothing else
        named = vars(args)
        outputs = [named[name] for name in getattr(args, "outputs", ()) if named[name]]
        _refuse_shared_outputs(outputs)
        inputs = (named[name] for name in getattr(args, "inputs", ()) if named[name])
        _refuse_outputs_over_inputs(outputs, inputs)
        return args.handler(args)
    except ValidationFailedError as exc:
        for issue in exc.issues:
            print(f"{issue.code}: {issue.message}", file=sys.stderr)
        return 1
    except (CsvFormatError, PavePlanError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
