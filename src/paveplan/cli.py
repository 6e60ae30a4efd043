"""Command-line front door: validate, cluster, metrics, compare, render, synth.

Exit codes: 0 success, 1 validation failure (strict mode or a failed
``validate``), 2 usage / I/O / parse errors and artifacts that did not come
from the same inputs. Diagnostics always go to standard error; artifacts
are only written after the whole pipeline has run, so failures leave no
partial output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain
from pathlib import Path
from typing import Mapping

from .costs import (
    apply_cost_matrix,
    conservation_report,
    flat_cost_table,
    matrix_from_segments,
)
from .io_formats import (
    CsvFormatError,
    PlanDocument,
    emit_budgets_csv,
    emit_cost_matrix_csv,
    emit_plan,
    emit_segments_csv,
    input_digest,
    load_budgets,
    load_cost_matrix,
    load_segments,
    metrics_to_obj,
    parse_plan_document,
    plan_from_document,
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
    segment_lookup,
    validate_dataset,
)
from .radial import landmark_based_radial_clustering, main_algorithm
from .refine import schedule_aware_plan
from .synth import synthesize_dataset

def _log(message: str) -> None:
    # read on every call, so a setting made after import takes effect
    if os.environ.get("PAVEPLAN_VERBOSE"):
        print(message, file=sys.stderr)


@dataclass(frozen=True)
class RunConfig:
    """Everything one clustering run needs; mirrors the CLI flags."""

    segments_path: Path
    budgets_path: Path
    algorithm: str
    cost_matrix_path: Path | None = None
    seed: int | None = None
    axis: int = 0
    low_tolerance: Decimal | None = None
    high_tolerance: Decimal | None = None
    conservation_tolerance: Decimal = Decimal("0.00")
    strict: bool = False
    skip_mode: bool = False
    plan_out: Path | None = None
    svg_out: Path | None = None


def _read(path: Path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_dataset(
    segments_path: Path,
    budgets_path: Path,
    cost_matrix_path: Path | None,
    conservation_tolerance: Decimal,
) -> tuple[list[Segment], BudgetSchedule, str]:
    segments_text = _read(segments_path)
    budgets_text = _read(budgets_path)
    matrix_text = _read(cost_matrix_path) if cost_matrix_path else ""
    segments = load_segments(segments_text)
    schedule = load_budgets(budgets_text, conservation_tolerance=conservation_tolerance)
    if cost_matrix_path:
        matrix = load_cost_matrix(matrix_text)
        segments = apply_cost_matrix(segments, matrix)
    else:
        segments = flat_cost_table(segments, schedule.years)
    digest = input_digest(segments_text, budgets_text, matrix_text)
    _log(f"loaded {len(segments)} segments over {len(schedule.entries)} years")
    return segments, schedule, digest


def _with_tolerance_overrides(
    schedule: BudgetSchedule, low: Decimal | None, high: Decimal | None
) -> BudgetSchedule:
    if low is None and high is None:
        return schedule
    entries = tuple(
        BudgetEntry(
            year=entry.year,
            budget=entry.budget,
            low_tolerance=entry.low_tolerance if low is None else low,
            high_tolerance=entry.high_tolerance if high is None else high,
        )
        for entry in schedule.entries
    )
    return BudgetSchedule(entries, schedule.conservation_tolerance)


def _print_diagnostics(plan: Plan) -> None:
    for diag in plan.diagnostics:
        where = f" [{diag.year}]" if diag.year is not None else ""
        print(f"{diag.code}{where}: {diag.message}", file=sys.stderr)


def run(config: RunConfig) -> int:
    """Execute one clustering run and write its artifacts."""
    segments, schedule, digest = _load_dataset(
        config.segments_path,
        config.budgets_path,
        config.cost_matrix_path,
        config.conservation_tolerance,
    )
    if config.strict and config.algorithm != "schedule":
        # the schedule pipeline validates, and raises in strict mode, itself
        report = validate_dataset(segments, schedule)
        if not report.ok:
            raise ValidationFailedError(report)

    if config.algorithm == "random":
        plan = main_algorithm(
            segments, schedule, config.seed, skip_mode=config.skip_mode
        )
    elif config.algorithm == "landmark":
        plan = landmark_based_radial_clustering(
            segments, schedule, config.axis, skip_mode=config.skip_mode
        )
    else:
        schedule = _with_tolerance_overrides(
            schedule, config.low_tolerance, config.high_tolerance
        )
        plan = schedule_aware_plan(
            segments,
            schedule,
            config.axis,
            strict=config.strict,
            skip_mode=config.skip_mode,
        )

    metrics = compute_metrics(plan, schedule, segments)
    plan_text = emit_plan(plan, metrics, schedule, segments, digest)
    svg_text = render_plan_svg(plan, segments) if config.svg_out else None

    _print_diagnostics(plan)
    if config.plan_out:
        Path(config.plan_out).write_text(plan_text, encoding="utf-8")
        _log(f"wrote {config.plan_out}")
    else:
        sys.stdout.write(plan_text)
    if config.svg_out and svg_text is not None:
        Path(config.svg_out).write_text(svg_text, encoding="utf-8")
        _log(f"wrote {config.svg_out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    segments, schedule, _ = _load_dataset(
        args.segments, args.budgets, args.cost_matrix, args.conservation_tolerance
    )
    report = validate_dataset(segments, schedule)
    if report.ok:
        print("dataset is admissible")
        return 0
    for issue in report.issues:
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
    if args.algo != "schedule" and args.cost_matrix is not None:
        # the ablation engines price projects at their own scheduled year, so
        # a year-dependent matrix would desync their accounting
        parser.error("--cost-matrix only applies to --algo schedule")
    config = RunConfig(
        segments_path=args.segments,
        budgets_path=args.budgets,
        cost_matrix_path=args.cost_matrix,
        algorithm=args.algo,
        seed=args.seed,
        axis=args.axis if args.axis is not None else 0,
        low_tolerance=args.low_tolerance,
        high_tolerance=args.high_tolerance,
        conservation_tolerance=args.conservation_tolerance,
        strict=args.strict,
        skip_mode=args.skip_mode,
        plan_out=args.out,
        svg_out=args.svg,
    )
    return run(config)


def _document_segments(path: Path, *documents: PlanDocument) -> Mapping[str, Segment]:
    """The segments CSV at ``path`` by id, refused unless it holds every
    member of the documents at the coordinates the documents record."""
    lookup = segment_lookup(load_segments(_read(path)))
    for document in documents:
        members = chain.from_iterable(c.members for c in document.clusters)
        for member in chain(members, document.unassigned):
            if member.id not in lookup:
                raise UnknownSegmentError(f"plan references unknown segment {member.id!r}")
            coords = lookup[member.id].coords
            if coords != member.coords:
                raise MismatchedInputsError(
                    f"segment {member.id!r} is at {list(coords)} in {path} "
                    f"but at {list(member.coords)} in the plan document"
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


def _cmd_metrics(args: argparse.Namespace) -> int:
    document = parse_plan_document(_read(args.plan))
    plan = plan_from_document(document)
    # dispersion only needs coordinates; money figures come from the document
    segments = _document_segments(args.segments, document)
    schedule = document.schedule
    metrics = compute_metrics(plan, schedule, segments)
    report = conservation_report(plan, schedule)
    obj = metrics_to_obj(metrics)
    obj["conservation"] = {
        "total_deviation": f"{report.total_deviation:.2f}",
        "within_tolerance": report.within_tolerance,
    }
    print(json.dumps(obj, indent=2))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    before_doc = parse_plan_document(_read(args.before))
    after_doc = parse_plan_document(_read(args.after))
    _check_same_inputs(before_doc, after_doc)
    before = plan_from_document(before_doc)
    after = plan_from_document(after_doc)
    segments = _document_segments(args.segments, before_doc, after_doc)
    # the years and budgets agree; only tolerance overrides may differ
    schedule = after_doc.schedule
    comparison = compare_plans(before, after, schedule, segments)
    obj = {
        "per_year": [
            {
                "year": delta.year,
                "center_delta": delta.center_delta,
                "pairwise_delta": delta.pairwise_delta,
            }
            for delta in comparison.per_year
        ],
        "overall_dispersion_delta": comparison.overall_dispersion_delta,
        "segments_moved": comparison.segments_moved,
        "year_shift_histogram": {
            str(shift): count
            for shift, count in comparison.year_shift_histogram.items()
        },
    }
    print(json.dumps(obj, indent=2))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    document = parse_plan_document(_read(args.plan))
    plan = plan_from_document(document)
    segments = _document_segments(args.segments, document)
    svg = render_plan_svg(plan, segments)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    segments, schedule, digest = _load_dataset(
        args.segments, args.budgets, args.cost_matrix, args.conservation_tolerance
    )
    plan = plan_from_schedule(segments, schedule)
    metrics = compute_metrics(plan, schedule, segments)
    text = emit_plan(plan, metrics, schedule, segments, digest)
    _print_diagnostics(plan)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _parse_years(spec: str) -> tuple[int, ...]:
    spec = spec.strip()
    if ":" in spec:
        start_text, end_text = spec.split(":", 1)
        start, end = int(start_text), int(end_text)
        if end < start:
            raise ValueError(f"year range {spec!r} is reversed")
        return tuple(range(start, end + 1))
    return tuple(int(part) for part in spec.split(","))


def _cmd_synth(args: argparse.Namespace) -> int:
    years = _parse_years(args.years)
    budgets = (
        [money(part) for part in args.budgets.split(",")] if args.budgets else None
    )
    segments, schedule = synthesize_dataset(
        args.n,
        args.blobs,
        years,
        args.seed,
        spread=args.spread,
        blob_radius=args.blob_radius,
        budgets=budgets,
        growth_rate=args.growth_rate,
        tolerance_fraction=args.tolerance_fraction,
    )
    segments_text = emit_segments_csv(segments)
    budgets_text = emit_budgets_csv(schedule)
    matrix_text = None
    if args.out_matrix:
        matrix_text = emit_cost_matrix_csv(matrix_from_segments(segments, years))
    elif args.growth_rate:
        raise PavePlanError(
            "--growth-rate produces year-dependent costs; also pass --out-matrix"
        )
    Path(args.out_segments).write_text(segments_text, encoding="utf-8")
    Path(args.out_budgets).write_text(budgets_text, encoding="utf-8")
    if matrix_text is not None:
        Path(args.out_matrix).write_text(matrix_text, encoding="utf-8")
    _log(f"wrote {args.out_segments} and {args.out_budgets}")
    return 0


def _money_arg(value: str) -> Decimal:
    try:
        return money(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paveplan",
        description="Cluster maintenance projects into per-fiscal-year spatial groups under budget caps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--segments", type=Path, required=True, help="segments CSV")
        p.add_argument("--budgets", type=Path, required=True, help="budgets CSV")
        p.add_argument("--cost-matrix", type=Path, help="per-year cost matrix CSV")
        p.add_argument(
            "--conservation-tolerance",
            type=_money_arg,
            default=Decimal("0.00"),
            help="allowed gap between total cost and total budget (default 0.00)",
        )

    p_validate = sub.add_parser("validate", help="check dataset invariants")
    add_dataset_args(p_validate)
    p_validate.set_defaults(handler=_cmd_validate)

    p_cluster = sub.add_parser("cluster", help="build a plan")
    add_dataset_args(p_cluster)
    p_cluster.add_argument(
        "--algo", choices=("random", "landmark", "schedule"), required=True
    )
    p_cluster.add_argument("--seed", type=int, help="random algorithm only")
    p_cluster.add_argument("--axis", type=int, help="initial-center axis (default 0)")
    p_cluster.add_argument(
        "--low-tolerance", type=_money_arg, help="global inner tolerance override"
    )
    p_cluster.add_argument(
        "--high-tolerance", type=_money_arg, help="global outer tolerance override"
    )
    p_cluster.add_argument("--strict", action="store_true", help="abort on validation issues")
    p_cluster.add_argument(
        "--skip-mode",
        action="store_true",
        help="keep scanning past the first non-fitting point (extension, off by default)",
    )
    p_cluster.add_argument("--out", type=Path, help="plan JSON path (stdout if omitted)")
    p_cluster.add_argument("--svg", type=Path, help="also render a schematic SVG map")
    p_cluster.set_defaults(handler=None)  # wired below; needs the parser for errors

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
    p_render.set_defaults(handler=_cmd_render)

    p_baseline = sub.add_parser(
        "baseline", help="emit the plan implied by the input schedule (for compare)"
    )
    add_dataset_args(p_baseline)
    p_baseline.add_argument("--out", type=Path, help="plan JSON path (stdout if omitted)")
    p_baseline.set_defaults(handler=_cmd_baseline)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--blobs", type=int, required=True)
    p_synth.add_argument("--years", required=True, help="e.g. 2018:2022 or 2018,2019")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--spread", type=float, default=2000.0)
    p_synth.add_argument("--blob-radius", type=float, default=50000.0)
    p_synth.add_argument("--budgets", help="comma list; omit for auto-sized budgets")
    p_synth.add_argument("--tolerance-fraction", type=float, default=0.0)
    p_synth.add_argument("--growth-rate", type=float, default=0.0)
    p_synth.add_argument("--out-segments", type=Path, required=True)
    p_synth.add_argument("--out-budgets", type=Path, required=True)
    p_synth.add_argument("--out-matrix", type=Path)
    p_synth.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "cluster":
            # cluster needs the parser itself for usage errors
            sub_parser = parser
            return _cmd_cluster(args, sub_parser)
        return args.handler(args)
    except ValidationFailedError as exc:
        for issue in exc.report.issues:
            print(f"{issue.code}: {issue.message}", file=sys.stderr)
        return 1
    except (CsvFormatError, PavePlanError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
