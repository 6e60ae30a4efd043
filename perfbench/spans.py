"""In-process call tracing for the benchmark's traced run.

A :class:`Tracer` replaces every module binding of a fixed list of paveplan
functions with a wrapper that records one span per call (name, start, end,
parent span, run id) plus a few exact work counts taken from the call's
arguments and result. Spans stay in memory; :meth:`Tracer.write_jsonl`
writes them out once the run is over. The original bindings are put back
when the ``installed`` block exits, whatever happens inside it.

Only layer-boundary functions are wrapped. Per-point helpers such as
``geometry.distance`` run millions of times per plan; wrapping them would
measure the wrapper, not the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

Counter = Callable[[Mapping[str, Any], Any], dict[str, int]]


def _size(name: str, arg: str) -> Counter:
    return lambda bound, result: {name: len(bound[arg])}


def _result_size(name: str) -> Counter:
    return lambda bound, result: {name: len(result)}


def _utf8_bytes(value: str) -> int:
    return len(value.encode("utf-8"))


# (module, function) -> counter over (bound arguments, result), or None.
TRACED: dict[tuple[str, str], Counter | None] = {
    ("cli", "main"): None,
    ("synth", "synthesize_dataset"): None,
    ("io_formats", "load_segments"): _result_size("rows"),
    ("io_formats", "load_budgets"): None,
    ("io_formats", "emit_plan"): lambda b, r: {"bytes": _utf8_bytes(r)},
    ("io_formats", "parse_plan_document"): lambda b, r: {
        "bytes": _utf8_bytes(b["text"])
    },
    ("io_formats", "render_plan_svg"): lambda b, r: {"bytes": _utf8_bytes(r)},
    ("costs", "flat_cost_table"): lambda b, r: {
        "cost_cells": len(r) * len(b["years"])
    },
    ("model", "validate_dataset"): None,
    ("geometry", "furthest_point_from_cluster"): lambda b, r: {
        "center_pairs": len(b["candidates"]) * len(b["clustered"])
    },
    ("geometry", "order_by_distance"): lambda b, r: {
        "sorted_points": len(r.ordered_ids)
    },
    ("radial", "select_initial_center"): None,
    ("radial", "radial_neighbor_clustering"): _size("pool_points", "pool"),
    ("radial", "_drain_pool"): None,
    ("refine", "schedule_aware_cluster"): lambda b, r: {"members": r[0].size},
    ("refine", "build_tolerance_band"): lambda b, r: {
        "band_offered": len(r.band_ids),
        "low_members": r.low_cluster.size,
    },
    ("refine", "band_order"): _size("band_points", "band"),
    ("metrics", "compute_metrics"): None,
    ("metrics", "mean_pairwise_distance"): lambda b, r: {
        "pairs": b["cluster"].size * (b["cluster"].size - 1) // 2
    },
    ("metrics", "plan_from_schedule"): lambda b, r: {
        "medoid_pairs": sum(c.size * c.size for c in r.clusters)
    },
    ("metrics", "compare_plans"): None,
}

# Per-layer metrics in output order: name -> unit.
LAYER_METRICS: dict[str, str] = {
    "geometry.furthest_point_from_cluster.self_s": "s",
    "geometry.furthest_point_from_cluster.calls": "count",
    "geometry.center_pairs": "count",
    "geometry.order_by_distance.self_s": "s",
    "geometry.sorted_points": "count",
    "radial.select_initial_center.self_s": "s",
    "radial.radial_neighbor_clustering.self_s": "s",
    "radial.radial_neighbor_clustering.calls": "count",
    "radial.pool_points": "count",
    "radial.driver.self_s": "s",
    "refine.schedule_aware_cluster.self_s": "s",
    "refine.build_tolerance_band.self_s": "s",
    "refine.band_order.self_s": "s",
    "refine.band_points": "count",
    "refine.walks_per_cluster": "walks/cluster",
    "refine.band_admit_ratio": "ratio",
    "metrics.compute_metrics.self_s": "s",
    "metrics.compute_metrics.calls": "count",
    "metrics.mean_pairwise_distance.self_s": "s",
    "metrics.pairs": "count",
    "metrics.plan_from_schedule.self_s": "s",
    "metrics.medoid_pairs": "count",
    "metrics.compare_plans.self_s": "s",
    "io_formats.load_segments.self_s": "s",
    "io_formats.load_segments.rows": "count",
    "io_formats.load_budgets.self_s": "s",
    "io_formats.emit_plan.self_s": "s",
    "io_formats.emit_plan.bytes": "bytes",
    "io_formats.parse_plan_document.self_s": "s",
    "io_formats.parse_plan_document.bytes": "bytes",
    "io_formats.render_plan_svg.self_s": "s",
    "io_formats.render_plan_svg.bytes": "bytes",
    "costs.flat_cost_table.self_s": "s",
    "costs.cost_cells": "count",
    "model.validate_dataset.self_s": "s",
    "cli.self_s": "s",
    "synth.synthesize_dataset.self_s": "s",
    "trace.overhead_s": "s",
}

# Span names whose self time is reported under a shorter metric name.
_SELF_ALIASES = {"cli.main": "cli", "radial._drain_pool": "radial.driver"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Records spans around the traced paveplan functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=self._stack[-1] if self._stack else None,
                run=self.run,
            )
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every binding of each traced function in the loaded paveplan
        modules; restore all of them on exit."""
        for mod_name, _ in TRACED:
            importlib.import_module(f"paveplan.{mod_name}")
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None
            and (mod_name == "paveplan" or mod_name.startswith("paveplan."))
        ]
        patched: list[tuple[Any, str, Callable]] = []
        try:
            for (mod_name, attr), counter in TRACED.items():
                original = getattr(sys.modules[f"paveplan.{mod_name}"], attr)
                wrapper = self._wrap(f"{mod_name}.{attr}", original, counter)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapper)
                            patched.append((module, binding, original))
            yield self
        finally:
            for module, binding, original in reversed(patched):
                setattr(module, binding, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        ):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for one run's spans (``trace.overhead_s`` excluded)."""
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    values: dict[str, float] = {}

    def add(name: str, amount: float) -> None:
        values[name] = values.get(name, 0) + amount

    for span in spans:
        base = _SELF_ALIASES.get(span.name, span.name)
        add(f"{base}.self_s", own[span.id])
        add(f"{base}.calls", 1)
        module = span.name.split(".", 1)[0]
        for key, count in span.counts.items():
            add(f"{base}.{key}", count)
            add(f"{module}.{key}", count)

    clusters = values.get("refine.schedule_aware_cluster.calls", 0)
    walks = sum(
        1
        for span in spans
        if span.name == "radial.radial_neighbor_clustering"
        and _has_ancestor(span, "refine.schedule_aware_cluster", by_id)
    )
    values["refine.walks_per_cluster"] = walks / clusters if clusters else 0.0
    admitted = 0
    for span in spans:
        if span.name == "refine.build_tolerance_band" and span.parent is not None:
            parent = by_id[span.parent]
            if parent.name == "refine.schedule_aware_cluster":
                admitted += parent.counts["members"] - span.counts["low_members"]
    offered = values.get("refine.band_offered", 0)
    values["refine.band_admit_ratio"] = admitted / offered if offered else 0.0
    return {
        name: values.get(name, 0)
        for name in LAYER_METRICS
        if name != "trace.overhead_s"
    }


def _has_ancestor(span: Span, name: str, by_id: Mapping[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        if by_id[parent].name == name:
            return True
        parent = by_id[parent].parent
    return False
