"""Core domain types for budget-capped spatial maintenance planning.

Money is exact: every cost, budget, and tolerance is a ``Decimal`` quantized
to cents, so budget comparisons and the global conservation check never
suffer float drift. Coordinates are plain floats in projected map units.
All types are frozen; construction performs the cheap structural checks,
dataset-level rules live in :func:`validate_dataset` (plan diagnostics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from types import MappingProxyType
from typing import Iterable, Mapping, Union

CENT = Decimal("0.01")
ZERO = Decimal("0.00")

MoneyLike = Union[Decimal, int, str, float]


class PavePlanError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatchError(PavePlanError):
    """Coordinates of different dimensionality were combined."""


class UnknownSegmentError(PavePlanError):
    """A segment id could not be resolved against the dataset."""


class MismatchedInputsError(PavePlanError):
    """Artifacts combined by one command did not come from the same inputs."""


class MissingCostError(PavePlanError):
    """A segment has no cost entry for the requested fiscal year."""


class ValidationFailedError(PavePlanError):
    """Raised in strict mode with the diagnostics of a failed validation."""

    def __init__(self, issues: tuple[Diagnostic, ...]):
        super().__init__(
            f"dataset failed validation with {len(issues)} issue(s): "
            + "; ".join(issue.message for issue in issues[:5])
        )
        self.issues = issues


def money(value: MoneyLike) -> Decimal:
    """Coerce to an exact cent amount.

    Values carrying more than two fractional digits are rejected rather than
    rounded; rounding only ever happens explicitly (see cost synthesis). A
    plain ``Decimal`` that is already a cent amount is returned itself, so
    tables built from one validated cost share that one object.
    """
    if isinstance(value, Decimal):
        dec = value
    elif isinstance(value, float):
        dec = Decimal(str(value))
    else:
        try:
            dec = Decimal(value)
        except InvalidOperation as exc:
            raise ValueError(f"not a money amount: {value!r}") from exc
    try:
        quantized = dec.quantize(CENT)
    except InvalidOperation as exc:
        raise ValueError(f"not a money amount: {value!r}") from exc
    if quantized != dec:
        raise ValueError(f"money must have at most 2 decimal places, got {value!r}")
    if type(dec) is Decimal and dec.same_quantum(quantized):
        return dec
    return quantized


@dataclass(frozen=True)
class Segment:
    """One schedulable maintenance project.

    ``cost_by_year`` maps fiscal years to the money the project costs if
    executed in that year; ``scheduled_year`` is the year the upstream plan
    put it in.
    """

    id: str
    coords: tuple[float, ...]
    cost_by_year: Mapping[int, Decimal]
    scheduled_year: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("segment id must be a non-empty string")
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise ValueError(f"segment {self.id}: needs at least one coordinate")
        if not all(map(math.isfinite, coords)):
            raise ValueError(f"segment {self.id}: coordinates must be finite, got {coords}")
        table: dict[int, Decimal] = {}
        raw = cost = None
        for year in sorted(self.cost_by_year):
            # a flat table holds one object for every year: check it once
            if cost is None or self.cost_by_year[year] is not raw:
                raw = self.cost_by_year[year]
                cost = money(raw)
                if cost <= 0:
                    raise ValueError(f"segment {self.id}: cost for {year} must be positive")
            table[int(year)] = cost
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "cost_by_year", MappingProxyType(table))
        object.__setattr__(self, "scheduled_year", int(self.scheduled_year))

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def cost_at(self, year: int) -> Decimal:
        try:
            return self.cost_by_year[year]
        except KeyError:
            raise MissingCostError(
                f"segment {self.id} has no cost for year {year}"
            ) from None

    def base_cost(self) -> Decimal:
        """Cost at the initially scheduled year."""
        return self.cost_at(self.scheduled_year)


@dataclass(frozen=True)
class BudgetEntry:
    """One fiscal year's cap plus the shrink/grow tolerances around it."""

    year: int
    budget: Decimal
    low_tolerance: Decimal = ZERO
    high_tolerance: Decimal = ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "year", int(self.year))
        object.__setattr__(self, "budget", money(self.budget))
        object.__setattr__(self, "low_tolerance", money(self.low_tolerance))
        object.__setattr__(self, "high_tolerance", money(self.high_tolerance))
        if self.budget <= 0:
            raise ValueError(f"budget for {self.year} must be positive")
        if self.low_tolerance < 0 or self.high_tolerance < 0:
            raise ValueError(f"tolerances for {self.year} must be non-negative")
        if self.low_tolerance >= self.budget:
            raise ValueError(
                f"low tolerance for {self.year} must be smaller than the budget"
            )


@dataclass(frozen=True)
class BudgetSchedule:
    """Ordered fiscal years with their budgets; one cluster per entry."""

    entries: tuple[BudgetEntry, ...]
    conservation_tolerance: Decimal = ZERO

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        years = [e.year for e in entries]
        if not all(a < b for a, b in zip(years, years[1:])):
            raise ValueError(f"schedule years must be strictly increasing, got {years}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(
            self, "conservation_tolerance", money(self.conservation_tolerance)
        )
        if self.conservation_tolerance < 0:
            raise ValueError("conservation tolerance must be non-negative")

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(e.year for e in self.entries)

    def total_budget(self) -> Decimal:
        return sum((e.budget for e in self.entries), ZERO)


@dataclass(frozen=True)
class Cluster:
    """One fiscal year's project group.

    ``member_ids`` is kept in admission order. ``realized_cost`` is the sum
    of each member's cost as evaluated when the cluster was built. Empty
    clusters (schedule outlasting the data) carry ``center_id=None``.
    """

    year: int
    center_id: str | None
    member_ids: tuple[str, ...]
    realized_cost: Decimal
    budget: Decimal

    def __post_init__(self) -> None:
        members = tuple(self.member_ids)
        if len(set(members)) != len(members):
            raise ValueError(f"cluster {self.year}: duplicate member ids")
        if members:
            if self.center_id not in members:
                raise ValueError(
                    f"cluster {self.year}: center {self.center_id!r} is not a member"
                )
        elif self.center_id is not None:
            raise ValueError(f"cluster {self.year}: empty cluster cannot have a center")
        object.__setattr__(self, "member_ids", members)
        object.__setattr__(self, "realized_cost", money(self.realized_cost))
        object.__setattr__(self, "budget", money(self.budget))

    @property
    def size(self) -> int:
        return len(self.member_ids)

    def is_empty(self) -> bool:
        return not self.member_ids


@dataclass(frozen=True)
class Diagnostic:
    """Structured warning attached to a plan, or found by validation."""

    code: str
    message: str
    year: int | None = None
    segment_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment_ids", tuple(self.segment_ids))


OVER_BUDGET_SINGLETON = "over_budget_singleton"
UNASSIGNED_REMAINDER = "unassigned_remainder"
CONSERVATION_MISMATCH = "conservation_mismatch"
EMPTY_CLUSTER = "empty_cluster"


@dataclass(frozen=True)
class Plan:
    """Full output: one cluster per schedule entry plus whatever did not fit."""

    clusters: tuple[Cluster, ...]
    unassigned_ids: tuple[str, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()

    def __post_init__(self) -> None:
        clusters = tuple(self.clusters)
        unassigned = tuple(self.unassigned_ids)
        seen: set[str] = set()
        for cluster in clusters:
            for sid in cluster.member_ids:
                if sid in seen:
                    raise ValueError(f"segment {sid} appears in more than one cluster")
                seen.add(sid)
        for sid in unassigned:
            if sid in seen:
                raise ValueError(f"segment {sid} is both assigned and unassigned")
            seen.add(sid)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "unassigned_ids", unassigned)
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    def assigned_years(self) -> dict[str, int]:
        """Map of segment id to the fiscal year its cluster carries."""
        return {
            sid: cluster.year
            for cluster in self.clusters
            for sid in cluster.member_ids
        }

    def all_ids(self) -> frozenset[str]:
        ids = set(self.unassigned_ids)
        for cluster in self.clusters:
            ids.update(cluster.member_ids)
        return frozenset(ids)


def segment_lookup(
    segments: Iterable[Segment] | Mapping[str, Segment],
) -> Mapping[str, Segment]:
    """Normalize an iterable of segments (or an existing mapping) to id -> segment."""
    if isinstance(segments, Mapping):
        return segments
    return {seg.id: seg for seg in segments}


def validate_dataset(
    segments: Iterable[Segment], schedule: BudgetSchedule
) -> tuple[Diagnostic, ...]:
    """Check the dataset-level invariants; never raises, callers decide.

    One diagnostic (code, message, year if any) per violation: duplicate
    ids, inconsistent coordinate dimensionality, cost tables missing a
    schedule year, projects scheduled outside the plan horizon, and the
    global conservation check (total scheduled cost vs total budget, within
    the schedule's tolerance). An empty tuple means the dataset is admissible.
    """
    segments = list(segments)
    if not segments:
        return (Diagnostic("empty_dataset", "no segments supplied"),)
    issues: list[Diagnostic] = []

    seen: set[str] = set()
    for seg in segments:
        if seg.id in seen:
            issues.append(
                Diagnostic("duplicate_id", f"segment id {seg.id!r} appears more than once")
            )
        seen.add(seg.id)

    dimension = segments[0].dimension
    for seg in segments[1:]:
        if seg.dimension != dimension:
            issues.append(
                Diagnostic(
                    "dimension_mismatch",
                    f"segment {seg.id} has {seg.dimension} coordinates, expected {dimension}",
                )
            )

    schedule_years = set(schedule.years)
    for seg in segments:
        for year in schedule.years:
            if year not in seg.cost_by_year:
                issues.append(
                    Diagnostic(
                        "missing_cost_year",
                        f"segment {seg.id} has no cost for schedule year {year}",
                        year=year,
                    )
                )
        if seg.scheduled_year not in schedule_years:
            issues.append(
                Diagnostic(
                    "bad_scheduled_year",
                    f"segment {seg.id} is scheduled for {seg.scheduled_year}, "
                    f"which is not a plan year",
                    year=seg.scheduled_year,
                )
            )

    total_cost = ZERO
    for seg in segments:
        if seg.scheduled_year in seg.cost_by_year:
            total_cost += seg.cost_by_year[seg.scheduled_year]
    deviation = total_cost - schedule.total_budget()
    if abs(deviation) > schedule.conservation_tolerance:
        issues.append(
            Diagnostic(
                CONSERVATION_MISMATCH,
                f"total scheduled cost {total_cost} deviates from total budget "
                f"{schedule.total_budget()} by {deviation}",
            )
        )
    return tuple(issues)


def cluster_cost(
    cluster: Cluster, segments: Iterable[Segment] | Mapping[str, Segment]
) -> Decimal:
    """Recompute a cluster's cost: each member priced at the cluster's year."""
    lookup = segment_lookup(segments)
    total = ZERO
    for sid in cluster.member_ids:
        if sid not in lookup:
            raise UnknownSegmentError(f"cluster {cluster.year}: unknown member {sid!r}")
        total += lookup[sid].cost_at(cluster.year)
    return total
