"""Core domain types for budget-capped spatial maintenance planning.

Money is exact: every cost, budget, and tolerance is a ``Decimal`` quantized
to cents, so budget comparisons and the global conservation check never
suffer float drift. Coordinates are plain floats in projected map units.
All types are frozen; construction performs the cheap structural checks,
dataset-level rules live in :func:`validate_dataset` (plan diagnostics).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from decimal import Decimal, InvalidOperation
from operator import is_not
from typing import Iterable, Union

CENT = Decimal("0.01")
ZERO = Decimal("0.00")
# Amounts stay below 10**18 and totals below 10**26, so a sum of up to 10**8
# amounts keeps every cent in the default 28-digit decimal context.
MONEY_LIMIT = Decimal(10) ** 18
TOTAL_LIMIT = Decimal(10) ** 26

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


def money(value: MoneyLike, limit: Decimal = MONEY_LIMIT) -> Decimal:
    """Coerce to an exact cent amount below ``limit`` in magnitude.

    Values carrying more than two fractional digits are rejected rather than
    rounded; rounding only ever happens explicitly (see cost synthesis). So
    are amounts of 10**18 or more: every sum paveplan forms then stays exact.
    Totals pass ``TOTAL_LIMIT``. Unreadable text, text that is not ASCII or
    holds an underscore (``Decimal`` reads ``٣`` and ``1_0``), NaN,
    infinities and values too long to quantize are all "not a money amount".
    A plain ``Decimal`` that is already a cent amount is returned itself.
    """
    try:
        if isinstance(value, Decimal):
            dec = value
        elif isinstance(value, float):
            dec = Decimal(str(value))
        elif isinstance(value, str) and not (value.isascii() and "_" not in value):
            raise InvalidOperation
        else:
            dec = Decimal(value)
        if not dec.is_finite():
            raise InvalidOperation
        quantized = dec.quantize(CENT)
    except InvalidOperation as exc:
        raise ValueError(f"not a money amount: {value!r}") from exc
    if quantized != dec:
        raise ValueError(f"money must have at most 2 decimal places, got {value!r}")
    if not -limit < dec < limit:
        raise ValueError(f"money must be below {limit:.0E} in magnitude, got {value!r}")
    if type(dec) is Decimal and dec.same_quantum(quantized):
        return dec
    return quantized


class CostRow(Mapping):
    """One segment's read-only year -> cost table.

    ``index`` maps each year, in ascending order, to a position in
    ``costs``, and every position is some year's. Rows share their index: a flat table maps every plan year to
    position 0 of a 1-tuple, and the rows of one cost matrix share one map
    onto each matrix row's own tuple, so no cost is copied per year.
    """

    __slots__ = ("_index", "_costs")

    def __init__(self, index: Mapping[int, int], costs: tuple[Decimal, ...]):
        self._index = index
        self._costs = costs

    def __getitem__(self, year: int) -> Decimal:
        return self._costs[self._index[year]]

    def __contains__(self, year: object) -> bool:
        return year in self._index

    def __iter__(self) -> Iterator[int]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"CostRow({dict(self)!r})"


class Record:
    """Base of the frozen value records: the fields are the ``__slots__``, in
    constructor order, set once by ``__init__``. A record equals a record of its
    type with equal fields, hashes as their tuple, refuses assignment and
    deletion, and is copied and pickled through its constructor."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


def _row_of(table: Mapping[int, MoneyLike]) -> CostRow:
    """A row of its own holding ``table``'s costs, one position per year in
    ascending order, years made ``int``."""
    pairs = sorted({int(year): cost for year, cost in table.items()}.items())
    return CostRow({year: at for at, (year, _) in enumerate(pairs)}, tuple(c for _, c in pairs))


class Segment(Record):
    """One schedulable maintenance project.

    ``cost_by_year`` maps fiscal years to the money the project costs if
    executed in that year; ``scheduled_year`` is the year the upstream plan
    put it in. It is always a :class:`CostRow`: one given is kept as it is,
    any other mapping is copied into a row of its own. Segments compare by
    value, whatever table they were built from, and are not hashable.
    """

    __slots__ = ("id", "coords", "cost_by_year", "scheduled_year")

    def __init__(
        self, id: str, coords: tuple[float, ...], cost_by_year: Mapping[int, Decimal],
        scheduled_year: int,
    ) -> None:
        if not id:
            raise ValueError("segment id must be a non-empty string")
        coords = tuple(map(float, coords))
        if not coords:
            raise ValueError(f"segment {id}: needs at least one coordinate")
        if not all(map(math.isfinite, coords)):
            raise ValueError(f"segment {id}: coordinates must be finite, got {coords}")
        row = cost_by_year if type(cost_by_year) is CostRow else _row_of(cost_by_year)
        costs = []
        for position, raw in enumerate(row._costs):
            cost = money(raw)
            if cost <= 0:
                year = next(y for y, at in row._index.items() if at == position)
                raise ValueError(f"segment {id}: cost for {year} must be positive")
            costs.append(cost)
        if any(map(is_not, costs, row._costs)):
            row = CostRow(row._index, tuple(costs))
        scheduled_year = int(scheduled_year)
        # field by field, not through _set's loop: flat_cost_table builds thousands
        set_field = object.__setattr__
        set_field(self, "id", id)
        set_field(self, "coords", coords)
        set_field(self, "cost_by_year", row)
        set_field(self, "scheduled_year", scheduled_year)

    @classmethod
    def _trusted(cls, id: str, coords: tuple, costs: CostRow, year: int) -> Segment:
        """The segment of values its caller checked as ``__init__`` would,
        built without it; the loaders check each cell once, naming its row
        and column, and ``synthesize_dataset`` makes only valid values.
        ``Segment(...)`` checks all it is given."""
        seg = object.__new__(cls)
        set_field = object.__setattr__
        set_field(seg, "id", id)
        set_field(seg, "coords", coords)
        set_field(seg, "cost_by_year", costs)
        set_field(seg, "scheduled_year", year)
        return seg

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def cost_at(self, year: int) -> Decimal:
        row = self.cost_by_year
        try:
            return row._costs[row._index[year]]
        except KeyError:
            raise MissingCostError(
                f"segment {self.id} has no cost for year {year}"
            ) from None

    def base_cost(self) -> Decimal:
        """Cost at the initially scheduled year."""
        return self.cost_at(self.scheduled_year)


class BudgetEntry(Record):
    """One fiscal year's cap plus the shrink/grow tolerances around it."""

    __slots__ = ("year", "budget", "low_tolerance", "high_tolerance")

    def __init__(
        self, year: int, budget: Decimal, low_tolerance: Decimal = ZERO,
        high_tolerance: Decimal = ZERO,
    ) -> None:
        year, budget = int(year), money(budget)
        low_tolerance, high_tolerance = money(low_tolerance), money(high_tolerance)
        if budget <= 0:
            raise ValueError(f"budget for {year} must be positive")
        if low_tolerance < 0 or high_tolerance < 0:
            raise ValueError(f"tolerances for {year} must be non-negative")
        if low_tolerance >= budget:
            raise ValueError(f"low tolerance for {year} must be smaller than the budget")
        self._set(year, budget, low_tolerance, high_tolerance)


def check_increasing_years(years: Sequence[int]) -> None:
    """Refuse a list of schedule years unless each is above the one before."""
    if not all(a < b for a, b in zip(years, years[1:])):
        raise ValueError(f"schedule years must be strictly increasing, got {list(years)}")


class BudgetSchedule(Record):
    """Ordered fiscal years with their budgets; one cluster per entry."""

    __slots__ = ("entries", "conservation_tolerance")

    def __init__(
        self, entries: tuple[BudgetEntry, ...], conservation_tolerance: Decimal = ZERO
    ) -> None:
        entries = tuple(entries)
        check_increasing_years([e.year for e in entries])
        conservation_tolerance = money(conservation_tolerance)
        if conservation_tolerance < 0:
            raise ValueError("conservation tolerance must be non-negative")
        self._set(entries, conservation_tolerance)

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(e.year for e in self.entries)

    def total_budget(self) -> Decimal:
        return sum((e.budget for e in self.entries), ZERO)


class Cluster(Record):
    """One fiscal year's project group.

    ``member_ids`` is kept in admission order. ``realized_cost`` is the sum
    of each member's cost as evaluated when the cluster was built. Empty
    clusters (schedule outlasting the data) carry ``center_id=None``.
    """

    __slots__ = ("year", "center_id", "member_ids", "realized_cost", "budget")

    def __init__(
        self, year: int, center_id: str | None, member_ids: tuple[str, ...],
        realized_cost: Decimal, budget: Decimal,
    ) -> None:
        members = tuple(member_ids)
        if len(set(members)) != len(members):
            raise ValueError(f"cluster {year}: duplicate member id {first_repeat(members)!r}")
        if members:
            if center_id not in members:
                raise ValueError(f"cluster {year}: center {center_id!r} is not a member")
        elif center_id is not None:
            raise ValueError(f"cluster {year}: empty cluster cannot have a center")
        self._set(year, center_id, members, money(realized_cost, TOTAL_LIMIT), money(budget))

    @property
    def size(self) -> int:
        return len(self.member_ids)

    def is_empty(self) -> bool:
        return not self.member_ids


class Diagnostic(Record):
    """Structured warning attached to a plan, or found by validation."""

    __slots__ = ("code", "message", "year", "segment_ids")

    def __init__(
        self, code: str, message: str, year: int | None = None, segment_ids: tuple[str, ...] = ()
    ) -> None:
        self._set(code, message, year, tuple(segment_ids))


OVER_BUDGET_SINGLETON = "over_budget_singleton"
UNASSIGNED_REMAINDER = "unassigned_remainder"
CONSERVATION_MISMATCH = "conservation_mismatch"
EMPTY_CLUSTER = "empty_cluster"


class Plan(Record):
    """Full output: one cluster per schedule entry plus whatever did not fit."""

    __slots__ = ("clusters", "unassigned_ids", "diagnostics")

    def __init__(
        self, clusters: tuple[Cluster, ...], unassigned_ids: tuple[str, ...] = (),
        diagnostics: tuple[Diagnostic, ...] = (),
    ) -> None:
        clusters = tuple(clusters)
        unassigned = tuple(unassigned_ids)
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
        self._set(clusters, unassigned, tuple(diagnostics))

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


def first_repeat(ids: Iterable[str]) -> str | None:
    """The first of ``ids`` met a second time, or None if none repeats."""
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            return sid
        seen.add(sid)
    return None


def coordinate_lookup(segments: Iterable[Segment] | Mapping) -> Mapping[str, tuple]:
    """Normalize an iterable of segments (or an id -> coordinates mapping) to
    id -> coordinates."""
    if isinstance(segments, Mapping):
        return segments
    return {seg.id: seg.coords for seg in segments}


def validate_dataset(
    segments: Iterable[Segment], schedule: BudgetSchedule
) -> tuple[Diagnostic, ...]:
    """Check the dataset-level invariants; never raises, callers decide.

    One diagnostic (code, message, year if any) per violation: duplicate
    ids, inconsistent coordinate dimensionality, cost tables missing a
    schedule year, projects scheduled outside the plan horizon, a year whose
    outer cap (budget + e_h) is not below ``MONEY_LIMIT``, distances whose
    sums may overflow floats, and the global conservation check (total
    scheduled cost vs total budget, within the schedule's tolerance). An
    empty tuple means the dataset is admissible.

    The overflow check bounds every float sum ``compute_metrics`` forms. No
    two of the ``n`` segments are farther apart than ``D``, the distance
    between the coordinate-wise lower and upper corners. A year's pairwise
    total adds at most ``n(n - 1)/2`` such distances, its center total at
    most ``n``, and the weighted dispersion sums member counts (``n`` in
    all) times means of at most ``D``. Each computed sum is within a
    relative ``(n**2 + 3)u`` of the true one (``u = 2**-53``), so each is at
    most about ``n**2/2 * D``: when ``D * n * n`` is finite, none overflows.
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
    mixed = [seg for seg in segments if seg.dimension != dimension]
    for seg in mixed:
        issues.append(
            Diagnostic(
                "dimension_mismatch",
                f"segment {seg.id} has {seg.dimension} coordinates, expected {dimension}",
            )
        )
    if not mixed:
        axes = list(zip(*(seg.coords for seg in segments)))
        span = math.dist(tuple(map(min, axes)), tuple(map(max, axes)))
        n = len(segments)
        if not math.isfinite(span * n * n):
            issues.append(
                Diagnostic(
                    "distance_overflow",
                    f"{n} segments span {span!r}: their distance sums may overflow floats",
                )
            )

    schedule_years = set(schedule.years)
    # rows share their year index, so each distinct index is checked once
    missing_by_index: dict[int, list[int]] = {}
    for seg in segments:
        index = seg.cost_by_year._index
        missing = missing_by_index.get(id(index))
        if missing is None:
            missing = [year for year in schedule.years if year not in index]
            missing_by_index[id(index)] = missing
        for year in missing:
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

    for entry in schedule.entries:
        outer = entry.budget + entry.high_tolerance
        if outer >= MONEY_LIMIT:
            issues.append(
                Diagnostic(
                    "outer_cap_too_large",
                    f"year {entry.year}: budget + e_h {outer} is not below {MONEY_LIMIT:.0E}",
                    year=entry.year,
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
