"""Independent checker for emitted plan documents.

Reads a plan document together with the segments and budgets CSVs it was
built from and reports every broken invariant it finds. It uses only
``json`` and ``decimal`` and shares no code with paveplan, so an engine bug
cannot hide behind the same bug in the checker.

Invariants:

- partition: every input id appears exactly once across the clusters'
  members and the unassigned list, and no other id appears;
- budget: a cluster's ``realized_cost`` is at most its budget, unless an
  ``over_budget_singleton`` diagnostic for that year names its center;
- conservation: ``realized_cost`` equals the sum of the members'
  ``cost_used`` to the cent, and each ``cost_used`` is the CSV cost;
- schedule echo: each cluster's year and budget match the budgets CSV.
"""

from __future__ import annotations

import json
from decimal import Decimal

OVER_BUDGET_SINGLETON = "over_budget_singleton"


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line.strip()]
    header = [cell.strip() for cell in lines[0].split(",")]
    return header, [[cell.strip() for cell in line.split(",")] for line in lines[1:]]


def read_segment_costs(segments_csv: str) -> dict[str, Decimal]:
    """Segment id -> cost column, in input order."""
    header, rows = _table(segments_csv)
    cost = header.index("cost")
    return {row[0]: Decimal(row[cost]) for row in rows}


def read_budgets(budgets_csv: str) -> dict[int, Decimal]:
    header, rows = _table(budgets_csv)
    return {int(row[0]): Decimal(row[1]) for row in rows}


def check_plan(plan_json: str, segments_csv: str, budgets_csv: str) -> list[str]:
    """Every broken invariant of the plan document, as readable messages."""
    costs = read_segment_costs(segments_csv)
    budgets = read_budgets(budgets_csv)
    document = json.loads(plan_json)
    problems: list[str] = []

    seen: dict[str, int] = {}
    for cluster in document["clusters"]:
        for member in cluster["members"]:
            seen[member["id"]] = seen.get(member["id"], 0) + 1
    for member in document["unassigned"]:
        seen[member["id"]] = seen.get(member["id"], 0) + 1
    for sid, times in seen.items():
        if sid not in costs:
            problems.append(f"partition: unknown id {sid}")
        elif times != 1:
            problems.append(f"partition: id {sid} appears {times} times")
    missing = [sid for sid in costs if sid not in seen]
    if missing:
        problems.append(f"partition: {len(missing)} input id(s) missing, first {missing[0]}")

    flagged = {
        (diag["year"], sid)
        for diag in document["diagnostics"]
        if diag["code"] == OVER_BUDGET_SINGLETON
        for sid in diag["segment_ids"]
    }
    years = [cluster["year"] for cluster in document["clusters"]]
    if years != list(budgets):
        problems.append(f"schedule: cluster years {years} != budget years {list(budgets)}")
    for cluster in document["clusters"]:
        year = cluster["year"]
        budget = Decimal(cluster["budget"])
        realized = Decimal(cluster["realized_cost"])
        if budgets.get(year) != budget:
            problems.append(f"schedule: {year} budget {budget} != {budgets.get(year)}")
        if realized > budget and (year, cluster["center_id"]) not in flagged:
            problems.append(f"budget: {year} realizes {realized} over {budget} unflagged")
        total = Decimal("0.00")
        for member in cluster["members"]:
            used = member["cost_used"]
            if used is None or member["assigned_year"] != year:
                problems.append(f"conservation: member {member['id']} not priced in {year}")
                continue
            total += Decimal(used)
            if member["id"] in costs and Decimal(used) != costs[member["id"]]:
                problems.append(
                    f"conservation: {member['id']} used {used} != cost {costs[member['id']]}"
                )
        if total != realized:
            problems.append(f"conservation: {year} members sum {total} != realized {realized}")
    return problems
