"""End-to-end acceptance criteria.

Each test prints one ``[acceptance] criterion N (<name>): PASS/FAIL`` line
(run ``pytest tests/test_acceptance.py -v -s`` to see the lines on passing
runs too) and asserts the criterion at its stated tolerance. Randomized
harnesses are seeded, so results are reproducible run to run.
"""

import math
import random
import time
from decimal import Decimal

import pytest

from paveplan.cli import main
from paveplan.metrics import compare_plans, compute_metrics, plan_from_schedule
from paveplan.model import (
    BudgetSchedule,
    Cluster,
    Plan,
    validate_dataset,
)
from paveplan.radial import (
    STOP_CENTER_EXCEEDS_BUDGET,
    landmark_based_radial_clustering,
    main_algorithm,
    radial_neighbor_clustering,
)
from paveplan.refine import build_tolerance_band, schedule_aware_cluster, schedule_aware_plan
from paveplan.synth import synthesize_dataset

from helpers import random_segments, random_schedule, schedule, seg
from oracles import oracle_cluster_cost, oracle_furthest_point, oracle_prefix_cluster
from paveplan.geometry import ClusterBalls, furthest_point_from_cluster


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _instance(rng, trial):
    """Random instance mix: mostly small, a heavier tail up to n=500."""
    if trial % 100 == 0:
        n = rng.randint(200, 500)
    else:
        n = rng.randint(1, 80)
    years = tuple(range(2018, 2018 + rng.randint(1, 5)))
    segments = random_segments(rng, n, years=years)
    sched = random_schedule(rng, years, with_tolerances=True)
    return segments, sched


def _feasibility_violations(plan):
    flagged_years = {
        d.year for d in plan.diagnostics if d.code == "over_budget_singleton"
    }
    return [
        cluster.year
        for cluster in plan.clusters
        if cluster.realized_cost > cluster.budget and cluster.year not in flagged_years
    ]


def test_criterion_1_budget_feasibility():
    violations = 0
    clusters_seen = 0
    for trial in range(1000):
        rng = random.Random(10_000 + trial)
        segments, sched = _instance(rng, trial)
        plans = (
            main_algorithm(segments, sched, seed=trial),
            landmark_based_radial_clustering(segments, sched, 0),
            schedule_aware_plan(segments, sched, 0),
        )
        for plan in plans:
            clusters_seen += len(plan.clusters)
            violations += len(_feasibility_violations(plan))
    _report(
        1,
        "budget feasibility",
        violations == 0,
        f"{clusters_seen} clusters over 1000 instances x 3 algorithms, "
        f"{violations} unflagged violations",
    )


def test_criterion_2_band_nesting():
    failures = 0
    for trial in range(1000):
        rng = random.Random(20_000 + trial)
        segments = random_segments(rng, rng.randint(1, 40), years=(2018, 2019))
        center = segments[rng.randrange(len(segments))]
        cap = Decimal(rng.randint(200, 60000)) / 100
        low = Decimal(rng.randint(0, int(cap * 100) - 1)) / 100
        high = Decimal(rng.randint(0, 30000)) / 100
        band = build_tolerance_band(segments, center, cap, low, high)
        low_ids = set(band.low_cluster.member_ids)
        mid_ids = set(band.mid_cluster.member_ids)
        high_ids = set(band.high_cluster.member_ids)
        if not (low_ids <= mid_ids <= high_ids):
            failures += 1
    _report(2, "tolerance-band nesting", failures == 0, f"{failures} failures in 1000 builds")


def test_criterion_3_oracle_equivalence():
    prefix_mismatches = 0
    for trial in range(1000):
        rng = random.Random(30_000 + trial)
        n = rng.randint(2, 60) if trial % 10 else rng.randint(61, 200)
        pool = random_segments(rng, n)
        center = pool[rng.randrange(len(pool))]
        cap = Decimal(rng.randint(1, 80000)) / 100
        cluster, _ = radial_neighbor_clustering(pool, center, cap)
        if set(cluster.member_ids) != oracle_prefix_cluster(pool, center, cap):
            prefix_mismatches += 1

    furthest_mismatches = 0
    for trial in range(1000):
        rng = random.Random(40_000 + trial)
        n = rng.randint(2, 60) if trial % 10 else rng.randint(61, 200)
        segments = random_segments(rng, n)
        split = rng.randint(1, n - 1) if n > 1 else 1
        clustered = [s.coords for s in segments[:split]]
        candidates = segments[split:] or segments[:1]
        engine = furthest_point_from_cluster(candidates, ClusterBalls([clustered]))
        if engine.id != oracle_furthest_point(candidates, clustered):
            furthest_mismatches += 1

    _report(
        3,
        "oracle equivalence",
        prefix_mismatches == 0 and furthest_mismatches == 0,
        f"prefix mismatches {prefix_mismatches}, furthest mismatches "
        f"{furthest_mismatches}, 1000 trials each",
    )


def test_criterion_4_reduction_identity():
    mismatches = 0
    for trial in range(100):
        rng = random.Random(50_000 + trial)
        segments, sched = synthesize_dataset(
            rng.randint(3, 60),
            rng.randint(1, 4),
            range(2018, 2018 + rng.randint(1, 4)),
            seed=trial,
        )
        refined = schedule_aware_plan(segments, sched, 0)
        plain = landmark_based_radial_clustering(segments, sched, 0)
        if refined != plain:
            mismatches += 1
    _report(
        4,
        "reduction identity",
        mismatches == 0,
        f"{mismatches} mismatches in 100 zero-tolerance flat-cost instances",
    )


PUBLISHED_ROWS = [
    (2018, "1047131.09", "1080947.98"),
    (2019, "7481612.12", "7742091.49"),
    (2020, "6551389.79", "6751923.97"),
    (2021, "4856840.61", "4895829.16"),
    (2022, "1374971.50", "841152.51"),
]
PUBLISHED_DEVIATIONS = ["33816.89", "260479.37", "200534.18", "38988.55", "-533818.99"]


def test_criterion_5_conservation_accounting():
    ok = True
    details = []
    # auto-sized synthetic budgets conserve exactly, for flat and grown costs
    for trial, growth in ((0, 0.0), (1, 0.0), (2, 0.03), (3, -0.02)):
        segments, sched = synthesize_dataset(
            120, 4, range(2018, 2022), seed=trial, growth_rate=growth
        )
        if validate_dataset(segments, sched):
            ok = False
            details.append(f"trial {trial}: validation failed")
        plan = plan_from_schedule(segments, sched)
        # recomputed from the segments' costs, and as metrics give it
        recomputed = sum(oracle_cluster_cost(c, segments) for c in plan.clusters)
        deviations = {
            recomputed - sum(entry.budget for entry in sched.entries),
            compute_metrics(plan, sched, segments).overall.total_deviation,
        }
        if deviations != {Decimal("0.00")}:
            ok = False
            details.append(f"trial {trial}: total deviation {sorted(deviations)}")

    # the five published year-rows reproduce their per-year deviations to the
    # cent and a zero total
    years = [row[0] for row in PUBLISHED_ROWS]
    sched = BudgetSchedule(
        tuple(
            schedule([budget], start_year=year).entries[0]
            for year, budget, _ in PUBLISHED_ROWS
        )
    )
    plan = Plan(
        tuple(
            Cluster(year, f"p{year}", (f"p{year}",), Decimal(cost), Decimal(budget))
            for year, budget, cost in PUBLISHED_ROWS
        )
    )
    metrics = compute_metrics(plan, sched, ())  # singletons: no distance to measure
    deviations = [str(y.realized_cost - y.budget) for y in metrics.per_year]
    if deviations != PUBLISHED_DEVIATIONS:
        ok = False
        details.append(f"published deviations came out {deviations}")
    overall = metrics.overall
    if overall.total_deviation != Decimal("0.00") or not (
        abs(overall.total_deviation) <= sched.conservation_tolerance
    ):
        ok = False
        details.append(f"published total deviation {overall.total_deviation}")
    if overall.total_budget != Decimal("21311945.11") or overall.total_cost != Decimal(
        "21311945.11"
    ):
        ok = False
        details.append("published totals drifted")
    _report(5, "conservation accounting", ok, "; ".join(details) or "exact to the cent")


@pytest.mark.parametrize(
    "label,n,blobs",
    [("milton-scale", 800, 5), ("tyler-scale", 1000, 6)],
)
def test_criterion_6_grouping_improvement(label, n, blobs):
    regressions = 0
    worst = float("-inf")
    for trial_seed in range(50):
        segments, sched = synthesize_dataset(
            n, blobs, range(2018, 2023), seed=trial_seed, tolerance_fraction=0.05
        )
        before = plan_from_schedule(segments, sched)
        after = schedule_aware_plan(segments, sched, 0)
        delta = compare_plans(before, after, sched, segments).overall_dispersion_delta
        worst = max(worst, delta)
        if delta >= 0:
            regressions += 1
    _report(
        6,
        f"grouping improvement ({label})",
        regressions == 0,
        f"50 seeded runs, worst delta {worst:.1f}",
    )


def test_criterion_7_determinism_and_scale(tmp_path):
    artifacts = []
    elapsed = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        seg_path = base / "segments.csv"
        bud_path = base / "budgets.csv"
        plan_path = base / "plan.json"
        svg_path = base / "plan.svg"
        start = time.perf_counter()
        assert main(
            [
                "synth",
                "--n", "1800",
                "--blobs", "11",
                "--years", "2018:2022",
                "--seed", "42",
                "--tolerance-fraction", "0.05",
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
        elapsed.append(time.perf_counter() - start)
        artifacts.append(
            (
                seg_path.read_bytes(),
                bud_path.read_bytes(),
                plan_path.read_bytes(),
                svg_path.read_bytes(),
            )
        )
    identical = artifacts[0] == artifacts[1]
    fast_enough = max(elapsed) < 5.0
    _report(
        7,
        "determinism and scale",
        identical and fast_enough,
        f"1800 segments, runs took {elapsed[0]:.2f}s / {elapsed[1]:.2f}s, "
        f"byte-identical={identical}",
    )


def _year_priority_case(rng):
    """Center plus near filler; two band candidates where only one more unit
    of budget remains: the earlier-scheduled (farther) one must win."""
    years = [2018, 2019, 2020]
    angle = rng.uniform(0, 6.28)

    def at(r):
        return (r * math.cos(angle), r * math.sin(angle))

    ids = ["w", "x", "y", "z"]
    rng.shuffle(ids)
    center = seg(ids[0], (0.0, 0.0), year=2019, years=years)
    filler = seg(ids[1], at(1.0), year=2019, years=years)
    near_later = seg(ids[2], at(2.0), year=2020, years=years)
    far_earlier = seg(ids[3], at(3.0), year=2018, years=years)
    pool = [center, filler, near_later, far_earlier]
    rng.shuffle(pool)
    return pool, center, near_later, far_earlier


def test_criterion_8_year_priority():
    failures = 0
    for trial in range(100):
        rng = random.Random(80_000 + trial)
        pool, center, near_later, far_earlier = _year_priority_case(rng)
        cluster, _ = schedule_aware_cluster(
            pool, center, "3.00", "1.00", "1.00", year=2019
        )
        if far_earlier.id not in cluster.member_ids or near_later.id in cluster.member_ids:
            failures += 1
    _report(
        8,
        "year priority in the band",
        failures == 0,
        f"{failures} failures in 100 crafted instances",
    )
