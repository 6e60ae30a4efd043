#!/usr/bin/env python3
"""Repeat ``run.py`` over several seeds and report how much each metric spreads.

Run from the repository root:

    python3 perfbench/sweep.py --runs 10 --first-seed 1
    python3 perfbench/sweep.py --runs 5 --workloads plan-blobs-5y

Round ``r`` runs every chosen workload once with seed ``first_seed + r``,
as its own process; the workload order rotates every round, so slow
periods of a shared host spread over all workloads instead of landing on
one. For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the bound in
``BENCHMARK.json``. Every result line is appended to
``.perfbench_work/sweep-<start time>.jsonl``. Exits 1 if any run failed
or reported incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")

    log = ROOT / ".perfbench_work" / f"sweep-{time.strftime('%Y%m%dT%H%M%S')}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in chosen}
    ok = True
    for round_index in range(args.runs):
        seed = args.first_seed + round_index
        shift = round_index % len(chosen)
        for workload in chosen[shift:] + chosen[:shift]:
            command = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            command += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            with open(log, "a", encoding="utf-8") as out:
                out.write(
                    json.dumps({"workload": workload, "seed": seed, "lines": lines}) + "\n"
                )
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{proc.stderr}", file=sys.stderr)
                continue
            summary = " ".join(
                f"{metric}={m['value']:.4g}" for metric, m in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: {result['attempted']} reps {summary}", flush=True)
            for metric, m in result["metrics"].items():
                values[workload].setdefault(metric, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':18} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} spread  bound")
    for workload, metrics in values.items():
        for metric, samples in metrics.items():
            if len(samples) < 2:
                continue
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            bound = bounds.get(metric, 0.25)
            flag = "" if spread < bound / 3 else "  above bound/3"
            print(
                f"{workload:18} {metric:12} {median:10.4f} {q1:10.4f} {q3:10.4f}"
                f" {spread:6.3f} {bound:5.2f}{flag}"
            )
    print(f"results in {log}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
