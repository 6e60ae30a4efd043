#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the paveplan command line.

Run from the repository root:

    python3 perfbench/run.py --workload plan-blobs-5y --seed 1 --seconds 20 --trace 0

Each run synthesizes its inputs from ``--seed`` (``synthesize_dataset`` at
tolerance fraction 0.05, written as CSVs) and then, for ``--seconds``,
repeats the workload's commands as fresh ``python -m paveplan.cli`` child
processes, one at a time, the way a planner runs them. Every artifact of
every repetition is hashed and checked (``check.py`` for plan documents,
well-formed JSON and XML for the rest, the recorded sha256 in
``hashes.json`` where this workload and seed have one, and equal bytes
across repetitions).

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics: ``wall_s`` (median time of one repetition), ``peak_rss_mb``
(largest child ``ru_maxrss``) and ``setup_s`` (median of five set-ups).
Both times are in seconds at a reference host speed: see
:class:`SpeedProbe`. With ``--trace 1`` the commands run in this process
instead, each repetition once untraced and once under
:class:`spans.Tracer`, for at least two repetitions; the last line reports
the per-layer metrics. The untraced artifacts get the checks above, the
traced ones must equal them byte for byte, and the counts must repeat
exactly between repetitions. The line before it holds the
run context: Python version, CPU count, load average, source identity, a
fixed calibration loop timed before and after, and the raw timings.

``--record`` stores this run's artifact hashes in ``hashes.json``.
Exit status: 0 when every output checks out, 1 when one does not (the
result line says which counts failed), 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ElementTree
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from check import check_plan
from spans import LAYER_METRICS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HASHES = Path(__file__).resolve().parent / "hashes.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
TRACE_MIN_REPETITIONS = 2
PROBE_PERIOD_S = 0.045
PROBE_ROWS = 5
REFERENCE_PROBE_S = 0.001
TOLERANCE_FRACTION = 0.05
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Command:
    """One ``paveplan`` invocation. ``{i}`` in an argument is the input
    directory, ``{o}`` the output directory; ``stdout`` names the artifact
    the command's standard output is saved as."""

    argv: tuple[str, ...]
    stdout: str | None = None

    def args(self, inputs: Path, outputs: Path) -> list[str]:
        return [arg.format(i=inputs, o=outputs) for arg in self.argv]


@dataclass(frozen=True)
class Workload:
    n: int
    blobs: int
    years: range
    commands: tuple[Command, ...]
    artifacts: tuple[str, ...]
    plans: tuple[str, ...]
    setup: tuple[Command, ...] = ()
    setup_plans: tuple[str, ...] = ()


DATASET = ("--segments", "{i}/segments.csv", "--budgets", "{i}/budgets.csv")
AFTER = ("--plan", "{i}/after.json", "--segments", "{i}/segments.csv")

# Why each workload exists is in README.md next to this file.
WORKLOADS: dict[str, Workload] = {
    "plan-blobs-5y": Workload(
        7200,
        11,
        range(2018, 2023),
        commands=(
            Command(
                ("cluster", *DATASET, "--algo", "schedule")
                + ("--out", "{o}/plan.json", "--svg", "{o}/plan.svg")
            ),
        ),
        artifacts=("plan.json", "plan.svg"),
        plans=("plan.json",),
    ),
    "plan-oneblob-30y": Workload(
        1800,
        1,
        range(2018, 2048),
        commands=(
            Command(("cluster", *DATASET, "--algo", "schedule", "--out", "{o}/plan.json")),
        ),
        artifacts=("plan.json",),
        plans=("plan.json",),
    ),
    "plan-random-30y": Workload(
        14400,
        11,
        range(2018, 2048),
        commands=(
            Command(
                ("cluster", *DATASET, "--algo", "random", "--seed", "3")
                + ("--out", "{o}/plan.json", "--svg", "{o}/plan.svg")
            ),
        ),
        artifacts=("plan.json", "plan.svg"),
        plans=("plan.json",),
    ),
    "review-compare": Workload(
        7200,
        11,
        range(2018, 2023),
        setup=(
            Command(
                ("cluster", *DATASET, "--algo", "random", "--seed", "3")
                + ("--out", "{i}/after.json",)
            ),
        ),
        setup_plans=("after.json",),
        commands=(
            Command(("baseline", *DATASET, "--out", "{o}/before.json")),
            Command(
                ("compare", "--before", "{o}/before.json", "--after", "{i}/after.json")
                + ("--segments", "{i}/segments.csv"),
                stdout="compare.json",
            ),
            Command(("metrics", *AFTER), stdout="metrics.json"),
            Command(("render", *AFTER, "--out", "{o}/after.svg")),
        ),
        artifacts=("before.json", "compare.json", "metrics.json", "after.svg"),
        plans=("before.json",),
    ),
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PAVEPLAN_VERBOSE", None)
    return env


def _spawn(command: Command, inputs: Path, outputs: Path, log: Path) -> tuple[int, float, int]:
    """Run one command as a child process: exit code, wall seconds, max RSS in KiB."""
    stdout_path = outputs / command.stdout if command.stdout else Path(os.devnull)
    argv = [sys.executable, "-m", "paveplan.cli", *command.args(inputs, outputs)]
    with open(stdout_path, "wb") as out, open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=outputs)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup(workload: Workload, seed: int, inputs: Path) -> float:
    """Write the workload's inputs into ``inputs``; returns the seconds taken."""
    from paveplan import io_formats, synth

    start = time.perf_counter()
    inputs.mkdir(parents=True, exist_ok=True)
    segments, schedule = synth.synthesize_dataset(
        workload.n,
        workload.blobs,
        workload.years,
        seed,
        tolerance_fraction=TOLERANCE_FRACTION,
    )
    (inputs / "segments.csv").write_text(
        io_formats.emit_segments_csv(segments), encoding="utf-8"
    )
    (inputs / "budgets.csv").write_text(
        io_formats.emit_budgets_csv(schedule), encoding="utf-8"
    )
    for command in workload.setup:
        code, _, _ = _spawn(command, inputs, inputs, inputs / "setup.log")
        if code != 0:
            raise BenchError(f"set-up command {command.argv[0]} exited {code}")
    return time.perf_counter() - start


@dataclass
class Execution:
    """One repetition of a workload's commands."""

    wall: float = 0.0
    probe: float = 0.0
    peak_rss_kib: int = 0
    failures: list[str] = field(default_factory=list)


def execute(workload: Workload, inputs: Path, outputs: Path) -> Execution:
    """Run the workload's commands as child processes, one after another."""
    _fresh_dir(outputs)
    result = Execution()
    for command in workload.commands:
        code, wall, rss = _spawn(command, inputs, outputs, outputs / "stderr.log")
        result.wall += wall
        result.peak_rss_kib = max(result.peak_rss_kib, rss)
        if code != 0:
            result.failures.append(f"{command.argv[0]} exited {code}")
    return result


def execute_in_process(workload: Workload, inputs: Path, outputs: Path) -> Execution:
    """Run the workload's commands through ``paveplan.cli.main`` in this
    process, so that an installed :class:`Tracer` sees them."""
    import paveplan.cli as cli

    _fresh_dir(outputs)
    result = Execution()
    for command in workload.commands:
        captured = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(captured), redirect_stderr(io.StringIO()):
            code = cli.main(command.args(inputs, outputs))
        result.wall += time.perf_counter() - start
        if command.stdout:
            (outputs / command.stdout).write_text(captured.getvalue(), encoding="utf-8")
        if code != 0:
            result.failures.append(f"{command.argv[0]} returned {code}")
    return result


def load_hashes() -> dict:
    if not HASHES.is_file():
        return {}
    return json.loads(HASHES.read_text(encoding="utf-8"))


class Verifier:
    """Checks artifacts: content invariants once per distinct content, the
    recorded sha256 when there is one, and equal bytes across repetitions."""

    def __init__(self, workload: Workload, inputs: Path, expected: dict[str, str] | None):
        self.workload = workload
        self.inputs = inputs
        self.expected = expected
        self.first: dict[str, str] = {}

    def verify(self, directory: Path, names: tuple[str, ...]) -> list[str]:
        problems = []
        for name in names:
            path = directory / name
            if not path.is_file():
                problems.append(f"{name}: not written")
                continue
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if name not in self.first:
                self.first[name] = digest
                problems.extend(f"{name}: {p}" for p in self._content_problems(name, data))
            elif self.first[name] != digest:
                problems.append(f"{name}: bytes differ from the first repetition")
            if self.expected is not None and self.expected.get(name) != digest:
                problems.append(f"{name}: sha256 {digest} differs from the recorded one")
        return problems

    def _content_problems(self, name: str, data: bytes) -> list[str]:
        text = data.decode("utf-8")
        if name in self.workload.plans or name in self.workload.setup_plans:
            return check_plan(
                text,
                (self.inputs / "segments.csv").read_text(encoding="utf-8"),
                (self.inputs / "budgets.csv").read_text(encoding="utf-8"),
            )
        try:
            if name.endswith(".svg"):
                ElementTree.fromstring(text)
            else:
                json.loads(text)
        except (ElementTree.ParseError, json.JSONDecodeError) as exc:
            return [f"malformed: {exc}"]
        return []


CALIBRATION_POINTS = [(float(i % 97), float(i % 89)) for i in range(2000)]


def calibrate(rows: int = 200) -> float:
    """Seconds for a fixed pure-Python loop; tracks how fast this host is now."""
    start = time.perf_counter()
    total = 0.0
    for a in CALIBRATION_POINTS[:rows]:
        for b in CALIBRATION_POINTS:
            total += math.dist(a, b)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the host's speed on the CPU the timed children run on.

    A shared host's CPU speed drifts by a third within seconds, and a probe
    on another CPU barely follows it. So the children and this probe's
    thread share one pinned CPU: every ``PROBE_PERIOD_S`` the thread times
    a short fixed loop (about a millisecond, ~2% of the CPU). A time is
    reported at the reference speed, where that loop takes exactly
    ``REFERENCE_PROBE_S``: raw seconds × ``REFERENCE_PROBE_S`` / the mean
    loop time seen while they elapsed.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            self.samples.append((start, start + calibrate(PROBE_ROWS)))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def loop_time_between(self, start: float, end: float) -> float:
        """Mean loop time in ``[start, end]``, leaving out the slowest tenth
        of the samples (loops the child or a lock held up)."""
        inside = sorted(b - a for a, b in self.samples if start <= a and b <= end)
        if not inside:
            raise BenchError("no speed samples during a repetition")
        return statistics.fmean(inside[: max(1, len(inside) * 9 // 10)])


def source_identity() -> dict[str, str | None]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "paveplan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


@dataclass
class Outcome:
    executions: list[Execution]
    problems: list[str]
    metrics: dict[str, float]
    units: dict[str, str]
    hashes: dict[str, str]
    details: dict = field(default_factory=dict)


def measure(name: str, workload: Workload, seed: int, seconds: int, workdir: Path, record: bool):
    """Timed run: set up five times, then repeat the commands as children
    for ``seconds``, all pinned to one CPU next to a :class:`SpeedProbe`.

    Times are reported in seconds at the reference speed, where one probe
    loop takes ``REFERENCE_PROBE_S``; the raw medians go into the details.
    """
    inputs = workdir / "inputs"
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})  # children inherit it
    try:
        with SpeedProbe(cpu) as probe:
            start = time.perf_counter()
            setup_times = [setup(workload, seed, inputs) for _ in range(SETUP_REPEATS)]
            setup_probe = probe.loop_time_between(start, time.perf_counter())
            expected = None if record else load_hashes().get(name, {}).get(str(seed))
            verifier = Verifier(workload, inputs, expected)
            problems = verifier.verify(inputs, workload.setup_plans)
            executions = []
            deadline = time.perf_counter() + seconds
            while True:
                start = time.perf_counter()
                run = execute(workload, inputs, workdir / "out")
                run.probe = probe.loop_time_between(start, time.perf_counter())
                run.failures += verifier.verify(workdir / "out", workload.artifacts)
                executions.append(run)
                if time.perf_counter() >= deadline:
                    break
    finally:
        os.sched_setaffinity(0, allowed)
    raw_setup = statistics.median(setup_times)
    metrics = {
        "wall_s": statistics.median(
            run.wall * REFERENCE_PROBE_S / run.probe for run in executions
        ),
        "peak_rss_mb": max(run.peak_rss_kib for run in executions) / 1024,
        "setup_s": raw_setup * REFERENCE_PROBE_S / setup_probe,
    }
    details = {
        "raw_wall_s": statistics.median(run.wall for run in executions),
        "raw_setup_s": raw_setup,
        "setup_probe_s": setup_probe,
        "repetitions_wall_probe_s": [[run.wall, run.probe] for run in executions],
    }
    return Outcome(executions, problems, metrics, END_TO_END, verifier.first, details)


def trace(name: str, workload: Workload, seed: int, seconds: int, workdir: Path, record: bool):
    """Traced run: each repetition runs the commands in process twice, once
    untraced (the checked reference bytes) and once traced. At least
    ``TRACE_MIN_REPETITIONS`` repetitions run, so the counts always get
    compared between repetitions."""
    inputs = workdir / "inputs"
    tracer = Tracer()
    tracer.run = "setup"
    with tracer.installed():
        setup(workload, seed, inputs)
    synth_self = layer_metrics(tracer.spans)["synth.synthesize_dataset.self_s"]
    expected = None if record else load_hashes().get(name, {}).get(str(seed))
    verifier = Verifier(workload, inputs, expected)
    setup_problems = verifier.verify(inputs, workload.setup_plans)
    executions = []
    per_run: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        plain = execute_in_process(workload, inputs, workdir / "plain")
        plain.failures += verifier.verify(workdir / "plain", workload.artifacts)
        tracer.run = f"rep{len(per_run)}"
        first_span = len(tracer.spans)
        with tracer.installed():
            traced = execute_in_process(workload, inputs, workdir / "traced")
        plain.failures += traced.failures
        for artifact in workload.artifacts:
            plain_path, traced_path = workdir / "plain" / artifact, workdir / "traced" / artifact
            if not (plain_path.is_file() and traced_path.is_file()):
                continue  # already reported as a failed command or missing artifact
            if traced_path.read_bytes() != plain_path.read_bytes():
                plain.failures.append(f"{artifact}: traced bytes differ from untraced")
        values = layer_metrics(tracer.spans[first_span:])
        values["synth.synthesize_dataset.self_s"] = synth_self
        values["trace.overhead_s"] = traced.wall - plain.wall
        per_run.append(values)
        executions.append(plain)
        if time.perf_counter() >= deadline and len(per_run) >= TRACE_MIN_REPETITIONS:
            break
    tracer.write_jsonl(WORK / f"{name}-seed{seed}-spans.jsonl")
    metrics = {}
    for metric, unit in LAYER_METRICS.items():
        samples = [values[metric] for values in per_run]
        if unit == "s":
            metrics[metric] = statistics.median(samples)
        else:
            metrics[metric] = samples[0]
            if any(sample != samples[0] for sample in samples):
                setup_problems.append(f"{metric}: count changed between repetitions")
    return Outcome(executions, setup_problems, metrics, LAYER_METRICS, verifier.first)


def record_hashes(name: str, seed: int, hashes: dict[str, str]) -> None:
    table = load_hashes()
    table.setdefault(name, {})[str(seed)] = dict(sorted(hashes.items()))
    HASHES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store artifact hashes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "paveplan" / "cli.py").is_file():
        print(f"error: no paveplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import paveplan

    if Path(paveplan.__file__).resolve().parent != (SRC / "paveplan").resolve():
        print(f"error: imported paveplan from {paveplan.__file__}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    workload = WORKLOADS[args.workload]
    workdir = _fresh_dir(WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    context = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "calibration_before_s": calibrate(),
        **source_identity(),
    }
    runner = trace if args.trace else measure
    try:
        outcome = runner(
            args.workload, workload, args.seed, args.seconds, workdir, args.record
        )
    except BenchError as exc:
        print(f"error: {exc} (files kept in {workdir})", file=sys.stderr)
        return 2
    context.update(outcome.details)
    context["calibration_after_s"] = calibrate()
    context["loadavg_after"] = os.getloadavg()
    context["run_elapsed_s"] = time.perf_counter() - began
    executions = outcome.executions
    failed = sum(1 for run in executions if run.failures)
    for message in outcome.problems + [f for run in executions for f in run.failures]:
        print(f"check failed: {message}", file=sys.stderr)
    correct = failed == 0 and not outcome.problems
    if correct:
        shutil.rmtree(workdir)
        if args.record:
            record_hashes(args.workload, args.seed, outcome.hashes)
    else:
        print(f"artifacts kept in {workdir}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(executions),
                "failed": failed,
                "metrics": {
                    metric: {"value": outcome.metrics[metric], "unit": unit}
                    for metric, unit in outcome.units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
