#!/usr/bin/env python3
"""Benchmark of `cyclopadic verify` on three pinned grids.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each timed repetition is a fresh interpreter (``perfbench/child.py``) that
imports ``cyclopadic.cli`` and calls ``cli.main`` with the workload's argv,
because CLI users pay the C_n and Meixner cache fills on every run. The loop is
closed: one child at a time. The CLI keeps its default thread count; the child
gets no ``--threads`` and no ``CYCLOPADIC_THREADS`` or ``CYCLOPADIC_PURE_PYTHON``.

Every child's output must pass :func:`gate`; a child that fails it is not
timed, and all its tasks count as failed. ``--seed`` reaches the program only
as the CLI's ``--seed``, which only the junod-lemma checker of ``verify-all``
reads. Its cost depends on the seed (the exact count of multiplied term pairs
has an interquartile range of 21% of its median over seeds 0..39), so
``verify-all`` is timed at the pinned seed, whose output digest is known, and
the benchmark seed gets one extra untimed child whose output is checked by its
counts and violations.

``--trace 0`` prints the end-to-end metrics: medians over the repetitions
that fit in ``--seconds``, and set-up time over extra import-only children.
``--trace 1`` alternates untraced and traced children (see ``spans.py``) and
prints the per-layer metrics of the traced ones. Before the result, a line
``{"fingerprint": ...}`` records the environment. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

# the --seed at which verify-all's digest was recorded
PINNED_SEED = 0
# import-only children per --trace 0 run, on top of one set-up per repetition
SETUP_PROBES = 11
# every child is stopped by then, so a run ends within 180 s
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    argv: Tuple[str, ...]
    seeded: bool  # takes the benchmark seed as --seed
    tasks: int
    instances: int
    sha256: str  # of stdout; for a seeded workload, at PINNED_SEED

    def cli_argv(self, seed: int) -> list:
        return list(self.argv) + (["--seed", str(seed)] if self.seeded else [])


# Each workload keeps one layer busy; spans.py names the layers. There is no
# workload for the Meixner series layer: its Fraction arithmetic slows with the
# load on a shared 2-core VM far more than the other layers do. Across seeds,
# `verify corollary2 --primes 3,5,7,11 --n-max 22` had a wall_s spread
# (quartile distance over median) of 0.22 and 0.27 at degree cap 66 (ten runs
# each), 0.12 at cap 64 and 0.27 at cap 32 (five runs each), against a bound of
# 0.24; the workloads below stayed under 0.08. verify-all still runs that layer.
WORKLOADS = {
    # ROADMAP's pinned grid; junod-lemma's MultiPoly multiplication dominates
    "verify-all": Workload(
        ("verify", "all", "--primes", "3,5,7", "--n-max", "3", "--degree-cap", "24"),
        True, 243, 41505,
        "85ff808fc431ce111b00fc730fa335ac96db55a45c78f6d87a64fb998536fad9",
    ),
    # grevlex sort and vp of ~600k difference terms, plus C_n up to C_36
    "poly-congruence": Workload(
        ("verify", "prop-poly", "--primes", "3,5,7", "--n-max", "12",
         "--degree-cap", "36"),
        False, 96, 594706,
        "03ad4899fdea3bb909971350fafb5a5682ebe48973b7d7c99e78062437690116",
    ),
    # cycle-type enumeration and closed-form coefficients; no polynomial built
    "coeff-sweep": Workload(
        ("verify", "prop-coeff", "--primes", "3,5,7", "--n-max", "13",
         "--degree-cap", "39"),
        False, 25, 113808,
        "320ba8ee1d4fc304d4323a3efe282a0a2c5d74a38ff95c381706566a8c9f0a61",
    ),
}


def gate(workload: Workload, seed: int, returncode: int, stdout: bytes) -> Optional[str]:
    """Why one child's run is wrong, or None when it passes.

    It passes when the CLI exited 0, printed one report per pinned task with
    the pinned instance total and no violations, and, where a digest is pinned
    for this seed, printed exactly the pinned bytes.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        reports = [json.loads(line) for line in stdout.decode().splitlines()]
    except ValueError as exc:
        return f"unparsable report: {exc}"
    if len(reports) != workload.tasks:
        return f"{len(reports)} reports, expected {workload.tasks}"
    instances = sum(r.get("instances", 0) for r in reports)
    if instances != workload.instances:
        return f"{instances} instances, expected {workload.instances}"
    violated = sum(1 for r in reports if r.get("violations"))
    if violated:
        return f"{violated} reports with violations"
    if (not workload.seeded or seed == PINNED_SEED) and (
        hashlib.sha256(stdout).hexdigest() != workload.sha256
    ):
        return "stdout differs from the pinned digest"
    return None


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stats: Optional[dict]  # the child's PERFBENCH line, None if it printed none


def run_child(mode: str, argv: list, deadline: float) -> Child:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CYCLOPADIC_THREADS", "CYCLOPADIC_PURE_PYTHON")}
    env["PYTHONPATH"] = os.path.abspath("src")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, repr(spawned), mode, *argv],
            env=env, capture_output=True, timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        return Child(-1, b"", None)
    stats = None
    lines = proc.stderr.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith("PERFBENCH "):
        stats = json.loads(lines[-1][len("PERFBENCH "):])
        if stats["module"] != os.path.abspath(os.path.join("src", "cyclopadic")):
            stats = None  # not the checkout's package
    return Child(proc.returncode, proc.stdout, stats)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Run:
    """The children of one benchmark run and their tally."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.argv = workload.cli_argv(PINNED_SEED)  # of the timed children
        self.start = time.monotonic()  # of the measuring window
        self.deadline = self.start + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.fingerprint = {}  # the first child's

    def spawn(self, mode: str, argv: list) -> Child:
        got = run_child(mode, argv, self.deadline)
        if got.stats is not None and not self.fingerprint:
            self.fingerprint = got.stats["fingerprint"]
        return got

    def child(self, mode: str, seed: int = PINNED_SEED) -> Optional[dict]:
        """Stats of one passing repetition, or None."""
        got = self.spawn(mode, self.workload.cli_argv(seed))
        self.attempted += self.workload.tasks
        why = gate(self.workload, seed, got.returncode, got.stdout)
        if why is None and (got.stats is None or "wall_s" not in got.stats):
            why = "no measurements from the child"
        if why is not None:
            self.failed += self.workload.tasks
            print(f"perfbench: {mode} run failed the gate: {why}", file=sys.stderr)
            return None
        return got.stats

    def check_seed(self) -> None:
        """Run the benchmark seed's own inputs once, gated but not timed,
        then start the measuring window."""
        if self.workload.seeded and self.seed != PINNED_SEED:
            self.child("plain", self.seed)
        self.start = time.monotonic()

    def measuring(self, seconds: float, done: bool) -> bool:
        """Whether to start another repetition; ``done`` once one has passed."""
        now = time.monotonic()
        return now < self.deadline and (not done or now - self.start < seconds)


def measure_end_to_end(run: Run, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        got = run.spawn("setup", [])
        if got.returncode == 0 and got.stats is not None:
            setups.append(got.stats["setup_s"])
    run.check_seed()
    reps = []
    while run.measuring(seconds, bool(reps)):
        stats = run.child("plain")
        if stats is None:
            break
        reps.append(stats)
    print_fingerprint(run)
    if not reps or not setups:
        return {}
    setups += [r["setup_s"] for r in reps]
    wall = statistics.median(r["wall_s"] for r in reps)
    return {
        "wall_s": wall,
        "instances_per_s": run.workload.instances / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def measure_layers(run: Run, seconds: float) -> dict:
    plain, traced = [], []
    run.check_seed()
    while run.measuring(seconds, bool(plain and traced)):
        a = run.child("plain")
        b = run.child("traced")
        if a is None or b is None:
            break
        plain.append(a)
        traced.append(b)
    print_fingerprint(run)
    if not traced:
        return {}
    names = set.intersection(*(set(t["layers"]) for t in traced))
    metrics = {n: statistics.median(t["layers"][n] for t in traced) for n in names}
    metrics["cli.cpu_util"] = statistics.median(p["cpu_util"] for p in plain)
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    metrics["tasks_failed_frac"] = run.failed / run.attempted
    return metrics


def print_fingerprint(run: Run) -> None:
    fingerprint = {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "argv": [os.path.basename(sys.executable), "-m", "cyclopadic.cli", *run.argv],
        "seed_argv": run.workload.cli_argv(run.seed) if run.workload.seeded else None,
        **run.fingerprint,
    }
    print(json.dumps({"fingerprint": fingerprint}, sort_keys=True))


def load_units(trace: bool) -> dict:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cyclopadic", "cli.py")):
        print("perfbench: run from the root of a cyclopadic checkout "
              "(src/cyclopadic/cli.py not found)", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    measure = measure_layers if args.trace else measure_end_to_end
    values = measure(run, args.seconds)
    units = load_units(bool(args.trace))
    result = {
        "correct": bool(values) and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
