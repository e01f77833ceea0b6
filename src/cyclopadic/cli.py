"""Command-line front end.

Two subcommands:

* ``compute`` -- print one object (cycle indicator, a single coefficient,
  a Meixner polynomial) as canonical JSON or text.
* ``verify`` -- run checker sweeps over a (primes, n, r) grid and stream one
  newline-delimited JSON report per (checker, p, n, r) task.

``CHECKER_TABLE`` has one row per checker. The ``verify`` choices, ``verify
all``, the p = 2 handling and the size guard all read it. The guard runs
before any task is built. It refuses a grid in which a checker sized by p(N)
reaches an N with more than 100,000 cycle types, in which a Meixner checker
builds a polynomial of degree over 100, or in which another checker's largest
n passes 1000 (junod-lemma's trial count is not bounded).

Exit codes: 0 all checks passed, 1 at least one violation, 2 usage error,
a refused grid included.

Each task is exact, CPU-bound and independent, so ``verify`` runs up to
``--threads`` of them at once (default ``os.cpu_count()``) in worker processes
forked from the CLI; where the platform cannot fork, or only one worker would
run, the tasks run serially in-process. Report emission is ordered by
parameter sort regardless of completion order, so output is byte-identical
for any ``--threads`` value.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from types import ModuleType
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import congruences as cg, meixner as mx
from .cycle_index import CycleType, coefficient, cycle_indicator, partition_count
from .padic import PadicContext, is_prime
from .reports import Mutation

# `compute cycle-index N` refuses N whose C_N has more terms than this (C_N has
# p(N) terms); p(45) = 89,134 is the largest admitted, and C_45 takes a few
# seconds and about 150 MB with the pure-Python kernel. `verify` refuses a grid
# in which a checker sized by p(N) would reach such an N. The tests and the
# benchmark grids reach at most N = 39 (p(39) = 31,185).
MAX_CYCLE_INDEX_TERMS = 100_000

# `verify` refuses a grid in which another checker's largest n (or m) is over
# this. binomial-lift, gamma-ratio and remark1 grow about as n^2.5: at n = 1000
# one instance takes 0.3 to 11 s for p = 3 to 7 on a 2-core VM, like C_45
# above. The acceptance module lifts binomials to n = 200, and the CLI tests
# stay under 500. junod-lemma's trials are not bounded: they are one task
# whose memory does not grow with them, and 1000 of them take 0.2 s.
MAX_SCALAR_SIZE = 1000

# `verify` refuses a grid in which a Meixner checker builds a Q_d of degree d
# over this: corollary2 and meixner-qstar-q build degree np, meixner-qp degree
# p. Q_d comes from an exact rational series whose cost grows about as d^3, and
# whose cache may grow to almost twice the largest degree asked for: on a 2-core
# VM Q_100 takes 2 s and Q_198 14 s. The acceptance module reaches np = 66.
MAX_MEIXNER_DEGREE = 100


@dataclass
class SweepSpec:
    checker: str
    primes: List[int]
    n_max: int = 4
    r_range: Optional[Tuple[int, int]] = None
    degree_cap: int = 24
    seed: int = 0
    threads: int = 1
    fmt: str = "json"
    allow_p2: bool = False
    timing: bool = False
    trials: int = 500
    mutation: Optional[Mutation] = None


class UsageError(Exception):
    pass


class Checker(NamedTuple):
    """A checker: ``module.function(*args, ctx, mutation)`` at each grid point."""

    name: str
    module: ModuleType
    function: str  # looked up in module when the tasks are built
    grid: str  # the (n, r) of its tasks at p, see _grid
    args: str  # the leading arguments, among n, r, trials and seed
    size: str  # its largest instance: "p(N)" at N = r + np, degree "np" or
    # "p", or n, m or trials
    p2: str = "advisory"  # at p = 2: "advisory", "asserted", or "odd" (no task)


# One row per checker, in report order (tasks sort by checker name first).
CHECKER_TABLE = [
    Checker("binomial-lift", cg, "report_binomial_lift", "n", "n", "n", "asserted"),
    Checker("carlitz-coeff", cg, "check_carlitz_coeff", "np", "n", "p(N)"),
    Checker("carlitz-poly", cg, "check_carlitz_poly", "rnp0", "r n", "p(N)"),
    Checker("corollary1", cg, "check_corollary1", "rnp1", "r n", "p(N)"),
    Checker("corollary2", mx, "check_corollary2", "np", "n", "np", "odd"),
    Checker("gamma-congruence", cg, "report_gamma_congruence", "cap", "n", "m", "odd"),
    Checker("gamma-identity", cg, "report_gamma_identity", "n", "n", "m", "asserted"),
    Checker("gamma-ratio", cg, "check_formula_gamma_ratio", "n", "n", "n", "asserted"),
    Checker("junod-lemma", cg, "check_junod_lemma", "once", "trials seed", "trials",
            "asserted"),
    Checker("meixner-qp", mx, "check_junod_qp", "once", "", "p", "odd"),
    Checker("meixner-qstar-q", mx, "check_junod_qstar_q", "np", "n", "np", "odd"),
    Checker("prop-coeff", cg, "check_prop_coeff", "np", "n", "p(N)"),
    Checker("prop-poly", cg, "check_prop_poly", "rnp0", "r n", "p(N)"),
    Checker("remark1", cg, "check_remark1", "rnp1", "r n", "n"),
    Checker("wilson-sharpness", cg, "check_wilson_sharpness", "pn", "n", "n", "odd"),
]
CHECKERS = [row.name for row in CHECKER_TABLE] + ["all"]


def _grid(spec: SweepSpec, row: Checker, p: int) -> Tuple[range, Callable]:
    """The n of row's sweep at p, and the r at each n.

    "once" is one task at n = 0, "n" is n = 1..n_max, "np" keeps those with
    np <= degree cap, "cap" is 1..degree cap // p, "pn" is p, 2p, .., p*n_max;
    r is 0. "rnp0" and "rnp1" take r from 0 or 1 to p - 1, within --r-range,
    with r + np <= degree cap, so their n stop where the smallest r passes it.
    """
    cap = spec.degree_cap
    if row.grid.startswith("rnp"):
        lo, hi = spec.r_range or (0, p - 1)
        lo, hi = max(lo, int(row.grid[3:])), min(hi, p - 1)
        ns = range(1, min(spec.n_max, (cap - lo) // p) + 1)
        return ns, lambda n: range(lo, min(hi, cap - n * p) + 1)
    return {
        "once": range(1),
        "n": range(1, spec.n_max + 1),
        "np": range(1, min(spec.n_max, cap // p) + 1),
        "cap": range(1, cap // p + 1),
        "pn": range(p, p * spec.n_max + 1, p),
    }[row.grid], lambda n: range(1)


def _rows(spec: SweepSpec) -> List[Checker]:
    rows = [row for row in CHECKER_TABLE if spec.checker in (row.name, "all")]
    if not rows:
        raise UsageError(f"unknown checker {spec.checker!r}")
    return rows


def _primes(spec: SweepSpec, row: Checker) -> List[int]:
    return [p for p in spec.primes if p != 2 or row.p2 != "odd"]


def _largest(spec: SweepSpec, row: Checker, p: int) -> int:
    """The N = r + np, degree np or p, n or m of row's largest instance at p.

    0 for no task.
    """
    ns, r_of = _grid(spec, row, p)
    rs = r_of(ns[-1]) if ns else ()
    if not rs:
        return 0
    n, r = ns[-1], rs[-1]
    return {"p(N)": r + n * p, "np": n * p, "p": p}.get(row.size, n)


def _check_sizes(spec: SweepSpec) -> None:
    """Refuse a grid whose largest instance of some checker is over its limit."""
    for row in _rows(spec):
        if row.size == "trials":
            continue
        big = max((_largest(spec, row, p) for p in _primes(spec, row)), default=0)
        if row.size != "p(N)":
            limit = MAX_MEIXNER_DEGREE if row.size in ("np", "p") else MAX_SCALAR_SIZE
            if big > limit:
                raise UsageError(f"{row.name} reaches {row.size} = {big}, over "
                                 f"the limit of {limit}")
        elif (terms := partition_count(big)) > MAX_CYCLE_INDEX_TERMS:
            raise UsageError(
                f"{row.name} reaches N = {big}, and S_{big} has p({big}) = "
                f"{terms} cycle types, over the limit of {MAX_CYCLE_INDEX_TERMS}"
            )


def build_all_tasks(spec: SweepSpec):
    """(sort key, thunk, advisory) per task, sorted; a refused grid builds none."""
    _check_sizes(spec)
    tasks = []
    for row in _rows(spec):
        fn = getattr(row.module, row.function)
        for p in _primes(spec, row):
            ctx = PadicContext(p)
            ns, r_of = _grid(spec, row, p)
            for n in ns:
                for r in r_of(n):
                    values = dict(n=n, r=r, trials=spec.trials, seed=spec.seed)
                    args = [values[a] for a in row.args.split()]
                    thunk = partial(fn, *args, ctx, spec.mutation)
                    tasks.append(((row.name, p, n, r), thunk,
                                  p == 2 and row.p2 == "advisory"))
    tasks.sort(key=lambda t: t[0])
    return tasks


# Tasks are closures, which cannot be pickled: forked workers inherit the
# running sweep through this list and receive only task indices.
_sweep: List[Callable[[], tuple]] = []


def _run_index(i: int) -> tuple:
    return _sweep[i]()


def run_verify(spec: SweepSpec, out) -> int:
    for p in spec.primes:
        if not is_prime(p):
            raise UsageError(f"--primes entries must be prime, got {p}")
        if p == 2 and not spec.allow_p2:
            raise UsageError("p=2 sweeps require --allow-p2")
    tasks = build_all_tasks(spec)

    def run_one(entry):
        key, fn, advisory = entry
        start = time.monotonic()
        report = fn()
        if spec.timing:
            report.elapsed_ms = int((time.monotonic() - start) * 1000)
        if advisory:
            report.advisory = True
        return key, report

    workers = min(spec.threads, len(tasks))
    fork = None
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
    _sweep[:] = [partial(run_one, t) for t in tasks]
    try:
        if fork is None:
            results = [task() for task in _sweep]
        else:
            from concurrent.futures import ProcessPoolExecutor

            # a forked worker flushes the standard streams it inherited when
            # it exits, so nothing may be pending in them
            sys.stdout.flush()
            sys.stderr.flush()
            # a sweep's tasks grow with n and p, so they are handed out
            # last-first: the small ones then come at the end, and the
            # workers finish together whichever of them took the large ones
            with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
                results = list(pool.map(_run_index, reversed(range(len(tasks)))))
    finally:
        _sweep.clear()
    results.sort(key=lambda kr: kr[0])

    for _, report in results:
        out.write((report.to_json() if spec.fmt == "json" else report.to_text()) + "\n")
    return int(any(r.violations and not r.advisory for _, r in results))


def _parse_cycle_type(n: int, text: str) -> CycleType:
    try:
        m = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"malformed cycle type {text!r}")
    if len(m) < n:
        m = m + (0,) * (n - len(m))
    try:
        return CycleType(n, m)
    except ValueError as exc:
        raise UsageError(str(exc))


def run_compute(args, out) -> int:
    obj = args.object
    n = args.n
    if n < 0:
        raise UsageError("n must be >= 0")
    if obj == "cycle-index":
        terms = partition_count(n)
        if terms > MAX_CYCLE_INDEX_TERMS:
            raise UsageError(
                f"C_{n} has p({n}) = {terms} terms, over the limit of "
                f"{MAX_CYCLE_INDEX_TERMS}"
            )
        poly = cycle_indicator(n)
        out.write((poly.to_json() if args.format == "json" else repr(poly)) + "\n")
    elif obj == "coeff":
        if args.cycle_type is None:
            raise UsageError("coeff requires a cycle type, e.g. 1,1,0")
        ct = _parse_cycle_type(n, args.cycle_type)
        out.write(str(coefficient(ct)) + "\n")
    elif obj == "meixner-q":
        poly = mx.meixner_q(n)
        out.write((poly.to_json() if args.format == "json" else repr(poly)) + "\n")
    elif obj == "meixner-qstar":
        poly = mx.meixner_qstar(n)
        out.write((poly.to_json() if args.format == "json" else repr(poly)) + "\n")
    else:
        raise UsageError(f"unknown object {obj!r}")
    return 0


def _default_threads() -> int:
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclopadic",
        description="Exact verification of cycle-indicator and Meixner congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="print one object")
    pc.add_argument(
        "object", choices=["cycle-index", "coeff", "meixner-q", "meixner-qstar"]
    )
    pc.add_argument("n", type=int)
    pc.add_argument("cycle_type", nargs="?", default=None)
    pc.add_argument("--format", choices=["json", "text"], default="json")
    pc.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run checker sweeps")
    pv.add_argument("checker", choices=CHECKERS)
    pv.add_argument("--primes", default="3,5", help="comma-separated primes")
    pv.add_argument("--n-max", type=int, default=4)
    pv.add_argument("--r-range", default=None, help="LO:HI inclusive")
    pv.add_argument("--degree-cap", type=int, default=24)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--threads", type=int, default=None, metavar="K",
                    help="tasks run at once, in worker processes "
                    "(default: the number of CPUs)")
    pv.add_argument("--format", choices=["json", "text"], default="json")
    pv.add_argument("--out", default=None)
    pv.add_argument("--allow-p2", action="store_true")
    pv.add_argument("--timing", action="store_true",
                    help="include elapsed_ms in reports (breaks byte-determinism)")
    pv.add_argument("--trials", type=int, default=500,
                    help="trial count for the randomized lemma test")
    pv.add_argument("--mutate", default=None, metavar="IDX:DELTA",
                    help="fault injection for the mutation harness")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    if args.out:
        try:
            out = open(args.out, "w")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    try:
        if args.command == "compute":
            return run_compute(args, out)

        r_range = None
        if args.r_range:
            lo, _, hi = args.r_range.partition(":")
            try:
                r_range = (int(lo), int(hi))
            except ValueError:
                raise UsageError(f"malformed --r-range {args.r_range!r}")
        try:
            primes = [int(x) for x in args.primes.split(",") if x]
        except ValueError:
            raise UsageError(f"malformed --primes {args.primes!r}")
        mutation = None
        if args.mutate:
            try:
                mutation = Mutation.parse(args.mutate)
            except ValueError:
                raise UsageError(f"malformed --mutate {args.mutate!r}")
        spec = SweepSpec(
            checker=args.checker,
            primes=sorted(set(primes)),
            n_max=args.n_max,
            r_range=r_range,
            degree_cap=args.degree_cap,
            seed=args.seed,
            threads=args.threads if args.threads else _default_threads(),
            fmt=args.format,
            allow_p2=args.allow_p2,
            timing=args.timing,
            trials=args.trials,
            mutation=mutation,
        )
        return run_verify(spec, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.out:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
