"""Command-line front end.

Two subcommands:

* ``compute`` -- print one object (cycle indicator, a single coefficient,
  a Meixner polynomial) as canonical JSON or text.
* ``verify`` -- run checker sweeps over a (primes, n, r) grid and stream one
  newline-delimited JSON report per (checker, p, n, r) task.

Exit codes: 0 all checks passed, 1 at least one violation, 2 usage error.

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
from typing import Callable, List, Optional, Tuple

from . import congruences, meixner
from .cycle_index import CycleType, coefficient, cycle_indicator, partition_count
from .padic import PadicContext, is_prime
from .reports import CongruenceReport, Mutation

CHECKERS = [
    "carlitz-coeff",
    "carlitz-poly",
    "prop-coeff",
    "prop-poly",
    "corollary1",
    "remark1",
    "junod-lemma",
    "gamma-identity",
    "gamma-congruence",
    "binomial-lift",
    "gamma-ratio",
    "wilson-sharpness",
    "meixner-qstar-q",
    "meixner-qp",
    "corollary2",
    "all",
]

# `compute cycle-index N` refuses N whose C_N has more terms than this (C_N has
# p(N) terms); p(45) = 89,134 is the largest admitted, and C_45 takes a few
# seconds and about 150 MB with the pure-Python kernel. `verify` refuses a grid
# in which one of _SIZED_CHECKERS would reach such an N. The tests and the
# benchmark grids reach at most N = 39 (p(39) = 31,185).
MAX_CYCLE_INDEX_TERMS = 100_000

# checkers that enumerate the p(N) cycle types of S_N, or build C_N, for each
# task (checker, p, n, r), where N = r + np
_SIZED_CHECKERS = {
    "carlitz-coeff",
    "prop-coeff",
    "corollary1",
    "carlitz-poly",
    "prop-poly",
}

# congruences stated only for odd p; run as non-asserted experiments under
# --allow-p2 where the math still makes sense, skip where it does not
_ODD_ONLY_HARD = {
    "wilson-sharpness",
    "meixner-qstar-q",
    "meixner-qp",
    "corollary2",
    "gamma-congruence",
}


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


def _r_values(spec: SweepSpec, p: int, lo_default: int) -> range:
    lo, hi = spec.r_range if spec.r_range else (lo_default, p - 1)
    lo = max(lo, lo_default)
    hi = min(hi, p - 1)
    return range(lo, hi + 1)


def _build_tasks(spec: SweepSpec, checker: str, p: int):
    """Yield (sort_key, thunk) pairs for one checker at one prime."""
    ctx = PadicContext(p)
    mut = spec.mutation
    advisory = p == 2 and checker not in ("junod-lemma", "gamma-identity",
                                          "binomial-lift", "gamma-ratio")

    def task(key, fn):
        return key, fn, advisory

    if checker in ("carlitz-coeff", "prop-coeff"):
        fn = (
            congruences.check_carlitz_coeff
            if checker == "carlitz-coeff"
            else congruences.check_prop_coeff
        )
        for n in range(1, spec.n_max + 1):
            if n * p <= spec.degree_cap:
                yield task((checker, p, n, 0), lambda n=n, fn=fn: fn(n, ctx, mut))
    elif checker in ("carlitz-poly", "prop-poly"):
        fn = (
            congruences.check_carlitz_poly
            if checker == "carlitz-poly"
            else congruences.check_prop_poly
        )
        for n in range(1, spec.n_max + 1):
            for r in _r_values(spec, p, 0):
                if r + n * p <= spec.degree_cap:
                    yield task(
                        (checker, p, n, r),
                        lambda r=r, n=n, fn=fn: fn(r, n, ctx, mut),
                    )
    elif checker == "corollary1":
        for n in range(1, spec.n_max + 1):
            for r in _r_values(spec, p, 1):
                if r + n * p <= spec.degree_cap:
                    yield task(
                        (checker, p, n, r),
                        lambda r=r, n=n: congruences.check_corollary1(
                            r, n, ctx, mut
                        ),
                    )
    elif checker == "remark1":
        for n in range(1, spec.n_max + 1):
            for r in _r_values(spec, p, 1):
                if r + n * p <= spec.degree_cap:
                    yield task(
                        (checker, p, n, r),
                        lambda r=r, n=n: congruences.check_remark1(r, n, ctx, mut),
                    )
    elif checker == "junod-lemma":
        yield task(
            (checker, p, 0, 0),
            lambda: congruences.check_junod_lemma(spec.trials, spec.seed, ctx, mut),
        )
    elif checker == "gamma-identity":
        for m in range(1, spec.n_max + 1):
            yield task(
                (checker, p, m, 0),
                lambda m=m: congruences.report_gamma_identity(m, ctx, mut),
            )
    elif checker == "gamma-congruence":
        for m in range(1, spec.degree_cap // p + 1):
            yield task(
                (checker, p, m, 0),
                lambda m=m: congruences.report_gamma_congruence(m, ctx, mut),
            )
    elif checker == "binomial-lift":
        for n in range(1, spec.n_max + 1):
            yield task(
                (checker, p, n, 0),
                lambda n=n: congruences.report_binomial_lift(n, ctx, mut),
            )
    elif checker == "gamma-ratio":
        for n in range(1, spec.n_max + 1):
            yield task(
                (checker, p, n, 0),
                lambda n=n: congruences.check_formula_gamma_ratio(n, ctx, mut),
            )
    elif checker == "wilson-sharpness":
        for j in range(1, spec.n_max + 1):
            yield task(
                (checker, p, p * j, 0),
                lambda n=p * j: congruences.check_wilson_sharpness(n, ctx, mut),
            )
    elif checker == "meixner-qstar-q":
        for n in range(1, spec.n_max + 1):
            if n * p <= spec.degree_cap:
                yield task(
                    (checker, p, n, 0),
                    lambda n=n: meixner.check_junod_qstar_q(n, ctx, mut),
                )
    elif checker == "meixner-qp":
        yield task((checker, p, 0, 0), lambda: meixner.check_junod_qp(ctx, mut))
    elif checker == "corollary2":
        for n in range(1, spec.n_max + 1):
            if n * p <= spec.degree_cap:
                yield task(
                    (checker, p, n, 0),
                    lambda n=n: meixner.check_corollary2(n, ctx, mut),
                )
    else:
        raise UsageError(f"unknown checker {checker!r}")


def build_all_tasks(spec: SweepSpec):
    checkers = CHECKERS[:-1] if spec.checker == "all" else [spec.checker]
    tasks = []
    for checker in checkers:
        for p in spec.primes:
            if p == 2 and checker in _ODD_ONLY_HARD:
                continue
            tasks.extend(_build_tasks(spec, checker, p))
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
    largest = {}
    for (checker, p, n, r), _, _ in tasks:
        if checker in _SIZED_CHECKERS:
            largest[checker] = max(largest.get(checker, 0), r + n * p)
    for checker, big in sorted(largest.items()):
        terms = partition_count(big)
        if terms > MAX_CYCLE_INDEX_TERMS:
            raise UsageError(
                f"{checker} reaches N = {big}, and S_{big} has p({big}) = "
                f"{terms} cycle types, over the limit of {MAX_CYCLE_INDEX_TERMS}"
            )

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

    failed = False
    for _, report in results:
        if spec.fmt == "json":
            out.write(report.to_json() + "\n")
        else:
            out.write(report.to_text() + "\n")
        if report.violations and not report.advisory:
            failed = True
    return 1 if failed else 0


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
        poly = meixner.meixner_q(n)
        out.write((poly.to_json() if args.format == "json" else repr(poly)) + "\n")
    elif obj == "meixner-qstar":
        poly = meixner.meixner_qstar(n)
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
            mutation=Mutation.parse(args.mutate) if args.mutate else None,
        )
        return run_verify(spec, out)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.out:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
