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
builds a polynomial of degree over 200, or in which another checker's largest
n passes 1000 (junod-lemma's trial count is not bounded).

Exit codes: 0 all checks passed, 1 at least one violation, 2 usage error,
a refused grid included.

Each task is exact, CPU-bound and independent, so ``verify`` runs up to
``--threads`` of them at once (default ``os.cpu_count()``) in worker processes
forked from the CLI. The CLI process only coordinates: it hands each idle
worker one task index at a time over a pipe, largest task first, and reads the
worker's pickled report back over another. Every worker has exited before a
report is written. Where the platform cannot fork, or only one worker would
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
# p(N) terms); p(45) = 89,134 is the largest admitted. On a 2-core VM C_45 is
# built in 0.3 s and 99 MB, and `compute cycle-index 45` takes 1.6 s and 190 MB
# with its JSON. `verify` refuses a grid in which a checker sized by p(N) would
# reach such an N. The tests and the benchmark grids reach at most N = 39
# (p(39) = 31,185).
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
# p. The Meixner cache grows one degree at a time, to the largest degree asked
# for; on a 2-core VM Q_0..Q_200 take 0.45 s, Q_0..Q_300 2.0 s and Q_0..Q_400
# 5.4 s. `verify corollary2 --primes 3,5,7,11,13,17,19 --n-max 1000
# --degree-cap 200` takes 0.7 to 1.3 s. The acceptance module reaches np = 125.
MAX_MEIXNER_DEGREE = 200


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


class WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process."""


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, size: int) -> bytes:
    """size bytes from fd, or fewer if its writer closed it first."""
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _serve(jobs: List[Callable[[], tuple]], keys: list, commands: int,
           results: int) -> None:
    """A worker's loop: run the job at each index read from commands, and
    write a length-prefixed pickle of ``(None, result)`` or ``(exception,
    traceback)`` to results, until commands reaches end of file."""
    import pickle

    while head := os.read(commands, 8):
        i = int.from_bytes(head, "little")
        try:
            message = pickle.dumps((None, jobs[i]()))
        except Exception as exc:
            import traceback

            tb = traceback.format_exc()
            try:
                message = pickle.dumps((exc, tb))
                pickle.loads(message)
            except Exception:
                message = pickle.dumps((RuntimeError(
                    f"task {keys[i]} raised an exception that cannot be sent "
                    f"from its worker process:\n{tb}"), tb))
        _write_all(results, len(message).to_bytes(8, "little") + message)


def _run_forked(jobs: List[Callable[[], tuple]], keys: list, workers: int) -> list:
    """Run every job in ``workers`` processes forked from this one; their
    results in completion order.

    Each worker inherits ``jobs`` through the fork and reads job indices from
    its own command pipe, one at a time; this process polls the result pipes
    and hands the next index, from the last job to the first, to whichever
    worker sent back a result. It runs no job itself. A worker writes nothing
    to the standard streams and leaves through ``os._exit``. Every worker is
    reaped before this returns or raises; on an error the busy ones are
    terminated first.
    """
    import pickle
    import select
    import signal

    todo = list(range(len(jobs)))  # popped from the end: a sweep's tasks grow
    # with n and p, so the large ones go first and the workers finish together
    pids: List[int] = []
    commands = {}  # result pipe -> command pipe of each worker
    busy = {}  # result pipe -> (pid, job index) of each worker at work
    results = []
    ready = select.poll()

    def send(fd: int, pid: int) -> None:
        i = todo.pop()
        _write_all(commands[fd], i.to_bytes(8, "little"))
        busy[fd] = pid, i

    # SIGINT is held while workers are forked, so that no KeyboardInterrupt
    # comes between a fork and the bookkeeping that reaps its worker; the
    # workers keep it blocked and leave the interrupt to this process
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for _ in range(workers):
            cmd_r, cmd_w = os.pipe()
            res_r, res_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker
                code = 1
                try:
                    for fd in (cmd_w, res_r, *commands, *commands.values()):
                        os.close(fd)
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, 1)
                    os.dup2(devnull, 2)
                    _serve(jobs, keys, cmd_r, res_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            os.close(cmd_r)
            os.close(res_w)
            commands[res_r] = cmd_w
            ready.register(res_r, select.POLLIN)
            send(res_r, pid)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while busy:
            for fd, _ in ready.poll():
                pid, i = busy.pop(fd)
                size = int.from_bytes(_read_exactly(fd, 8), "little")
                message = _read_exactly(fd, size)
                if not size or len(message) < size:
                    _, status = os.waitpid(pid, 0)
                    pids.remove(pid)
                    status = os.waitstatus_to_exitcode(status)
                    how = (f"exited with status {status}" if status >= 0
                           else f"was killed by signal {-status}")
                    raise RuntimeError(f"the worker running task {keys[i]} {how}")
                exc, value = pickle.loads(message)
                if exc is not None:
                    raise exc from WorkerTraceback(value)
                results.append(value)
                if todo:
                    send(fd, pid)
                else:  # nothing is left for this worker: let it exit now
                    ready.unregister(fd)
                    os.close(fd)
                    os.close(commands.pop(fd))
    finally:
        for fd, cmd_w in commands.items():
            os.close(fd)
            os.close(cmd_w)
        for pid, _ in busy.values():  # none unless this raised
            os.kill(pid, signal.SIGTERM)
        for pid in pids:
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return results


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

    jobs = [partial(run_one, t) for t in tasks]
    workers = min(spec.threads, len(jobs))
    if workers > 1 and hasattr(os, "fork"):
        results = _run_forked(jobs, [t[0] for t in tasks], workers)
    else:
        results = [job() for job in jobs]
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
