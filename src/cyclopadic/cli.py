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
a refused grid and a negative --n-max, --degree-cap, --threads or --trials
included, 3 internal error: an exception raised by a checker, in this
process or in a worker, or a worker that died, with the traceback on
stderr. A reader that closes stdout early ends the run quietly with 141,
the status of a process that SIGPIPE ends. ``--out`` is opened only after
every usage check has passed, so a usage error leaves an existing file as
it was.

Each task is exact, CPU-bound and independent, so ``verify`` runs up to
``--threads`` of them at once in worker processes forked from the CLI. The
default is ``os.cpu_count()``, or 1 for a grid whose checkers all cost less
than forking a worker (see ``_default_threads``). The CLI process only
coordinates: it keeps two task indices queued in each worker's pipe, largest
task first, and reads the worker's pickled reports back over another.
junod-lemma's trials run as slices, each at every prime (see ``_jobs``).
Every worker has exited before a report is written. Where the platform cannot
fork, or only one worker would run, the tasks run serially in-process. Report
emission is ordered by parameter sort regardless of completion order, so
output is byte-identical for any ``--threads`` value.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext
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
# (p(39) = 31,185). For the polynomial checkers, which build C_N, the limit
# is that cost. For carlitz-coeff, prop-coeff and corollary1 it is
# conservative: their walk visits only the classes that a valuation bound does
# not clear and counts the rest. prop-coeff at p = n = 11 (p(121) ~ 2e9)
# takes about 10 ms on a 2-core VM. corollary1's visited classes grow like
# p(r): 504 of them at p = n = 11, r = 10. A limit on N measured for those
# walks would replace p(N) for them.
MAX_CYCLE_INDEX_TERMS = 100_000

# `verify` refuses a grid in which another checker's largest n (or m) is over
# this. binomial-lift, gamma-ratio and remark1 grow about as n^2.5: at n = 1000
# one instance takes 0.3 to 11 s for p = 3 to 7 on a 2-core VM, like C_45
# above. The acceptance module lifts binomials to n = 200, and the CLI tests
# stay under 500. junod-lemma's trials are not bounded: their memory does not
# grow with them, and on a 2-core VM 1000 of them take 0.26 s at one prime.
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
    forks: bool = True  # False: even its largest admitted grid runs no
    # slower in-process, so without --threads it does (see _default_threads)
    slices: str = ""  # a function of (start, stop, trials, seed, ctxs,
    # mutation) that runs a slice of the trials at all the row's primes at
    # once, one report per prime; the row then runs as trial slices (_jobs)


# One row per checker, in report order (tasks sort by checker name first).
CHECKER_TABLE = [
    Checker("binomial-lift", cg, "report_binomial_lift", "n", "n", "n", "asserted"),
    Checker("carlitz-coeff", cg, "check_carlitz_coeff", "np", "n", "p(N)",
            forks=False),
    Checker("carlitz-poly", cg, "check_carlitz_poly", "rnp0", "r n", "p(N)"),
    Checker("corollary1", cg, "check_corollary1", "rnp1", "r n", "p(N)"),
    Checker("corollary2", mx, "check_corollary2", "np", "n", "np", "odd"),
    Checker("gamma-congruence", cg, "report_gamma_congruence", "cap", "n", "m", "odd"),
    Checker("gamma-identity", cg, "report_gamma_identity", "n", "n", "m", "asserted"),
    Checker("gamma-ratio", cg, "check_formula_gamma_ratio", "n", "n", "n", "asserted"),
    Checker("junod-lemma", cg, "check_junod_lemma", "once", "trials seed", "trials",
            "asserted", slices="junod_lemma_trials"),
    Checker("meixner-qp", mx, "check_junod_qp", "once", "", "p", "odd"),
    Checker("meixner-qstar-q", mx, "check_junod_qstar_q", "np", "n", "np", "odd"),
    Checker("prop-coeff", cg, "check_prop_coeff", "np", "n", "p(N)", forks=False),
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
    """(sort key, thunk, advisory) per task, sorted.

    A grid with an entry of ``primes`` that is not prime, with p = 2 but not
    ``allow_p2``, or over a size limit builds none: ``UsageError``.
    """
    for p in spec.primes:
        if not is_prime(p):
            raise UsageError(f"--primes entries must be prime, got {p}")
        if p == 2 and not spec.allow_p2:
            raise UsageError("p=2 sweeps require --allow-p2")
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


def _run_job(spec: SweepSpec, keys: list, part: int, thunk: Callable) -> list:
    """(key, part, report) for each report of a job: thunk() returns one
    report, or a list of them for the tasks of ``keys`` in order. ``keys``
    holds (key, advisory) pairs; with --timing every report gets the job's
    time."""
    start = time.monotonic()
    reports = thunk()
    elapsed = int((time.monotonic() - start) * 1000)
    if not isinstance(reports, list):
        reports = [reports]
    for (_, advisory), report in zip(keys, reports):
        if spec.timing:
            report.elapsed_ms = elapsed
        if advisory:
            report.advisory = True
    return [(key, part, report) for (key, _), report in zip(keys, reports)]


def _jobs(spec: SweepSpec, tasks: list, slices: int) -> Tuple[list, list]:
    """The jobs that run the tasks, and a label for each.

    A task is one job, but the tasks of a row with a ``slices`` function,
    one per prime, become up to ``slices`` jobs of consecutive trials, each
    run at every prime. A slice of trials start..stop-1 gets the mutation
    shifted by start, or none; its part number orders its reports for
    ``CongruenceReport.extend``. The slices go last, so that the pool, which
    hands out jobs from the last, starts the largest ones first.
    """
    rows = {row.name: row for row in CHECKER_TABLE}
    jobs, labels, shared = [], [], {}
    for key, thunk, advisory in tasks:
        row = rows[key[0]]
        if row.slices:
            shared.setdefault(row, []).append((key, advisory))
        else:
            jobs.append(partial(_run_job, spec, [(key, advisory)], 0, thunk))
            labels.append(key)
    for row, keys in shared.items():
        fn = getattr(row.module, row.slices)
        ctxs = [PadicContext(key[1]) for key, _ in keys]
        trials, count = spec.trials, max(1, min(slices, spec.trials))
        for part in range(count):
            start, stop = trials * part // count, trials * (part + 1) // count
            mutation = spec.mutation and spec.mutation.shifted(start, stop)
            thunk = partial(fn, start, stop, trials, spec.seed, ctxs, mutation)
            jobs.append(partial(_run_job, spec, keys, part, thunk))
            labels.append((row.name, f"trials {start}..{stop - 1}"))
    return jobs, labels


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
    its own command pipe. This process keeps two indices queued in each
    worker's pipe, so that a worker starts its next job without waiting for
    this process to be scheduled: it polls the result pipes and sends the
    next index, from the last job to the first, to whichever worker sent back
    a result. It runs no job itself. A worker writes nothing to the standard
    streams and leaves through ``os._exit``. Every worker is reaped before
    this returns or raises; on an error the busy ones are terminated first.
    """
    import pickle
    import select
    import signal
    from collections import deque

    todo = list(range(len(jobs)))  # popped from the end: a sweep's tasks grow
    # with n and p, so the large ones go first and the workers finish together
    pids: List[int] = []
    commands = {}  # result pipe -> command pipe of each worker
    busy = {}  # result pipe -> (pid, job indices queued, the running first)
    results = []
    ready = select.poll()

    def send(fd: int) -> None:
        i = todo.pop()
        busy[fd][1].append(i)
        try:
            _write_all(commands[fd], i.to_bytes(8, "little"))
        except BrokenPipeError:  # the worker died; its result pipe says how
            pass

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
            busy[res_r] = pid, deque()
            send(res_r)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in list(busy)[:len(todo)]:  # the second index of each
            send(fd)
        while busy:
            for fd, _ in ready.poll():
                pid, queued = busy[fd]
                size = int.from_bytes(_read_exactly(fd, 8), "little")
                message = _read_exactly(fd, size)
                if not size or len(message) < size:
                    del busy[fd]
                    _, status = os.waitpid(pid, 0)
                    pids.remove(pid)
                    status = os.waitstatus_to_exitcode(status)
                    how = (f"exited with status {status}" if status >= 0
                           else f"was killed by signal {-status}")
                    raise RuntimeError(
                        f"the worker running task {keys[queued[0]]} {how}")
                exc, value = pickle.loads(message)
                if exc is not None:
                    raise exc from WorkerTraceback(value)
                results.append(value)
                queued.popleft()
                if todo:
                    send(fd)
                elif not queued:  # nothing is left for this worker: let it exit
                    del busy[fd]
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


class OutputClosed(Exception):
    """The reader of the output closed it before the end."""


def _emit(out, lines) -> None:
    try:
        out.writelines(lines)
        out.flush()
    except BrokenPipeError:
        raise OutputClosed from None


def run_verify(spec: SweepSpec, tasks: list, out) -> int:
    """Run the tasks ``build_all_tasks(spec)`` built and write their reports.

    A run that forks cuts trial-sliced rows into two slices per worker, so
    that the largest jobs spread over the workers; a serial run takes one.
    """
    forks = spec.threads > 1 and hasattr(os, "fork")
    jobs, labels = _jobs(spec, tasks, 2 * spec.threads if forks else 1)
    workers = min(spec.threads, len(jobs))
    if forks and workers > 1:
        results = _run_forked(jobs, labels, workers)
    else:
        results = [job() for job in jobs]
    parts = sorted((item for result in results for item in result),
                   key=lambda item: item[:2])
    reports: list = []
    for key, _, report in parts:
        if reports and reports[-1][0] == key:
            reports[-1][1].extend(report)
        else:
            reports.append((key, report))

    _emit(out, ((report.to_json() if spec.fmt == "json" else report.to_text()) + "\n"
                for _, report in reports))
    return int(any(r.violations and not r.advisory for _, r in reports))


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


def run_compute(args) -> str:
    """The text that ``compute`` prints."""
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
    elif obj == "coeff":
        if args.cycle_type is None:
            raise UsageError("coeff requires a cycle type, e.g. 1,1,0")
        ct = _parse_cycle_type(n, args.cycle_type)
        return str(coefficient(ct)) + "\n"
    elif obj == "meixner-q":
        poly = mx.meixner_q(n)
    elif obj == "meixner-qstar":
        poly = mx.meixner_qstar(n)
    else:
        raise UsageError(f"unknown object {obj!r}")
    return (poly.to_json() if args.format == "json" else repr(poly)) + "\n"


def _default_threads(checker: str = "all") -> int:
    """The number of workers when ``--threads`` is not given.

    1 for a grid of carlitz-coeff or prop-coeff, whose walk visits so few
    classes that forking costs more than it saves: on a 2-core VM their
    largest grid the size guard admits (every prime to 43, np <= 45, 47
    tasks) takes 30 to 35 ms in-process and no less with 2 workers, and the
    25 tasks of ``--primes 3,5,7 --n-max 13`` take 15 ms in-process against
    20 to 30 ms with 2 workers, most of it the fork and the pipes. Otherwise
    ``os.cpu_count()``.
    """
    if not any(row.forks for row in CHECKER_TABLE if checker in (row.name, "all")):
        return 1
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
                    help="tasks run at once, in worker processes (default: "
                    "the number of CPUs; 1 for carlitz-coeff and prop-coeff)")
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


def _output(path: Optional[str]):
    """The stream that ``--out`` names, or stdout, as a context that closes
    only a file. Opened only once every usage check has passed, so that a
    usage error leaves the file as it was."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            text = run_compute(args)
            with _output(args.out) as out:
                _emit(out, [text])
            return 0

        for flag in ("n_max", "degree_cap", "threads", "trials"):
            value = getattr(args, flag)
            if value is not None and value < 0:
                flag = flag.replace("_", "-")
                raise UsageError(f"--{flag} must be >= 0, got {value}")

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
            threads=args.threads or _default_threads(args.checker),
            fmt=args.format,
            allow_p2=args.allow_p2,
            timing=args.timing,
            trials=args.trials,
            mutation=mutation,
        )
        tasks = build_all_tasks(spec)
        with _output(args.out) as out:
            return run_verify(spec, tasks, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutputClosed:
        # the reader left, as `verify all | head -1` does: stop quietly, with
        # the status a shell gives a process that SIGPIPE ends, and send what
        # is still buffered for stdout nowhere, so that exit does not fail
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        except (OSError, ValueError):
            pass
        return 141  # 128 + SIGPIPE
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
