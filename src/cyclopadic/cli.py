"""Command-line front end.

Two subcommands:

* ``compute`` -- print one object (cycle indicator, a single coefficient,
  a Meixner polynomial) as canonical JSON or text.
* ``verify`` -- run checker sweeps over a (primes, n, r) grid and stream one
  newline-delimited JSON report per (checker, p, n, r) task.

``CHECKER_TABLE`` has one row per checker. The ``verify`` choices, ``verify
all``, the p = 2 handling and the size guard all read it. The guard sizes an
instance by the N = r + np of the C_N, Q_N or N! it computes, and ``_refuse``
holds a grid's largest N, or that of a ``compute`` object, to its row's
limit before any task is built (junod-lemma's trial count is not bounded).

Exit codes: 0 all checks passed, 1 at least one violation, 2 usage error,
a refused grid, a grid that holds no task, a --primes entry that is not
prime or too large for ``is_prime`` to certify, a negative --n-max,
--degree-cap, --threads or --trials, a malformed --mutate or one with a
negative index and a failed write to --out or stdout included, 3 internal
error: an exception raised by a checker, in this process or in a worker, or
a worker that died, with the traceback on stderr. A reader that closes
stdout early ends the run quietly with 141, the status of a process that
SIGPIPE ends. ``--out`` is opened only after every usage check has passed,
so a usage error other than a failed write leaves an existing file as it
was.

Each task is exact, CPU-bound and independent, so ``verify`` runs up to
``--threads`` of them at once in worker processes forked from the CLI, at
most ``os.cpu_count()``: more workers than CPUs only take turns. The default
is ``os.cpu_count()``, or 1 for a grid whose checkers all cost less than
forking a worker (see ``_default_threads``). The CLI process only
coordinates: it keeps two task indices queued in each worker's pipe, largest
task first, and reads the worker's pickled reports back over another.
junod-lemma's trials run as slices, each at every prime (see
``build_all_tasks``). Every worker has exited before a report is written.
Where the platform cannot fork, or only one worker would run, the tasks run
serially in-process. Report emission is ordered by parameter sort regardless
of completion order, so output is byte-identical for any ``--threads`` value.
"""
from __future__ import annotations

import os
import sys
import time
from argparse import ArgumentParser, Namespace
from contextlib import nullcontext
from functools import partial
from itertools import chain
from types import ModuleType
from typing import Callable, Iterable, List, Optional, Tuple

from . import congruences as cg, meixner as mx
from .cycle_index import CycleType, coefficient, cycle_indicator, partition_count
from .padic import PadicContext, is_prime
from .reports import CongruenceReport

# `verify` refuses a grid in which a checker sized by p(N) reaches an N = r + np
# whose C_N has more terms than this (C_N has p(N) terms), and `compute
# cycle-index N` refuses such an N; p(45) = 89,134 is the largest admitted. On
# a 2-core VM C_45 is built in 0.3 s and 99 MB, and `compute cycle-index 45`
# takes 0.9 s and 110 MB with its JSON. The tests and the benchmark grids reach
# at most N = 39 (p(39) = 31,185). For the polynomial checkers, which build
# C_N, the limit is that cost. For carlitz-coeff, prop-coeff and corollary1 it
# is conservative: their walk visits only the classes that a valuation bound
# does not clear and counts the rest. prop-coeff at p = n = 11 (p(121) ~ 2e9)
# takes about 10 ms on a 2-core VM. corollary1's visited classes grow like
# p(r): 504 of them at p = n = 11, r = 10. A limit on N measured for those
# walks would replace p(N) for them.
MAX_CYCLE_INDEX_TERMS = 100_000

# `verify` refuses a grid in which a checker sized by N reaches an N over this,
# and `compute coeff N` refuses such an N. Their instances compute N! or a
# class of S_N: binomial-lift binomial(np, pm), gamma-identity (mp)!,
# gamma-ratio and remark1 classes of np and r + np, wilson-sharpness a class of
# np, gamma-congruence Gamma_p(pm + 1). The bound is remark1's N at p = 7,
# n = 1000, r = 6, so that every grid at p <= 7 that the bound n <= 1000 before
# it admitted stays admitted. On a 2-core VM one instance at N = 7000 to 7006
# takes 0.6 s (p = 7) and 1.6 s (p = 3) for binomial-lift, 5.9 and 12.7 s for
# gamma-ratio and 7.5 and 18.4 s for remark1, which walk n classes, and at most
# 0.01 s for the others. The acceptance module lifts binomials to np = 1400.
# junod-lemma's trials are not bounded: their memory does not grow with them.
# On a 2-core VM 1000 of them take 0.09 s at one prime, and 0.14 s at p = 3, 5,
# 7 serially or 0.11 s with 2 workers (see the README).
MAX_SCALAR_SIZE = 7 * 1000 + 6

# `verify` refuses a grid in which a Meixner checker builds a Q_N of degree N
# over this: corollary2 and meixner-qstar-q build degree np, meixner-qp degree
# p, and `compute meixner-q N` or `meixner-qstar N` refuses N over it. The
# Meixner caches grow one degree at a time, to the largest degree asked
# for; on a 2-core VM Q_0..Q_200 take 0.024 s, Q_0..Q_300 0.056 s and
# Q_0..Q_400 0.17 s. `verify corollary2 --primes 3,5,7,11,13,17,19 --n-max 1000
# --degree-cap 200` takes 0.18 to 0.27 s. The acceptance module reaches np = 125.
MAX_MEIXNER_DEGREE = 200

# the size of each `compute` object's N, see _refuse
COMPUTE_SIZES = {"cycle-index": "p(N)", "coeff": "N", "meixner-q": "degree",
                 "meixner-qstar": "degree"}


class UsageError(Exception):
    pass


class Checker:
    """A checker: ``module.function`` at each point of its grid.

    name: its ``verify`` name.
    function: looked up in module when the jobs are built, and called with
    (r, n) on an "rnp" grid, () on "once", (n,) on the others, then the
    PadicContext and the mutation; on "trials" with (start, stop, trials,
    seed, ctxs, mutation), see build_all_tasks.
    grid: the (n, r) of its tasks at p, see _grid.
    size: the limit that the N of its largest instance is held to, see
    _refuse: "p(N)", "degree", "N" or "trials" (none).
    p2: at p = 2, "advisory", "asserted", or "odd" (no task).
    forks: False if even its largest admitted grid runs no slower
    in-process, so that without --threads it does (see _default_threads).
    """

    __slots__ = ("name", "module", "function", "grid", "size", "p2", "forks")

    def __init__(self, name: str, module: ModuleType, function: str, grid: str,
                 size: str, p2: str = "advisory", forks: bool = True):
        self.name = name
        self.module = module
        self.function = function
        self.grid = grid
        self.size = size
        self.p2 = p2
        self.forks = forks


# One row per checker, in report order (tasks sort by checker name first).
CHECKER_TABLE = [
    Checker("binomial-lift", cg, "report_binomial_lift", "n", "N", "asserted"),
    Checker("carlitz-coeff", cg, "check_carlitz_coeff", "np", "p(N)", forks=False),
    Checker("carlitz-poly", cg, "check_carlitz_poly", "rnp0", "p(N)"),
    Checker("corollary1", cg, "check_corollary1", "rnp1", "p(N)"),
    Checker("corollary2", mx, "check_corollary2", "np", "degree", "odd"),
    Checker("gamma-congruence", cg, "report_gamma_congruence", "cap", "N", "odd"),
    Checker("gamma-identity", cg, "report_gamma_identity", "n", "N", "asserted"),
    Checker("gamma-ratio", cg, "check_formula_gamma_ratio", "n", "N", "asserted"),
    Checker("junod-lemma", cg, "junod_lemma_trials", "trials", "trials", "asserted"),
    Checker("meixner-qp", mx, "check_junod_qp", "once", "degree", "odd"),
    Checker("meixner-qstar-q", mx, "check_junod_qstar_q", "np", "degree", "odd"),
    Checker("prop-coeff", cg, "check_prop_coeff", "np", "p(N)", forks=False),
    Checker("prop-poly", cg, "check_prop_poly", "rnp0", "p(N)"),
    Checker("remark1", cg, "check_remark1", "rnp1", "N"),
    Checker("wilson-sharpness", cg, "check_wilson_sharpness", "pn", "N", "odd"),
]
CHECKERS = [row.name for row in CHECKER_TABLE] + ["all"]


def _grid(spec: Namespace, row: Checker, p: int) -> Tuple[range, Callable]:
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


def _rows(spec: Namespace) -> List[Checker]:
    rows = [row for row in CHECKER_TABLE if spec.checker in (row.name, "all")]
    if not rows:
        raise UsageError(f"unknown checker {spec.checker!r}")
    return rows


def _primes(spec: Namespace, row: Checker) -> List[int]:
    return [p for p in spec.primes if p != 2 or row.p2 != "odd"]


def _largest(spec: Namespace, row: Checker, p: int) -> int:
    """The N = r + np of row's largest instance at p: mp on "cap", and p for
    the one task of "once", which builds Q_p. 0 for no task."""
    ns, r_of = _grid(spec, row, p)
    rs = r_of(ns[-1]) if ns else ()
    return max(rs[-1] + ns[-1] * p, p) if rs else 0


def _refuse(name: str, size: str, N: int) -> None:
    """Raise UsageError if name reaches an N over the limit of its size: p(N)
    cycle types over MAX_CYCLE_INDEX_TERMS, a "degree" over MAX_MEIXNER_DEGREE
    or an "N" over MAX_SCALAR_SIZE."""
    limit = {"p(N)": MAX_CYCLE_INDEX_TERMS, "degree": MAX_MEIXNER_DEGREE,
             "N": MAX_SCALAR_SIZE}[size]
    value, terms = N, ""
    if size == "p(N)":
        value = partition_count(N)
        terms = f", and S_{N} has p({N}) = {value} cycle types"
    if value > limit:
        raise UsageError(f"{name} reaches N = {N}{terms}, over the limit of {limit}")


def _check_sizes(spec: Namespace) -> None:
    """Refuse a grid whose largest instance of some checker is over its limit."""
    for row in _rows(spec):
        if row.size != "trials":
            _refuse(row.name, row.size, max(
                (_largest(spec, row, p) for p in _primes(spec, row)), default=0))


def _advisory(thunk: Callable) -> CongruenceReport:
    """thunk's report, marked advisory: its violations do not fail the run."""
    report = thunk()
    report.advisory = True
    return report


def build_all_tasks(spec: Namespace) -> list:
    """The jobs of a ``verify`` run, ``(label, keys, thunk)`` each.

    A task is one job: keys holds its sort key (checker, p, n, r), which is
    also its label, and thunk() returns its report. A row whose grid is
    "trials" runs as one slice of its trials per worker (one if the run
    does not fork), each returning a report per prime of keys. The tasks
    come in key order, as the table is in report order, and the slices last:
    the pool hands out jobs from the last, so it starts the largest first.

    A grid with an entry of ``primes`` that is not prime, with p = 2 but not
    ``allow_p2``, or over a size limit, and a grid that holds no task, raise
    ``UsageError``.
    """
    for p in spec.primes:
        try:
            prime = is_prime(p)
        except ValueError as exc:  # a p too large to certify
            raise UsageError(str(exc))
        if not prime:
            raise UsageError(f"--primes entries must be prime, got {p}")
        if p == 2 and not spec.allow_p2:
            raise UsageError("p=2 sweeps require --allow-p2")
    _check_sizes(spec)
    jobs, slices = [], []
    for row in _rows(spec):
        fn = getattr(row.module, row.function)
        primes = _primes(spec, row)
        if row.grid == "trials":
            keys = [(row.name, p, 0, 0) for p in primes]
            ctxs = [PadicContext(p) for p in primes]
            trials = spec.trials
            count = max(1, min(spec.threads, trials))
            for part in range(count if primes else 0):
                start, stop = trials * part // count, trials * (part + 1) // count
                thunk = partial(fn, start, stop, trials, spec.seed, ctxs,
                                spec.mutation)
                slices.append(((row.name, f"trials {start}..{stop - 1}"), keys,
                               thunk))
            continue
        for p in primes:
            ctx = PadicContext(p)
            ns, r_of = _grid(spec, row, p)
            for n in ns:
                for r in r_of(n):
                    args = ((r, n) if row.grid.startswith("rnp")
                            else () if row.grid == "once" else (n,))
                    thunk = partial(fn, *args, ctx, spec.mutation)
                    if p == 2 and row.p2 == "advisory":
                        thunk = partial(_advisory, thunk)
                    key = (row.name, p, n, r)
                    jobs.append((key, [key], thunk))
    if not jobs and not slices:
        raise UsageError(f"the {spec.checker} grid holds no task")
    return jobs + slices


def _run_job(spec: Namespace, thunk: Callable) -> list:
    """The reports of a job's keys, in order: thunk() returns one report, or
    a list of them; with --timing every report gets the job's time."""
    start = time.monotonic()
    reports = thunk()
    elapsed = int((time.monotonic() - start) * 1000)
    if not isinstance(reports, list):
        reports = [reports]
    if spec.timing:
        for report in reports:
            report.elapsed_ms = elapsed
    return reports


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


def _serve(jobs: List[Callable[[], list]], labels: list, commands: int,
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
                    f"task {labels[i]} raised an exception that cannot be sent "
                    f"from its worker process:\n{tb}"), tb))
        _write_all(results, len(message).to_bytes(8, "little") + message)


def _run_forked(jobs: List[Callable[[], list]], labels: list, workers: int) -> list:
    """Run every job in ``workers`` processes forked from this one; their
    results in job order.

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
    results: list = [None] * len(jobs)
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
                    _serve(jobs, labels, cmd_r, res_w)
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
                        f"the worker running task {labels[queued[0]]} {how}")
                exc, value = pickle.loads(message)
                if exc is not None:
                    raise exc from WorkerTraceback(value)
                results[queued.popleft()] = value
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


def _emit(out, lines, path: Optional[str]) -> None:
    """Write lines to out, then close it if it is the file ``path``, else
    flush it. A reader that closed out raises OutputClosed, another failed
    write UsageError; out's descriptor is then pointed at /dev/null, so that
    closing out or flushing stdout at exit does not fail again."""
    try:
        out.writelines(lines)
        if path:
            out.close()
        else:
            out.flush()
    except OSError as exc:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, out.fileno())
            finally:
                os.close(devnull)
        except (OSError, ValueError):  # a closed file has no descriptor
            pass
        if isinstance(exc, BrokenPipeError):
            raise OutputClosed from None
        raise UsageError(f"cannot write {path or 'stdout'}: "
                         f"{exc.strerror or exc}") from None


def run_verify(spec: Namespace, jobs: list, out) -> int:
    """Run the jobs ``build_all_tasks(spec)`` built and write their reports
    in the order of their keys; the reports of a key's slices are joined in
    job order. Exit code 1 if a report that is not advisory has a violation.
    """
    runs = [partial(_run_job, spec, thunk) for _, _, thunk in jobs]
    workers = min(spec.threads, len(jobs))
    if workers > 1:
        results = _run_forked(runs, [label for label, _, _ in jobs], workers)
    else:
        results = [run() for run in runs]
    joined: dict = {}
    for (_, keys, _), result in zip(jobs, results):
        for key, report in zip(keys, result):
            if key in joined:
                joined[key].extend(report)
            else:
                joined[key] = report
    reports = [joined[key] for key in sorted(joined)]
    _emit(out, ((report.to_json() if spec.format == "json" else report.to_text())
                + "\n" for report in reports), spec.out)
    return int(any(r.violations and not r.advisory for r in reports))


def _parse_cycle_type(n: int, text: str) -> CycleType:
    try:
        m = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"malformed cycle type {text!r}")
    try:
        return CycleType(n, m + (0,) * (n - len(m)))
    except ValueError as exc:
        raise UsageError(str(exc))


def run_compute(args) -> Iterable[str]:
    """The text that ``compute`` prints, in pieces; a cycle indicator's JSON
    is formatted one term at a time, as it is written."""
    obj = args.object
    n = args.n
    if obj not in COMPUTE_SIZES:
        raise UsageError(f"unknown object {obj!r}")
    if n < 0:
        raise UsageError("n must be >= 0")
    _refuse(obj, COMPUTE_SIZES[obj], n)
    if obj == "coeff":
        if args.cycle_type is None:
            raise UsageError("coeff requires a cycle type, e.g. 1,1,0")
        return [str(coefficient(_parse_cycle_type(n, args.cycle_type))) + "\n"]
    if obj == "cycle-index":
        poly = cycle_indicator(n)
    else:
        poly = (mx.meixner_q if obj == "meixner-q" else mx.meixner_qstar)(n)
    if args.format == "text":
        return [poly.to_text() + "\n"]
    return chain(poly.json_chunks() if obj == "cycle-index" else [poly.to_json()],
                 ["\n"])


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


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="cyclopadic",
        description="Exact verification of cycle-indicator and Meixner congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="print one object")
    pc.add_argument("object", choices=list(COMPUTE_SIZES))
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
    in_process = " and ".join(row.name for row in CHECKER_TABLE if not row.forks)
    pv.add_argument("--threads", type=int, default=None, metavar="K",
                    help="tasks run at once, in worker processes (0 or "
                    f"unset: the CPU count; 1 for {in_process})")
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


def verify_spec(argv: List[str]) -> Namespace:
    """The arguments of ``verify`` argv, parsed and checked (see _checked)."""
    return _checked(build_parser().parse_args(["verify", *argv]))


def _checked(args: Namespace) -> Namespace:
    """The parsed ``verify`` args, checked, with ``primes`` (sorted, without
    repeats), ``r_range`` (LO, HI) or None, ``mutation`` (IDX, DELTA) or None
    and ``threads`` filled in: ``threads`` 0 or None is the default, at most
    the CPU count, and 1 where the platform cannot fork, so that the run forks
    exactly when it is over 1. A negative count, a negative IDX or a malformed
    value raises UsageError."""
    for flag in ("n_max", "degree_cap", "threads", "trials"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            flag = flag.replace("_", "-")
            raise UsageError(f"--{flag} must be >= 0, got {value}")
    if args.r_range:
        lo, _, hi = args.r_range.partition(":")
        try:
            args.r_range = (int(lo), int(hi))
        except ValueError:
            raise UsageError(f"malformed --r-range {args.r_range!r}")
    args.r_range = args.r_range or None
    try:
        args.primes = sorted({int(x) for x in args.primes.split(",") if x})
    except ValueError:
        raise UsageError(f"malformed --primes {args.primes!r}")
    args.mutation = None
    if args.mutate:
        index, _, delta = args.mutate.partition(":")
        try:
            args.mutation = int(index), int(delta)
        except ValueError:
            pass
        if args.mutation is None or args.mutation[0] < 0:
            raise UsageError(f"malformed --mutate {args.mutate!r}")
    threads = min(args.threads or _default_threads(args.checker), os.cpu_count() or 1)
    args.threads = threads if hasattr(os, "fork") else 1
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            args = _checked(args)
        # str() refuses an int past 4,300 digits from Python 3.10.7 on, but a
        # coefficient or a witness can be longer. Lifted once the arguments
        # are checked, so that one that long stays refused; workers inherit it
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        if args.command == "compute":
            text = run_compute(args)
            with _output(args.out) as out:
                _emit(out, text, args.out)
            return 0

        jobs = build_all_tasks(args)
        with _output(args.out) as out:
            return run_verify(args, jobs, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutputClosed:
        # the reader left, as `verify all | head -1` does: stop quietly, with
        # the status a shell gives a process that SIGPIPE ends
        return 141  # 128 + SIGPIPE
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
