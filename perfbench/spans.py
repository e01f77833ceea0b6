"""In-memory spans around cyclopadic's layers, recorded from outside the library.

A span is one call into a wrapped public library function. It records the
span name, start, end, the span open on the same thread when it began (its
parent) and the id of the checker task it ran under. The parent stack is kept
per thread, because the CLI runs its tasks on a thread pool. Spans go into
per-thread column arrays and are read once, by :meth:`Tracer.summary`, after
the run. A span's self time is its duration minus the time its child spans
cover.

Span start and end are read from the thread's CPU clock. The pool's threads
share one interpreter lock and the library's cache locks, so on the wall clock
a layer would also be charged for the time its thread waited for the other
one; on the thread's CPU clock the layers' self times add up to the process
CPU time. Each checker task also records its wall duration, which is what a
task's latency is.

:func:`instrument` wraps each public name in every ``cyclopadic`` namespace
where it is looked up. A name that no longer exists is skipped, and the
metrics that need it are left out of the summary rather than reported as 0.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict


class _ThreadSpans:
    """The spans, open-span stack and counters of one thread."""

    __slots__ = ("names", "parents", "tasks", "starts", "ends", "stack",
                 "task", "task_start", "task_walls", "counts")

    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.tasks = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.task = -1
        self.task_start = 0.0
        self.task_walls = []
        self.counts = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._task_ids = itertools.count()
        self.span_ids = {}  # span name -> id, for every name something was wrapped as
        # highest n requested from the C_n cache and from the Meixner series cache
        self.indicator_highest = _Highest()
        self.series_highest = _Highest()
        self.indicator = None  # the unwrapped cycle_indicator, if it exists

    def _thread(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            return spans

    def _name_id(self, name: str) -> int:
        return self.span_ids.setdefault(name, len(self.span_ids))

    def _open(self, nid: int, opens_task: bool):
        t = self._thread()
        i = len(t.starts)
        t.names.append(nid)
        t.parents.append(t.stack[-1] if t.stack else -1)
        opened = opens_task and t.task < 0
        if opened:
            t.task = next(self._task_ids)
            t.task_start = time.perf_counter()
        t.tasks.append(t.task)
        t.ends.append(0.0)
        t.stack.append(i)
        t.starts.append(time.thread_time())
        return t, i, opened

    @staticmethod
    def _close(t: _ThreadSpans, i: int, opened: bool) -> None:
        t.ends[i] = time.thread_time()
        t.stack.pop()
        if opened:
            t.task_walls.append(time.perf_counter() - t.task_start)
            t.task = -1

    def wrap(self, name, fn, count=None, task=False, before=None):
        """fn timed as span ``name``.

        ``before(args)`` runs before the span opens and ``count(counter, args,
        result)`` after it closes, so neither is in the span's time.
        """
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            t, i, opened = self._open(nid, task)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(t, i, opened)
            if count is not None:
                count(t.counts, args, result)
            return result

        return wrapper

    def wrap_iter(self, name, fn, counter):
        """fn returns an iterator; each ``next`` on it is one span ``name``."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                t, i, _ = self._open(nid, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(t, i, False)
                t.counts[counter] += 1
                yield item

        return wrapper

    def summary(self):
        """Self CPU seconds and calls per span name, task wall seconds, spans, counters."""
        names = {nid: name for name, nid in self.span_ids.items()}
        self_s = defaultdict(float)
        calls = Counter()
        counts = Counter()
        task_s = []
        n_spans = 0
        for t in self._threads:
            n = len(t.starts)
            n_spans += n
            covered = [0.0] * n
            for i in range(n):
                parent = t.parents[i]
                if parent >= 0:
                    covered[parent] += t.ends[i] - t.starts[i]
            for i in range(n):
                nid = t.names[i]
                duration = t.ends[i] - t.starts[i]
                self_s[names[nid]] += duration - covered[i]
                calls[names[nid]] += 1
            task_s.extend(t.task_walls)
            counts.update(t.counts)
        return self_s, calls, task_s, n_spans, counts


class _Highest:
    """Highest first argument seen across threads, and how often it rose.

    Checked when a call starts: a memoized cache grows exactly on the calls
    that ask beyond everything asked before.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0
        self.rises = 0

    def __call__(self, args) -> None:
        n = args[0] if args else 0
        with self._lock:
            if n > self.value:
                self.value = n
                self.rises += 1


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _patch_function(tracer, span, module_name, attr, count=None, task=False,
                    iterate=None, before=None):
    """Wrap module_name.attr wherever a cyclopadic module binds that object."""
    module = _module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return None
    if iterate:
        wrapped = tracer.wrap_iter(span, original, iterate)
    else:
        wrapped = tracer.wrap(span, original, count, task, before)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").partition(".")[0] == "cyclopadic"
                and getattr(mod, attr, None) is original):
            setattr(mod, attr, wrapped)
    return original


def _patch_method(tracer, span, module_name, cls_name, attr, count=None):
    cls = getattr(_module(module_name), cls_name, None)
    original = cls.__dict__.get(attr) if cls is not None else None
    if original is None:
        return
    setattr(cls, attr, tracer.wrap(span, original, count))


def _length(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


def _count_mul(c, args, result):
    if result is not NotImplemented:
        c["mul_term_pairs"] += len(args[0]) * _length(args[1])
        c["mul_out_terms"] += len(result)


def _count_addsub(c, args, result):
    if result is not NotImplemented:
        c["addsub_terms"] += len(args[0]) + _length(args[1])


def _count_sorted(c, args, result):
    c["sorted_terms"] += len(result)


def _count_report(c, args, report):
    c["instances"] += report.instances
    c["violations"] += len(report.violations)


def _count_serialized(c, args, text):
    c["report_bytes"] += len(text.encode())


def _count_series_extension(c, args, result):
    c["series_extensions"] += 1
    c["series_degree_built"] += args[0] + 1


def instrument(tracer: Tracer) -> None:
    """Wrap every measured layer of the imported cyclopadic package."""
    for mod_name in ("cyclopadic.congruences", "cyclopadic.meixner"):
        module = _module(mod_name)
        for attr in sorted(vars(module) if module else ()):
            if attr.startswith(("check_", "report_")) and callable(getattr(module, attr)):
                _patch_function(tracer, "congruences", mod_name, attr,
                                _count_report, task=True)

    ci = "cyclopadic.cycle_index"
    tracer.indicator = _patch_function(tracer, "cycle_index.indicator", ci,
                                       "cycle_indicator",
                                       before=tracer.indicator_highest)
    _patch_function(tracer, "cycle_index.enum", ci, "enumerate_cycle_types",
                    iterate="cycle_types")
    for attr in ("coefficient", "coefficient_raw"):
        _patch_function(tracer, "cycle_index.coeff", ci, attr)

    pr = "cyclopadic.polyring"
    for attr in ("__mul__", "__rmul__"):
        _patch_method(tracer, "polyring.mul", pr, "MultiPoly", attr, _count_mul)
        _patch_method(tracer, "polyring.unipoly_mul", pr, "UniPoly", attr)
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
        _patch_method(tracer, "polyring.addsub", pr, "MultiPoly", attr, _count_addsub)
    _patch_method(tracer, "polyring.sort", pr, "MultiPoly", "sorted_terms",
                  _count_sorted)
    _patch_function(tracer, "polyring.substitute", pr, "substitute_univariate")

    mx = "cyclopadic.meixner"
    _patch_function(tracer, "meixner.q", mx, "meixner_q",
                    before=tracer.series_highest)
    _patch_function(tracer, "meixner.qstar", mx, "meixner_qstar")
    _patch_function(tracer, "meixner.qstar", mx, "meixner_qstar_series",
                    before=tracer.series_highest)
    # the series cache calls series_arctan(truncation) once per extension
    _patch_function(tracer, "series", "cyclopadic.series", "series_arctan",
                    _count_series_extension)
    for attr in ("series_mul", "series_exp", "series_pow_rational",
                 "series_inv_sqrt", "series_one_plus_t2"):
        _patch_function(tracer, "series", "cyclopadic.series", attr)

    pa = "cyclopadic.padic"
    _patch_method(tracer, "padic.vp", pa, "PadicContext", "vp")
    for attr in ("morita_gamma", "morita_gamma_ratio", "wilson_quotient_test"):
        _patch_method(tracer, "padic.scalar", pa, "PadicContext", attr)
    for attr in ("binomial", "check_gamma_identity"):
        _patch_function(tracer, "padic.scalar", pa, attr)

    for attr in ("to_json", "to_text"):
        _patch_method(tracer, "reports.serialize", "cyclopadic.reports",
                      "CongruenceReport", attr, _count_serialized)


def _percentile_tail(values):
    """(value, percentile) of the highest percentile with >= 10 values above it."""
    ordered = sorted(values)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values of one traced run, keyed by metric name."""
    self_s, calls, task_s, n_spans, counts = tracer.summary()
    have = tracer.span_ids
    out = {"trace.spans": n_spans}
    if "congruences" in have:
        tail, pct = _percentile_tail(task_s) if task_s else (0.0, 0.0)
        out.update({
            "cli.tasks": len(task_s),
            "cli.task_p50_ms": 1000 * statistics.median(task_s) if task_s else 0.0,
            "cli.task_tail_ms": 1000 * tail,
            "cli.task_tail_pct": pct,
            "congruences.self_s": self_s["congruences"],
            "congruences.instances": counts["instances"],
            "congruences.violations": counts["violations"],
        })
    if "cycle_index.indicator" in have:
        # C_1..C_highest were built; the unwrapped original reads them from its cache
        highest = tracer.indicator_highest.value
        out.update({
            "cycle_index.indicator_s": self_s["cycle_index.indicator"],
            "cycle_index.indicator_calls": calls["cycle_index.indicator"],
            "cycle_index.indicator_extensions": tracer.indicator_highest.rises,
            "cycle_index.terms_built":
                sum(len(tracer.indicator(m)) for m in range(1, highest + 1)),
        })
    if "cycle_index.enum" in have:
        out["cycle_index.enum_s"] = self_s["cycle_index.enum"]
        out["cycle_index.cycle_types"] = counts["cycle_types"]
    if "cycle_index.coeff" in have:
        out["cycle_index.coeff_s"] = self_s["cycle_index.coeff"]
        out["cycle_index.coeff_calls"] = calls["cycle_index.coeff"]
    if "polyring.mul" in have:
        out.update({
            "polyring.mul_s": self_s["polyring.mul"],
            "polyring.mul_calls": calls["polyring.mul"],
            "polyring.mul_term_pairs": counts["mul_term_pairs"],
            "polyring.mul_out_terms": counts["mul_out_terms"],
        })
    if "polyring.addsub" in have:
        out["polyring.addsub_s"] = self_s["polyring.addsub"]
        out["polyring.addsub_terms"] = counts["addsub_terms"]
    if "polyring.sort" in have:
        out["polyring.sort_s"] = self_s["polyring.sort"]
        out["polyring.sorted_terms"] = counts["sorted_terms"]
    if "polyring.unipoly_mul" in have:
        out["polyring.unipoly_mul_s"] = self_s["polyring.unipoly_mul"]
    if "polyring.substitute" in have:
        out["polyring.substitute_s"] = self_s["polyring.substitute"]
    if "meixner.q" in have:
        out["meixner.q_s"] = self_s["meixner.q"]
    if "meixner.qstar" in have:
        out["meixner.qstar_s"] = self_s["meixner.qstar"]
    if "meixner.q" in have and "meixner.qstar" in have:
        out["meixner.calls"] = calls["meixner.q"] + calls["meixner.qstar"]
    if "series" in have:
        built = counts["series_degree_built"]
        out.update({
            "series.s": self_s["series"],
            "series.calls": calls["series"],
            "meixner.series_extensions": counts["series_extensions"],
            "meixner.series_degree_built": built,
            # 0 when no series was built
            "meixner.series_useful_ratio":
                (tracer.series_highest.value + 1) / built if built else 0.0,
        })
    if "padic.vp" in have:
        out["padic.vp_s"] = self_s["padic.vp"]
        out["padic.vp_calls"] = calls["padic.vp"]
    if "padic.scalar" in have:
        out["padic.scalar_s"] = self_s["padic.scalar"]
    if "reports.serialize" in have:
        out["reports.serialize_s"] = self_s["reports.serialize"]
        out["reports.bytes"] = counts["report_bytes"]
    return out
