"""Spans and counters of the traced run, recorded from outside the program.

The traced run replaces each layer's public entry point, where its caller
binds it, with a wrapper that records one span per call:
``(id, name, start, end, parent, op)``.  Spans stay in memory; the run
writes them out when it ends and derives every per-layer number from them.

A span's parent is the innermost open span of the same *operation* (one
program, one edit, one request), not of the same thread: a serve request
hops from the client thread to an HTTP handler thread to an analysis pool
thread, but those hops run one after the other, so a per-operation stack
links them correctly.  A thread finds its operation either from
:meth:`SpanRecorder.op` (benchmark and handler threads) or through the
daemon's request context (pool threads).

A span's self time is its duration minus the part of it its children
cover.  Self times of all spans plus the operations' own remainder
(``unattributed.s``) add up to the summed operation wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: The operation root span; its self time is the unattributed remainder.
OP_SPAN = "bench.op"

#: Span name -> the per-layer metric its self time is summed into.
SELF_TIME_METRICS = {
    "lang.parse": "lang.parse.s",
    "lang.validate": "lang.validate.s",
    "lang.symbols": "lang.symbols.s",
    "callgraph.pcg": "callgraph.pcg.s",
    "summary.alias": "summary.alias.s",
    "summary.modref": "summary.modref.s",
    "summary.use": "summary.use.s",
    "core.icp_fi": "core.icp_fi.s",
    "core.icp_fs": "core.icp_fs.self_s",
    "analysis.engine": "analysis.engine.s",
    "analysis.transform": "analysis.transform.s",
    "session.update": "session.update.s",
    "session.analyze": "session.analyze.s",
    "session.diagnostics": "session.diagnostics.s",
    "diag.run": "diag.run.s",
    "store.get": "store.get.s",
    "store.put": "store.put.s",
    "serve.request": "serve.request.s",
}


class SpanRecorder:
    """In-memory span buffer plus named counters."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.active = False
        #: Resolves the operation of a thread that never entered
        #: :meth:`op` (the serve pool threads); returns None outside one.
        self.fallback_op: Callable[[], Optional[str]] = lambda: None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks: Dict[str, List[int]] = {}
        self._lock = threading.Lock()

    def current_op(self) -> Optional[str]:
        op = getattr(self._local, "op", None)
        return op if op is not None else self.fallback_op()

    def begin(self, name: str):
        """Open a span in the current operation (None when not tracing)."""
        if not self.active:
            return None
        op = self.current_op()
        if op is None:
            return None
        stack = self._stacks.setdefault(op, [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, name, time.perf_counter(), parent, op)

    def end(self, token, tag: Optional[str] = None) -> None:
        ended = time.perf_counter()
        span_id, name, started, parent, op = token
        stack = self._stacks[op]
        stack.pop()
        if not stack:
            del self._stacks[op]
        self.spans.append((span_id, name, started, ended, parent, op, tag))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    @contextmanager
    def op(self, op_id: str):
        """Run one benchmark operation as the root span of its own stack."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        token = self.begin(OP_SPAN)
        try:
            yield
        finally:
            if token is not None:
                self.end(token)
            self._local.op = previous

    @contextmanager
    def bound_op(self, op_id: Optional[str]):
        """Attach this thread to an operation opened on another thread."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    # ------------------------------------------------------------------
    # Derived numbers.
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[tuple]] = defaultdict(list)
        for span_id, _, started, ended, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((started, ended))
        result: Dict[int, float] = {}
        for span_id, _, started, ended, _, _, _ in self.spans:
            covered = 0.0
            cursor = started
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, ended)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span_id] = (ended - started) - covered
        return result

    def layer_table(self) -> Dict[str, float]:
        """Self-time metrics, ``unattributed.s`` and ``trace.wall_s``."""
        selfs = self.self_times()
        table = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        wall = 0.0
        unattributed = 0.0
        for span_id, name, started, ended, parent, _, _ in self.spans:
            if name == OP_SPAN:
                wall += ended - started
                unattributed += selfs[span_id]
            else:
                table[SELF_TIME_METRICS[name]] += selfs[span_id]
        table["unattributed.s"] = unattributed
        table["trace.wall_s"] = wall
        return table

    def durations(self, name: str, tag: Optional[str] = None) -> List[float]:
        return [
            ended - started
            for _, span_name, started, ended, _, _, span_tag in self.spans
            if span_name == name and (tag is None or span_tag == tag)
        ]

    def write(self, path: str, extra: Dict) -> None:
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "op", "tag"],
            "spans": self.spans,
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Wrapping the layers' entry points.
# ----------------------------------------------------------------------


def _wrap(recorder: SpanRecorder, name: str, fn, after=None, tag_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.begin(name)
        if token is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(token, tag_of(args) if tag_of is not None else None)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _after_parse(recorder, args, result):
    if args and isinstance(args[0], str):
        recorder.count("lang.parse.bytes", len(args[0].encode("utf-8")))


def _after_pcg(recorder, args, pcg):
    recorder.count("callgraph.pcg.builds")
    recorder.count("callgraph.pcg.nodes", len(pcg.nodes))
    recorder.count("callgraph.pcg.edges", len(pcg.edges))


def _after_fs(recorder, args, fs):
    recorder.count("core.fs.calls")
    recorder.count("core.fs.constant_formals", len(fs.constant_formals()))


def _after_session_analyze(recorder, args, result):
    session = args[0]
    record_sched(recorder, result.sched)
    recorder.count("session.analyses")
    recorder.count("session.dirty", session.stats.last_dirty)
    recorder.count("session.procs", session.stats.last_procs)
    recorder.count("session.engine_runs", session.stats.last_engine_runs)


def _after_diag(recorder, args, diag):
    recorder.count("diag.runs")
    recorder.count("diag.findings", len(diag.findings))


def _after_store_get(recorder, args, entry):
    recorder.count("store.misses" if entry is None else "store.hits")


def record_sched(recorder: SpanRecorder, sched) -> None:
    if sched is None:
        return
    recorder.count("sched.tasks_run", sched.tasks_run)
    recorder.count("sched.tasks_cached", sched.tasks_cached)
    recorder.count("sched.tasks_reused", sched.tasks_reused)


def _endpoint_of(args) -> str:
    from repro.serve.daemon import _endpoint_class, split_api_version

    _, method, path = args[:3]
    return _endpoint_class(method, split_api_version(path)[0])


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced entry point; returns the function undoing it."""
    from repro.analysis.scc import SCCEngine
    from repro.core import driver
    from repro.diag import engine as diag_engine
    from repro.serve import context as request_context
    from repro.serve.daemon import AnalysisServer
    from repro.session import session as session_module
    from repro.session.session import AnalysisSession
    from repro.store.store import SummaryStore

    functions = {
        "parse_program": ("lang.parse", _after_parse),
        "validate_program": ("lang.validate", None),
        "collect_symbols": ("lang.symbols", None),
        "build_pcg": ("callgraph.pcg", _after_pcg),
        "compute_aliases": ("summary.alias", None),
        "compute_modref": ("summary.modref", None),
        "compute_use": ("summary.use", None),
        "flow_insensitive_icp": ("core.icp_fi", None),
        "flow_sensitive_icp": ("core.icp_fs", _after_fs),
        "transform_program": ("analysis.transform", None),
    }
    targets = []  # (owner, attribute, span name, after hook, tag hook)
    for module in (driver, session_module):
        for attribute, (name, after) in functions.items():
            if hasattr(module, attribute):
                targets.append((module, attribute, name, after, None))
    targets += [
        (diag_engine, "run_diagnostics", "diag.run", _after_diag, None),
        (diag_engine, "procedure_findings", "diag.run", None, None),
        (SCCEngine, "analyze", "analysis.engine", None, None),
        (AnalysisSession, "update", "session.update", None, None),
        (AnalysisSession, "sync", "session.update", None, None),
        (AnalysisSession, "analyze", "session.analyze", _after_session_analyze, None),
        (AnalysisSession, "diagnostics", "session.diagnostics", None, None),
        (SummaryStore, "get", "store.get", _after_store_get, None),
        (SummaryStore, "put", "store.put", None, None),
        (AnalysisServer, "handle_request", "serve.request", None, _endpoint_of),
    ]

    # (owner, attribute, what the owner itself held: None when inherited)
    undo = [(owner, attribute, vars(owner).get(attribute)) for owner, attribute, *_ in targets]
    for owner, attribute, name, after, tag_of in targets:
        wrapped = _wrap(recorder, name, getattr(owner, attribute), after, tag_of)
        setattr(owner, attribute, wrapped)

    # The daemon's HTTP handler threads learn their operation from the
    # request-id header; its pool threads from the request context the
    # daemon copies onto them.  (Undone with the span wrapper below it.)
    handle = AnalysisServer.handle_request

    def handle_with_op(self, method, path, body=None, headers=None):
        op = headers.get("X-Repro-Request-Id") if headers is not None else None
        with recorder.bound_op(op):
            return handle(self, method, path, body, headers)

    AnalysisServer.handle_request = handle_with_op

    def pool_op():
        ctx = request_context.current()
        return ctx.request_id if ctx is not None else None

    recorder.fallback_op = pool_op
    recorder.active = True

    def uninstall():
        recorder.active = False
        recorder.fallback_op = lambda: None
        for owner, attribute, own in reversed(undo):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    return uninstall
