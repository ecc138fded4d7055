"""Span-based structured tracing for the analysis pipeline.

A :class:`Tracer` records nested *spans* (parse → SSA → summaries →
per-procedure engine run → transform) carrying structured attributes —
procedure name, pass, cache hit/miss, lattice-cell counts.  Spans are
buffered per thread: every thread (the serve daemon's request threads
included) appends to its own buffer (no locking on the hot path), and the
coordinator merges all buffers at export time, one Chrome ``tid`` track per
buffer.

Two export formats:

- :meth:`Tracer.to_chrome` — the Chrome ``trace_event`` JSON format
  (load the file in ``chrome://tracing`` or Perfetto).  Spans become
  balanced ``B``/``E`` event pairs; marker events use the ``i`` phase.
- :meth:`Tracer.format_tree` — a human-readable indented tree with
  durations, for terminals.

The disabled tracer is a no-op singleton: ``span()`` returns a cached
null context manager, so a pipeline run with tracing off performs no
allocation and no buffering.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: The synthetic process id used for all pipeline events.
TRACE_PID = 1

#: Buffer label of the coordinating (pipeline) thread.
COORDINATOR_TID = "coordinator"


class _NullSpan:
    """Reusable no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: records a ``B`` event on enter, ``E`` on exit."""

    __slots__ = ("_tracer", "_buffer", "name", "cat", "args")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._buffer = tracer._thread_buffer()
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.args.update(attrs)

    def __enter__(self) -> "_Span":
        self._buffer.append(
            {
                "name": self.name,
                "cat": self.cat,
                "ph": "B",
                "ts": self._tracer._now(),
                "pid": TRACE_PID,
                "args": self.args,
            }
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self._buffer.append(
            {
                "name": self.name,
                "cat": self.cat,
                "ph": "E",
                "ts": self._tracer._now(),
                "pid": TRACE_PID,
            }
        )


class Tracer:
    """Collects trace events from the coordinator and its worker threads."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._epoch = time.perf_counter()
        #: Wall-clock instant of the epoch; lets a coordinator rebase
        #: another process's events onto its own timeline when merging
        #: per-shard traces into one fleet export.
        self.epoch_wall = time.time()
        self._lock = threading.Lock()
        #: (label, events) per registered buffer, in registration order.
        self._buffers: List[Tuple[str, List[dict]]] = []
        self._labels_seen: Dict[str, int] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def _now(self) -> float:
        """Microseconds since this tracer's epoch (Chrome's ``ts`` unit)."""
        return (time.perf_counter() - self._epoch) * 1_000_000.0

    def _thread_buffer(self) -> List[dict]:
        buffer = getattr(self._local, "events", None)
        if buffer is None:
            buffer = []
            self._local.events = buffer
            thread = threading.current_thread()
            label = (
                COORDINATOR_TID
                if thread is threading.main_thread()
                else thread.name
            )
            with self._lock:
                # Keep tids unique so per-track nesting stays well-formed
                # even if two threads ever share a name.
                count = self._labels_seen.get(label, 0)
                self._labels_seen[label] = count + 1
                if count:
                    label = f"{label}#{count}"
                self._buffers.append((label, buffer))
        return buffer

    # ------------------------------------------------------------------
    # Per-thread attribute binding (request identity propagation).
    # ------------------------------------------------------------------

    def bind(self, **attrs) -> None:
        """Stamp every span/instant this thread records with ``attrs``.

        The serve fleet binds ``trace``/``request_id`` around request
        handling, so engine-phase spans recorded deep inside the pipeline
        carry the request's trace id without the pipeline knowing about
        HTTP.  Explicit span attributes win over bound ones.
        """
        if self.enabled:
            self._local.bound = attrs or None

    def unbind(self) -> None:
        """Drop this thread's bound attributes."""
        if self.enabled:
            self._local.bound = None

    def bound(self) -> Optional[Dict[str, Any]]:
        """This thread's bound attributes (None when nothing is bound)."""
        if not self.enabled:
            return None
        return getattr(self._local, "bound", None)

    def span(self, name: str, cat: str = "pipeline", **attrs):
        """A context manager recording one nested span.

        Attributes are arbitrary JSON-serializable values; they land in the
        Chrome event's ``args`` and in the tree rendering.
        """
        if not self.enabled:
            return _NULL_SPAN
        bound = getattr(self._local, "bound", None)
        if bound:
            attrs = {**bound, **attrs}
        return _Span(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "pipeline", **attrs) -> None:
        """A zero-duration marker event (e.g. a cache hit)."""
        if not self.enabled:
            return
        bound = getattr(self._local, "bound", None)
        if bound:
            attrs = {**bound, **attrs}
        self._thread_buffer().append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": self._now(),
                "pid": TRACE_PID,
                "args": attrs,
            }
        )

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------

    def events(self) -> List[dict]:
        """All recorded events, each stamped with its buffer's ``tid``."""
        merged: List[dict] = []
        with self._lock:
            buffers = list(self._buffers)
        for label, buffer in buffers:
            for event in buffer:
                stamped = dict(event)
                stamped["tid"] = label
                merged.append(stamped)
        return merged

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` JSON object format."""
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro-icp"},
        }

    def write(self, path: str) -> None:
        """Serialize the Chrome trace to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)
            handle.write("\n")

    def format_tree(self) -> str:
        """Human-readable span tree, one section per thread track."""
        lines: List[str] = []
        with self._lock:
            buffers = list(self._buffers)
        for label, buffer in buffers:
            lines.append(f"[{label}]")
            stack: List[Tuple[dict, int]] = []
            for event in buffer:
                if event["ph"] == "B":
                    stack.append((event, len(stack)))
                elif event["ph"] == "E" and stack:
                    begin, depth = stack.pop()
                    duration_ms = (event["ts"] - begin["ts"]) / 1000.0
                    lines.append(
                        _tree_line(begin, depth, f"{duration_ms:.3f}ms")
                    )
                elif event["ph"] == "i":
                    lines.append(_tree_line(event, len(stack), "·"))
        return "\n".join(lines)


def _tree_line(event: dict, depth: int, suffix: str) -> str:
    args = event.get("args") or {}
    rendered = (
        " {" + ", ".join(f"{k}={v!r}" for k, v in args.items()) + "}"
        if args
        else ""
    )
    return f"{'  ' * (depth + 1)}{event['name']}{rendered} [{suffix}]"


#: Shared disabled tracer (no buffers, no allocation per span).
NULL_TRACER = Tracer(enabled=False)


# ----------------------------------------------------------------------
# Validation (bundled; also invoked by CI on the exported artifact).
# ----------------------------------------------------------------------

_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")
_KNOWN_PHASES = {"B", "E", "X", "i", "M"}


def validate_chrome_trace(data: Any) -> List[str]:
    """Check a parsed Chrome trace for structural validity.

    Returns a list of problems (empty when the trace is well-formed):

    - the top level must be an object with a ``traceEvents`` list;
    - every event needs ``name``/``ph``/``ts``/``pid``/``tid`` and a
      known phase;
    - timestamps and durations must be non-negative numbers;
    - per ``(pid, tid)`` track, ``B``/``E`` events must balance and nest —
      each ``E`` closes the most recent open ``B`` of the same name.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["top level is not a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]

    stacks: Dict[Tuple[Any, Any], List[dict]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{index} is not an object")
            continue
        missing = [key for key in _REQUIRED_KEYS if key not in event]
        if missing:
            problems.append(f"event #{index} missing keys: {missing}")
            continue
        phase = event["ph"]
        if phase not in _KNOWN_PHASES:
            problems.append(f"event #{index} has unknown phase {phase!r}")
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event #{index} has invalid ts {ts!r}")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"event #{index} has invalid dur {duration!r}")
        track = (event["pid"], event["tid"])
        stack = stacks.setdefault(track, [])
        if phase == "B":
            stack.append(event)
        elif phase == "E":
            if not stack:
                problems.append(
                    f"event #{index} ('{event['name']}' on {track}): "
                    "E without matching B"
                )
            else:
                begin = stack.pop()
                if begin["name"] != event["name"]:
                    problems.append(
                        f"event #{index}: E '{event['name']}' closes "
                        f"B '{begin['name']}' on {track} (bad nesting)"
                    )
                elif event["ts"] < begin["ts"]:
                    problems.append(
                        f"event #{index}: span '{event['name']}' on {track} "
                        "ends before it begins"
                    )
    for track, stack in stacks.items():
        for begin in stack:
            problems.append(
                f"unclosed B '{begin['name']}' on {track}"
            )
    return problems


def validate_trace_links(data: Any) -> List[str]:
    """Check the cross-process span links of a (possibly merged) trace.

    Spans participating in distributed request tracing carry link
    attributes in ``args``: ``span`` (this span's id), ``parent`` (the
    upstream span's id), and ``trace`` (the request's trace id).  The
    checks:

    - every ``parent`` must resolve to some event whose ``args.span``
      matches — a dangling parent means a broken stitch;
    - a linked child and its parent must agree on ``trace``;
    - duplicate ``span`` ids are flagged (links would be ambiguous).

    Traces without link attributes validate vacuously; use
    :func:`count_cross_process_links` to assert a fleet trace actually
    stitched across pids.
    """
    problems: List[str] = []
    if not isinstance(data, dict) or not isinstance(
        data.get("traceEvents"), list
    ):
        return ["top level is not a trace object with 'traceEvents'"]
    by_span: Dict[str, dict] = {}
    for index, event in enumerate(data["traceEvents"]):
        if not isinstance(event, dict):
            continue
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        span_id = args.get("span")
        if span_id is None:
            continue
        if span_id in by_span:
            problems.append(f"duplicate span id {span_id!r} (event #{index})")
        else:
            by_span[span_id] = event
    for index, event in enumerate(data["traceEvents"]):
        if not isinstance(event, dict):
            continue
        args = event.get("args")
        if not isinstance(args, dict):
            continue
        parent_id = args.get("parent")
        if parent_id is None:
            continue
        parent = by_span.get(parent_id)
        if parent is None:
            problems.append(
                f"event #{index} ('{event.get('name')}'): parent span "
                f"{parent_id!r} does not exist in the trace"
            )
            continue
        child_trace = args.get("trace")
        parent_trace = (parent.get("args") or {}).get("trace")
        if child_trace != parent_trace:
            problems.append(
                f"event #{index} ('{event.get('name')}'): trace id "
                f"{child_trace!r} does not match parent's {parent_trace!r}"
            )
    return problems


def count_cross_process_links(data: Any) -> int:
    """Resolved parent links whose two spans live in different pids."""
    if not isinstance(data, dict) or not isinstance(
        data.get("traceEvents"), list
    ):
        return 0
    by_span: Dict[str, dict] = {}
    for event in data["traceEvents"]:
        if isinstance(event, dict) and isinstance(event.get("args"), dict):
            span_id = event["args"].get("span")
            if span_id is not None and span_id not in by_span:
                by_span[span_id] = event
    links = 0
    for event in data["traceEvents"]:
        if not (isinstance(event, dict) and isinstance(event.get("args"), dict)):
            continue
        parent = by_span.get(event["args"].get("parent"))
        if parent is not None and parent.get("pid") != event.get("pid"):
            links += 1
    return links


def validate_trace_file(path: str) -> List[str]:
    """Load ``path`` and validate it; JSON errors become problems too."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"cannot load trace: {error}"]
    return validate_chrome_trace(data) + validate_trace_links(data)
