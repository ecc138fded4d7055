"""The ``repro-icp serve`` analysis daemon.

One warm pipeline serving many programs: the daemon keeps a pool of
:class:`~repro.session.AnalysisSession` objects keyed by program id,
applies edits incrementally (the dirty-region fast path), and answers
analyze/report/diagnostics queries over a line-of-sight JSON HTTP API
(stdlib :class:`ThreadingHTTPServer`, no third-party dependencies).

Production behaviors:

- **Backpressure.**  Admitted-but-unfinished analysis work is bounded by
  ``serve_max_queue``; requests beyond it are rejected immediately with
  HTTP 503 and a ``Retry-After`` header instead of queuing without bound.
- **Deadlines with degradation.**  Every request carries a deadline
  (``serve_timeout_seconds`` default, per-request ``timeout`` override).
  An analyze/edit request whose job started but exceeds it degrades
  gracefully: the daemon answers with the *flow-insensitive* solution —
  cheap, sound, less precise — marked ``"degraded": true``, while the
  flow-sensitive run it abandoned lands the change and keeps warming the
  session in the background.  Queued-but-unstarted work is cancelled
  outright and answers HTTP 504, since its change will never land.
  Report/diagnostics queries have no cheaper fallback and answer HTTP 504.
- **Warm starts.**  With ``store_dir`` configured, every session's
  summary cache is backed by one shared persistent store, so a restarted
  daemon re-serves previously analyzed programs without re-running their
  engines.
- **Bounded residency.**  At most ``serve_max_sessions`` sessions stay
  resident; the least-recently-used program is dropped beyond that (its
  summaries survive in the store).

- **Observability.**  Every admitted request gets a fleet-unique
  ``request_id`` (honored from ``X-Repro-Request-Id`` when the caller —
  a client or the shard router — supplies one) echoed on every response,
  error paths included.  ``GET /metrics`` exposes the Prometheus text
  rendering of the server's metrics registry; a structured JSON-lines
  access log replaces the silenced ``http.server`` stderr chatter, with
  the most recent lines readable at ``GET /debug/last``.  With tracing
  on (``serve_trace``), request spans carry distributed-tracing link
  attributes and ``GET /debug/trace`` exports this process's Chrome
  trace for the router to merge into one fleet timeline.

Endpoints (JSON unless noted).  Every route lives under ``/v1``; a path
without the prefix answers 404 with an error naming its ``/v1``
spelling::

    GET    /v1/healthz                    liveness, shard identity, store stats
    GET    /v1/stats                      server/store/session counters
    GET    /v1/metrics                    Prometheus text exposition
    GET    /v1/debug/last                 recent structured access-log lines
    GET    /v1/debug/metrics              raw registry snapshot (for the router)
    GET    /v1/debug/trace                Chrome trace export (serve_trace only)
    POST   /v1/programs/<id>              {source[, timeout]}: (re)load + analyze
    POST   /v1/programs/<id>/edits       {source | procedure+source[, timeout]}
    GET    /v1/programs/<id>/report      deterministic analysis report
    GET    /v1/programs/<id>/diagnostics interprocedural lint findings
    DELETE /v1/programs/<id>              drop the session

Any other route, and every ``PUT`` or ``HEAD``, answers 404 through the
same envelope (request id echoed, logged, counted).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.core.config import ICPConfig
from repro.core.driver import whole_program_phases
from repro.errors import ReproError
from repro.obs import NULL_LOG, NULL_OBS, Observability, StructuredLog
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.promexport import CONTENT_TYPE, render_prometheus
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve import context as request_context
from repro.serve.context import REQUEST_ID_HEADER
from repro.session import AnalysisSession
from repro.store import PersistentCache, SummaryStore, store_from_config

#: Seconds clients should wait before retrying a 503-rejected request.
RETRY_AFTER_SECONDS = 1

#: The HTTP API version: every route lives under ``/v1/...``.
API_VERSION = "v1"

#: Response payloads are JSON objects, except ``/metrics`` which is text.
Payload = Union[Dict[str, Any], str]

#: Request bodies are JSON objects.
Body = Optional[Dict[str, Any]]


@dataclass(frozen=True)
class MalformedBody:
    """A request body that did not parse as a JSON object.

    The HTTP handler hands it to :meth:`JSONHTTPFront.handle_request` in
    place of the body, so the 400 it earns is answered inside the request
    envelope (request id, metrics, access log) like any other answer.
    """

    reason: str


def split_api_version(path: str) -> Tuple[str, bool]:
    """Strip a leading ``/v1`` from ``path``; `(canonical, versioned)`.

    Routing is defined over *canonical* (unprefixed) paths, so
    :meth:`JSONHTTPFront.handle_request` strips the prefix before
    dispatch and answers a path without it with 404.  The query string
    survives normalization.
    """
    parsed = urlparse(path)
    prefix = f"/{API_VERSION}"
    if parsed.path == prefix or parsed.path.startswith(prefix + "/"):
        rest = parsed.path[len(prefix):] or "/"
        if parsed.query:
            rest = f"{rest}?{parsed.query}"
        return rest, True
    return path, False


def serve_observability(config: ICPConfig) -> Observability:
    """The observability context a serving process builds for itself.

    Metrics and tracing are per-process concerns in the fleet (each
    worker owns its registry; the router aggregates), so servers
    self-construct from the ``serve_metrics`` / ``serve_trace`` knobs
    instead of receiving a context from the caller.
    """
    if not (config.serve_metrics or config.serve_trace):
        return NULL_OBS
    return Observability(
        tracer=Tracer() if config.serve_trace else NULL_TRACER,
        metrics=MetricsRegistry() if config.serve_metrics else NULL_REGISTRY,
    )


def _endpoint_class(method: str, path: str) -> str:
    """The latency-histogram bucket a request belongs to.

    Low cardinality on purpose: program ids collapse into the action
    (analyze/edits/report/...), unknown routes into ``other``.
    """
    parts = [p for p in urlparse(path).path.split("/") if p]
    if not parts:
        return "other"
    head = parts[0]
    if head in ("healthz", "stats", "metrics"):
        return head
    if head == "debug":
        return "debug"
    if head == "programs":
        if len(parts) == 2:
            return "delete" if method == "DELETE" else "analyze"
        if len(parts) == 3 and parts[2] in ("edits", "report", "diagnostics"):
            return parts[2]
    return "other"


class _Rejected(Exception):
    """The bounded request queue is full (mapped to HTTP 503)."""


class _Deadline(Exception):
    """The request exceeded its deadline (degrade or HTTP 504).

    ``started`` tells whether the job had started: a started job still
    lands its change, a job cancelled in the queue never runs.
    """

    def __init__(self, started: bool):
        super().__init__()
        self.started = started


@dataclass
class ServeStats:
    """Request counters of one daemon since start."""

    requests: int = 0
    completed: int = 0
    #: Rejected by backpressure (HTTP 503).
    rejected: int = 0
    #: Deadline-exceeded requests answered with the FI solution.
    degraded: int = 0
    #: Deadline-exceeded requests with no fallback (HTTP 504).
    timeouts: int = 0
    errors: int = 0
    #: Sessions dropped by the LRU residency bound.
    sessions_evicted: int = 0


class _Program:
    """One resident program: its session, source of record, and lock."""

    __slots__ = ("session", "source", "lock")

    def __init__(self, session: AnalysisSession, source: str):
        self.session = session
        self.source = source
        self.lock = threading.Lock()


class JSONHTTPFront:
    """Shared HTTP plumbing of the daemon and the shard router.

    Subclasses provide ``self.config`` (for the bind address) and a
    ``dispatch(method, path, body) -> (status, payload, headers)`` method;
    this base turns it into a :class:`ThreadingHTTPServer` with JSON
    request/response framing.  The socket path goes through
    :meth:`handle_request`, which wraps :meth:`dispatch` with the
    fleet-wide observability envelope: request-id minting/propagation,
    ``http.*`` metrics, the structured access log, and the shared
    ``/metrics`` + ``/debug/*`` endpoints.  Tests drive :meth:`dispatch`
    (bare routing) or :meth:`handle_request` (full envelope) directly, or
    go over a real socket via :meth:`start`; the CLI calls :meth:`serve`
    (blocking).
    """

    config: ICPConfig
    obs: Observability = NULL_OBS
    log: StructuredLog = NULL_LOG
    shard_index: Optional[int] = None
    httpd: Optional[ThreadingHTTPServer] = None
    _thread: Optional[threading.Thread] = None

    def dispatch(
        self, method: str, path: str, body: Body = None
    ) -> Tuple[int, Payload, Dict[str, str]]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The observability envelope around dispatch.
    # ------------------------------------------------------------------

    def handle_request(
        self,
        method: str,
        path: str,
        body: Union[Body, MalformedBody] = None,
        headers: Optional[Any] = None,
    ) -> Tuple[int, Payload, Dict[str, str]]:
        """One request, end to end: identity, metrics, log, dispatch.

        Routes live under ``/v1``; dispatch sees the canonical path with
        the prefix stripped.  A path without the prefix gets a 404 naming
        its ``/v1`` spelling, and a :class:`MalformedBody` a 400, through
        the same envelope as any other answer: the request id is echoed,
        and the request is logged and counted.
        """
        canonical, versioned = split_api_version(path)
        endpoint = _endpoint_class(method, canonical) if versioned else "other"
        ctx = None
        # LocalShards nest a shard's handle_request inside the router's on
        # one thread; restoring (not clearing) keeps the outer ctx intact.
        prev_ctx = request_context.current()
        if self.config.trace_propagate:
            ctx = request_context.from_headers(headers)
            request_context.set_current(ctx)
            if self.obs.tracer.enabled:
                self.obs.tracer.bind(
                    trace=ctx.trace_id, request_id=ctx.request_id
                )
        metrics = self.obs.metrics
        started = time.perf_counter()
        if metrics.enabled:
            metrics.counter("http.requests").inc()
            metrics.gauge("http.in_flight").add(1)
        status, payload, extra = 500, {"error": "internal"}, {}
        try:
            if isinstance(body, MalformedBody):
                message = f"malformed JSON body: {body.reason}"
                handled = 400, {"error": message}, {}
            elif versioned:
                handled = self._handle_obs_endpoint(method, canonical)
            else:
                message = f"unversioned path; use /{API_VERSION}{path}"
                handled = 404, {"error": message}, {}
            if handled is not None:
                status, payload, extra = handled
            else:
                status, payload, extra = self.dispatch(
                    method, canonical, body
                )
        except Exception as error:  # noqa: BLE001 - the front must survive
            status, payload, extra = (
                500,
                {"error": f"{type(error).__name__}: {error}"},
                {},
            )
        finally:
            latency_ms = (time.perf_counter() - started) * 1000.0
            if metrics.enabled:
                metrics.gauge("http.in_flight").add(-1)
                metrics.counter(f"http.status.{status}").inc()
                metrics.histogram(f"http.latency.{endpoint}").observe(
                    latency_ms
                )
            if ctx is not None:
                if self.obs.tracer.enabled:
                    self.obs.tracer.unbind()
                request_context.set_current(prev_ctx)
        degraded = isinstance(payload, dict) and bool(payload.get("degraded"))
        if self.log.enabled:
            self.log.access(
                method=method,
                path=path,
                status=status,
                latency_ms=latency_ms,
                request_id=ctx.request_id if ctx is not None else None,
                degraded=degraded,
            )
        extra = dict(extra)
        if ctx is not None:
            extra[REQUEST_ID_HEADER] = ctx.request_id
        return status, payload, extra

    def _handle_obs_endpoint(
        self, method: str, path: str
    ) -> Optional[Tuple[int, Payload, Dict[str, str]]]:
        """Route the shared ``/metrics`` + ``/debug/*`` endpoints (or None)."""
        if method != "GET":
            return None
        parsed = urlparse(path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["metrics"]:
            if not self.obs.metrics.enabled:
                return 404, {"error": "metrics disabled"}, {}
            text = render_prometheus(self._metrics_series())
            return 200, text, {"Content-Type": CONTENT_TYPE}
        if parts == ["debug", "last"]:
            query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
            try:
                limit = int(query["n"]) if "n" in query else None
            except ValueError:
                return 400, {"error": "n must be an integer"}, {}
            return 200, {"entries": self.log.last(limit)}, {}
        if parts == ["debug", "metrics"]:
            if not self.obs.metrics.enabled:
                return 404, {"error": "metrics disabled"}, {}
            return (
                200,
                {
                    "pid": os.getpid(),
                    "shard": self.shard_index,
                    "epoch_wall": self.obs.tracer.epoch_wall,
                    "snapshot": self.obs.metrics.snapshot(),
                },
                {},
            )
        if parts == ["debug", "trace"]:
            if not self.obs.tracer.enabled:
                return 404, {"error": "tracing disabled"}, {}
            return 200, self.export_trace(), {}
        return None

    def _process_label(self) -> str:
        if self.shard_index is not None:
            return f"shard-{self.shard_index}"
        return type(self).__name__

    def _metrics_series(self):
        """(labels, snapshot) pairs for ``/metrics``; routers override."""
        return [({}, self.obs.metrics.snapshot())]

    def export_trace(self) -> Dict[str, Any]:
        """This process's Chrome trace, pid-stamped for fleet merging."""
        tracer = self.obs.tracer
        pid = os.getpid()
        events: list = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": "meta",
                "args": {"name": f"repro-icp {self._process_label()}"},
            }
        ]
        for event in tracer.events():
            stamped = dict(event)
            stamped["pid"] = pid
            events.append(stamped)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro-icp",
                "pid": pid,
                "shard": self.shard_index,
                "epoch_wall": tracer.epoch_wall,
            },
        }

    def _make_httpd(self) -> ThreadingHTTPServer:
        front = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # TCP_NODELAY: _finish writes the headers and the body
            # separately, and with Nagle's algorithm on the body waits
            # for the client's delayed ACK of the headers (about 40 ms).
            disable_nagle_algorithm = True

            def _finish(self, status, payload, headers, head=False):
                headers = dict(headers)
                if isinstance(payload, str):
                    data = payload.encode("utf-8")
                    content_type = headers.pop(
                        "Content-Type", "text/plain; charset=utf-8"
                    )
                else:
                    data = (
                        json.dumps(payload, sort_keys=True) + "\n"
                    ).encode("utf-8")
                    content_type = headers.pop(
                        "Content-Type", "application/json"
                    )
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                if not head:
                    self.wfile.write(data)

            def _body(self):
                length = int(self.headers.get("Content-Length") or 0)
                if not length:
                    return {}
                raw = self.rfile.read(length)
                blob = json.loads(raw.decode("utf-8"))
                if not isinstance(blob, dict):
                    raise ValueError("request body must be a JSON object")
                return blob

            def _serve(self, method):
                try:
                    body = self._body()
                except (ValueError, UnicodeDecodeError) as error:
                    body = MalformedBody(str(error))
                status, payload, headers = front.handle_request(
                    method, self.path, body, self.headers
                )
                # HEAD answers with the same headers (Content-Length
                # included) but must not write a body.
                self._finish(status, payload, headers, head=method == "HEAD")

            def do_GET(self):  # noqa: N802 - http.server API
                self._serve("GET")

            def do_HEAD(self):  # noqa: N802
                self._serve("HEAD")

            def do_POST(self):  # noqa: N802
                self._serve("POST")

            def do_PUT(self):  # noqa: N802
                self._serve("PUT")

            def do_DELETE(self):  # noqa: N802
                self._serve("DELETE")

            def log_message(self, format, *args):  # noqa: A002
                # Silenced: the structured JSON access log emitted by
                # handle_request replaces http.server's stderr lines.
                pass

        httpd = ThreadingHTTPServer(
            (self.config.serve_host, self.config.serve_port), Handler
        )
        httpd.daemon_threads = True
        return httpd

    def start(self) -> Tuple[str, int]:
        """Serve on a background thread; returns the bound (host, port)."""
        self.httpd = self._make_httpd()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name=f"{type(self).__name__}-accept",
            daemon=True,
        )
        self._thread.start()
        return self.httpd.server_address[0], self.httpd.server_address[1]

    def serve(self) -> None:
        """Serve on the calling thread until interrupted."""
        self.httpd = self._make_httpd()
        try:
            self.httpd.serve_forever()
        finally:
            self.httpd.server_close()

    def close(self) -> None:
        if self.httpd is not None:
            self.httpd.shutdown()
            self.httpd.server_close()
            self.httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


class AnalysisServer(JSONHTTPFront):
    """The daemon's engine room, independent of the HTTP plumbing.

    With ``shard_index`` set, this server is one shard of a
    :class:`~repro.serve.router.ShardRouter` deployment and reports its
    identity through ``/healthz``.
    """

    def __init__(
        self,
        config: Optional[ICPConfig] = None,
        obs: Optional[Observability] = None,
        shard_index: Optional[int] = None,
    ):
        self.config = config or ICPConfig()
        # Callers with an instrumented context (tests, embedding) pass one;
        # otherwise the server builds its own per the serve_* obs knobs.
        if obs is None or obs is NULL_OBS:
            obs = serve_observability(self.config)
        self.obs = obs
        self.shard_index = shard_index
        self.log = StructuredLog(
            enabled=self.config.serve_log_enabled,
            slow_ms=self.config.serve_log_slow_ms,
            ring=self.config.serve_log_ring,
            shard=shard_index,
        )
        self.stats = ServeStats()
        self.store: Optional[SummaryStore] = store_from_config(
            self.config, obs=self.obs
        )
        self._programs: "OrderedDict[str, _Program]" = OrderedDict()
        self._programs_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.serve_workers,
            thread_name_prefix="repro-serve",
        )
        self._slots = threading.BoundedSemaphore(self.config.serve_max_queue)
        self.httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Session pool.
    # ------------------------------------------------------------------

    def _session_cache(self):
        if self.store is None:
            return None
        # Each session gets its own memory tier over the one shared store:
        # programs never collide in memory, summaries dedupe on disk.
        return PersistentCache(self.store)

    def _get_program(self, program_id: str) -> _Program:
        with self._programs_lock:
            program = self._programs.get(program_id)
            if program is None:
                raise KeyError(program_id)
            self._programs.move_to_end(program_id)
            return program

    def _put_program(self, program_id: str, program: _Program) -> None:
        with self._programs_lock:
            self._programs[program_id] = program
            self._programs.move_to_end(program_id)
            while len(self._programs) > self.config.serve_max_sessions:
                self._programs.popitem(last=False)
                self.stats.sessions_evicted += 1
            if self.obs.metrics.enabled:
                self.obs.metrics.gauge("serve.programs").set(
                    len(self._programs)
                )

    # ------------------------------------------------------------------
    # Bounded execution with deadlines.
    # ------------------------------------------------------------------

    def _execute(self, job, timeout: float):
        """Run ``job`` on the worker pool under backpressure + deadline."""
        if not self._slots.acquire(blocking=False):
            raise _Rejected()
        # Carry the request identity onto the pool thread so engine-phase
        # spans recorded deep in the pipeline keep the trace/request ids.
        ctx = request_context.current()
        bound = self.obs.tracer.bound()

        def run():
            request_context.set_current(ctx)
            if bound:
                self.obs.tracer.bind(**bound)
            try:
                return job()
            finally:
                if bound:
                    self.obs.tracer.unbind()
                request_context.clear_current()
                self._slots.release()

        try:
            future = self._pool.submit(run)
        except BaseException:
            self._slots.release()
            raise
        try:
            return future.result(timeout=timeout)
        except FutureTimeout:
            # Queued-but-unstarted work is cancelled outright; running work
            # is abandoned to finish warming the session in the background
            # (Python threads cannot be killed), its slot released by run().
            if future.cancel():
                self._slots.release()
                raise _Deadline(started=False)
            raise _Deadline(started=True)
        except CancelledError:
            raise _Deadline(started=False)

    def _deadline_of(self, body: Dict[str, Any], query: Dict[str, Any]) -> float:
        raw = body.get("timeout", query.get("timeout"))
        if raw is None:
            return float(self.config.serve_timeout_seconds)
        try:
            timeout = float(raw)
        except (TypeError, ValueError):
            raise ValueError(f"timeout must be a number, got {raw!r}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        return timeout

    # ------------------------------------------------------------------
    # The flow-insensitive degradation path.
    # ------------------------------------------------------------------

    def _degrade(self, missed: _Deadline, source: str) -> Tuple[int, Dict[str, Any]]:
        """The answer to a load or edit whose job missed its deadline.

        A started job will still land its change, so the answer is the
        cheap, engine-free solution of ``source``: only the pipeline's
        linear whole-program half (parse, validate, symbols, PCG, aliasing,
        MOD/REF, flow-insensitive ICP), run on the handler thread — sound,
        less precise, and fast enough to answer under pressure.  A job
        cancelled in the queue changes nothing, so its request answers 504
        like a report past its deadline.
        """
        if not missed.started:
            raise missed
        self.stats.degraded += 1
        if self.obs.metrics.enabled:
            self.obs.metrics.counter("serve.degraded").inc()
        front = whole_program_phases(source, self.config)
        fi = front.fi
        return 200, {
            "degraded": True,
            "method": "fi",
            "procedures": len(front.pcg.nodes),
            "call_edges": len(front.pcg.edges),
            "constant_formals": [
                {"proc": proc, "formal": formal}
                for proc, formal in fi.constant_formals()
            ],
            "constant_globals": {
                name: value
                for name, value in sorted(fi.global_constants.items())
            },
        }

    # ------------------------------------------------------------------
    # Request handlers.
    # ------------------------------------------------------------------

    def _analyze_payload(self, program: _Program, changed: Optional[int]) -> Dict[str, Any]:
        session = program.session
        result = session.result
        stats = session.stats
        payload: Dict[str, Any] = {
            "degraded": False,
            "method": "fs",
            "procedures": stats.last_procs,
            "call_edges": len(result.pcg.edges),
            "constant_formals": [
                {
                    "proc": proc,
                    "formal": formal,
                    "value": result.fs.entry_formals[(proc, formal)].const_value,
                }
                for proc, formal in result.fs.constant_formals()
            ],
            "session": {
                "analyses": stats.analyses,
                "dirty": stats.last_dirty,
                "reused": stats.last_reused,
                "cached": stats.last_cached,
                "engine_runs": stats.last_engine_runs,
                "reuse_rate": stats.reuse_rate,
            },
        }
        if changed is not None:
            payload["changed"] = changed
        return payload

    def _handle_load(
        self, program_id: str, body: Dict[str, Any], deadline: float
    ) -> Tuple[int, Dict[str, Any]]:
        source = body.get("source")
        if not isinstance(source, str) or not source.strip():
            return 400, {"error": "body must carry a non-empty 'source'"}

        def job() -> Tuple[int, Dict[str, Any]]:
            try:
                existing = self._get_program(program_id)
            except KeyError:
                existing = None
            if existing is not None:
                with existing.lock:
                    changed = existing.session.sync(source)
                    existing.source = source
                    if changed or existing.session.result is None:
                        existing.session.analyze()
                    return 200, self._analyze_payload(existing, changed)
            session = AnalysisSession(
                source, self.config, obs=self.obs, cache=self._session_cache()
            )
            program = _Program(session, source)
            with program.lock:
                session.analyze()
                self._put_program(program_id, program)
                return 200, self._analyze_payload(program, None)

        try:
            return self._execute(job, deadline)
        except _Deadline as missed:
            return self._degrade(missed, source)

    def _handle_edit(
        self, program_id: str, body: Dict[str, Any], deadline: float
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            program = self._get_program(program_id)
        except KeyError:
            return 404, {"error": f"unknown program {program_id!r}"}
        source = body.get("source")
        procedure = body.get("procedure")
        if not isinstance(source, str) or not source.strip():
            return 400, {"error": "body must carry a non-empty 'source'"}

        def job() -> Tuple[int, Dict[str, Any]]:
            with program.lock:
                if procedure is not None:
                    changed = int(program.session.update(procedure, source))
                else:
                    changed = program.session.sync(source)
                    program.source = source
                if changed or program.session.result is None:
                    program.session.analyze()
                return 200, self._analyze_payload(program, changed)

        try:
            return self._execute(job, deadline)
        except _Deadline as missed:
            # A started edit is applied to the session (or will be when the
            # abandoned job lands); answer from the edited source.
            fallback = source if procedure is None else program.source
            return self._degrade(missed, fallback)

    def _handle_report(
        self, program_id: str, deadline: float
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            program = self._get_program(program_id)
        except KeyError:
            return 404, {"error": f"unknown program {program_id!r}"}

        def job() -> Tuple[int, Dict[str, Any]]:
            with program.lock:
                if program.session.result is None:
                    program.session.analyze()
                return 200, {
                    "program": program_id,
                    "report": program.session.report(),
                }

        return self._execute(job, deadline)

    def _handle_diagnostics(
        self, program_id: str, deadline: float
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            program = self._get_program(program_id)
        except KeyError:
            return 404, {"error": f"unknown program {program_id!r}"}

        def job() -> Tuple[int, Dict[str, Any]]:
            with program.lock:
                diag = program.session.diagnostics()
            return 200, {
                "program": program_id,
                "counts": diag.counts,
                "findings": [
                    {
                        "rule": f.rule_id,
                        "severity": f.severity,
                        "message": f.message,
                        "proc": f.proc,
                        "line": f.line,
                        "column": f.column,
                    }
                    for f in diag.findings
                ],
            }

        return self._execute(job, deadline)

    def _store_payload(self) -> Optional[Dict[str, Any]]:
        """Store stats for ``/healthz`` and ``/stats`` (None = no store)."""
        if self.store is None:
            return None
        s = self.store.stats
        return {
            "dir": self.store.root,
            "hits": s.hits,
            "misses": s.misses,
            "writes": s.writes,
            "evictions": s.evictions,
            "corrupt_dropped": s.corrupt_dropped,
            "bytes": s.bytes,
            "entries": s.entries,
            "dedup_writes": s.dedup_writes,
        }

    def _healthz_payload(self) -> Dict[str, Any]:
        """Liveness, shard identity, session residency, and store stats.

        The router aggregates one of these per shard; a single-process
        daemon reports itself with ``"shard": null``.
        """
        with self._programs_lock:
            resident = len(self._programs)
        return {
            "ok": True,
            "programs": resident,
            "pid": os.getpid(),
            "shard": self.shard_index,
            "sessions": {
                "resident": resident,
                "max": self.config.serve_max_sessions,
                "evicted": self.stats.sessions_evicted,
            },
            "store": self._store_payload(),
        }

    def _stats_payload(self) -> Dict[str, Any]:
        with self._programs_lock:
            programs = list(self._programs)
        payload: Dict[str, Any] = {
            "programs": programs,
            "requests": self.stats.requests,
            "completed": self.stats.completed,
            "rejected": self.stats.rejected,
            "degraded": self.stats.degraded,
            "timeouts": self.stats.timeouts,
            "errors": self.stats.errors,
            "sessions_evicted": self.stats.sessions_evicted,
            "config": {
                "workers": self.config.serve_workers,
                "max_queue": self.config.serve_max_queue,
                "timeout_seconds": self.config.serve_timeout_seconds,
                "max_sessions": self.config.serve_max_sessions,
            },
        }
        store = self._store_payload()
        if store is not None:
            payload["store"] = store
        return payload

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def dispatch(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Route one request; returns (status, payload, extra headers)."""
        body = body or {}
        parsed = urlparse(path)
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        parts = [p for p in parsed.path.split("/") if p]
        self.stats.requests += 1
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("serve.requests").inc()

        try:
            deadline = self._deadline_of(body, query)
        except ValueError as error:
            self.stats.errors += 1
            return 400, {"error": str(error)}, {}

        ctx = request_context.current()
        span = (
            self.obs.tracer.span(
                "serve.request",
                cat="serve",
                method=method,
                path=parsed.path,
                **(ctx.span_args() if ctx is not None else {}),
            )
            if self.obs.tracer.enabled
            else None
        )
        try:
            if span is not None:
                span.__enter__()
            status, payload = self._route(method, parts, body, deadline)
        except _Rejected:
            self.stats.rejected += 1
            if metrics.enabled:
                metrics.counter("serve.rejected").inc()
            return (
                503,
                {
                    "error": "analysis queue is full",
                    "retry_after": RETRY_AFTER_SECONDS,
                },
                {"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
        except _Deadline:
            self.stats.timeouts += 1
            if metrics.enabled:
                metrics.counter("serve.timeouts").inc()
            return 504, {"error": "deadline exceeded"}, {}
        except (ReproError, ValueError) as error:
            self.stats.errors += 1
            if metrics.enabled:
                metrics.counter("serve.errors").inc()
            return 400, {"error": str(error)}, {}
        except Exception as error:  # noqa: BLE001 - the daemon must survive
            self.stats.errors += 1
            if metrics.enabled:
                metrics.counter("serve.errors").inc()
            return 500, {"error": f"{type(error).__name__}: {error}"}, {}
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        if 200 <= status < 300:
            self.stats.completed += 1
            if metrics.enabled:
                metrics.counter("serve.completed").inc()
        else:
            self.stats.errors += 1
        return status, payload, {}

    def _route(
        self,
        method: str,
        parts,
        body: Dict[str, Any],
        deadline: float,
    ) -> Tuple[int, Dict[str, Any]]:
        if method == "GET" and parts == ["healthz"]:
            return 200, self._healthz_payload()
        if method == "GET" and parts == ["stats"]:
            return 200, self._stats_payload()
        if len(parts) == 2 and parts[0] == "programs":
            program_id = parts[1]
            if method == "POST":
                return self._handle_load(program_id, body, deadline)
            if method == "DELETE":
                with self._programs_lock:
                    dropped = self._programs.pop(program_id, None)
                if dropped is None:
                    return 404, {"error": f"unknown program {program_id!r}"}
                return 200, {"ok": True, "program": program_id}
        if len(parts) == 3 and parts[0] == "programs":
            program_id, action = parts[1], parts[2]
            if method == "POST" and action == "edits":
                return self._handle_edit(program_id, body, deadline)
            if method == "GET" and action == "report":
                return self._handle_report(program_id, deadline)
            if method == "GET" and action == "diagnostics":
                return self._handle_diagnostics(program_id, deadline)
        return 404, {"error": f"no route for {method} /{'/'.join(parts)}"}

    def close(self) -> None:
        super().close()
        self._pool.shutdown(wait=False)
