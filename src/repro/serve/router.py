"""The sharded serve front: a consistent-hash router over worker processes.

``repro-icp serve --shards N`` turns the single GIL-bound daemon into a
process-per-shard deployment:

- the **router** (this module) owns the public socket and consistent-hashes
  every ``/programs/<id>`` request onto one of N shards
  (:class:`~repro.serve.hashring.HashRing`, so placement is deterministic
  and stable under respawns);
- each **shard** is a full :class:`~repro.serve.daemon.AnalysisServer` in
  its own process (:mod:`repro.serve.worker`, spawned through the
  spawn-safe :func:`spawn_context`), serving on a private loopback socket;
- shards coordinate *only* through the shared persistent store
  (:mod:`repro.store`), so any shard can warm-start any program — which is
  what makes shards disposable: a **supervisor** thread sweeps every
  ``serve_rebalance`` seconds and respawns dead shards in place.

End-to-end guarantees:

- **Backpressure propagates.**  The router bounds its own in-flight
  proxied requests at ``serve_max_queue x shards`` and answers 503 +
  ``Retry-After`` beyond it; a worker-side 503's ``Retry-After`` is passed
  through verbatim.
- **Failures are clean.**  A request caught mid-flight by a shard crash is
  answered with JSON 503 + ``Retry-After`` — never a partial or corrupt
  payload — and the supervisor is woken to respawn the shard immediately.
- **Degradation is end-to-end.**  Per-request deadlines are enforced by
  the worker; its degraded flow-insensitive answers (``"degraded": true``)
  and 504s proxy through unchanged.

Tests inject :class:`LocalShard` backends (in-process, deterministic);
production uses :class:`ProcessShard`.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.config import ICPConfig
from repro.obs import NULL_OBS, Observability, StructuredLog, merge_snapshots
from repro.serve import context as request_context
from repro.serve.daemon import (
    API_VERSION,
    RETRY_AFTER_SECONDS,
    AnalysisServer,
    JSONHTTPFront,
    serve_observability,
)
from repro.serve.hashring import HashRing
from repro.serve.worker import run_worker, worker_config

def spawn_context():
    """The ``spawn`` multiprocessing context the shard supervisor uses.

    The platform default start method may be fork (POSIX Python < 3.14),
    which clones whatever locks and threads the parent holds — the router
    and the observability layer both run threads, so a forked child can
    inherit a locked lock and deadlock.  Spawn is safe everywhere; the
    shard entrypoint (:func:`repro.serve.worker.run_worker`) is a
    module-level picklable by construction.
    """
    import multiprocessing

    return multiprocessing.get_context("spawn")


#: Seconds the router waits for a freshly spawned shard to report its port
#: (generous: a cold spawn re-imports the interpreter and the package).
SPAWN_TIMEOUT_SECONDS = 120.0

#: Extra seconds past the request deadline before a proxied call is
#: abandoned; the worker answers degraded/504 at the deadline itself, so
#: tripping this means the shard is wedged, not slow.
PROXY_GRACE_SECONDS = 60.0

#: Socket timeout for router-internal health/stats probes of a shard.
PROBE_TIMEOUT_SECONDS = 10.0


class ShardUnavailable(Exception):
    """The shard could not take or finish a request (mapped to HTTP 503)."""


@dataclass
class RouterStats:
    """Request counters of one router since start."""

    requests: int = 0
    #: Requests handed to a shard (includes non-2xx shard answers).
    proxied: int = 0
    completed: int = 0
    #: Rejected by router-level backpressure (HTTP 503).
    rejected: int = 0
    #: Proxied requests that died with their shard (HTTP 503).
    shard_failures: int = 0
    #: Dead shards brought back by the supervisor.
    respawns: int = 0


class LocalShard:
    """An in-process shard backend.

    Deterministic and instant — the test suite's harness for routing,
    backpressure, and degradation behavior without process management.
    """

    kind = "local"

    def __init__(self, index: int, server: AnalysisServer):
        self.index = index
        self.server = server
        self.respawns = 0

    @property
    def pid(self) -> Optional[int]:
        return os.getpid()

    @property
    def port(self) -> Optional[int]:
        return None

    def alive(self) -> bool:
        return True

    def request(
        self,
        method: str,
        path: str,
        body: Dict[str, Any],
        timeout: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        return self.server.handle_request(method, path, body, headers)

    def healthz(self, timeout: float = PROBE_TIMEOUT_SECONDS) -> Dict[str, Any]:
        _, payload, _ = self.server.dispatch("GET", "/healthz")
        return payload

    def respawn(self) -> bool:
        return False  # a local shard shares the router's life

    def close(self) -> None:
        self.server.close()


class ProcessShard:
    """One worker process plus the router-side plumbing to reach it."""

    kind = "process"

    def __init__(self, index: int, config: ICPConfig):
        self.index = index
        self._config_data = worker_config(config)
        self.respawns = 0
        self.process = None
        self.pid: Optional[int] = None
        self.port: Optional[int] = None
        self._lock = threading.Lock()
        self._spawn()

    def _spawn(self) -> None:
        ctx = spawn_context()
        parent, child = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=run_worker,
            args=(self._config_data, self.index, child),
            name=f"repro-serve-shard-{self.index}",
            daemon=True,
        )
        process.start()
        child.close()
        try:
            if not parent.poll(SPAWN_TIMEOUT_SECONDS):
                process.terminate()
                process.join(timeout=5)
                raise ShardUnavailable(
                    f"shard {self.index} did not report a port within "
                    f"{SPAWN_TIMEOUT_SECONDS:.0f}s"
                )
            self.pid, self.port = parent.recv()
        except (EOFError, OSError) as error:
            process.terminate()
            process.join(timeout=5)
            raise ShardUnavailable(
                f"shard {self.index} died during startup: {error}"
            ) from error
        finally:
            parent.close()
        self.process = process

    def alive(self) -> bool:
        process = self.process
        return process is not None and process.is_alive()

    def respawn(self) -> bool:
        """Replace a dead worker in place; returns True if one was spawned."""
        with self._lock:
            if self.alive():
                return False
            old = self.process
            if old is not None:
                old.join(timeout=1)  # reap the corpse before respawning
            self._spawn()
            self.respawns += 1
            return True

    def request(
        self,
        method: str,
        path: str,
        body: Dict[str, Any],
        timeout: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        port = self.port
        if port is None:
            raise ShardUnavailable(f"shard {self.index} has no socket")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            data = json.dumps(body).encode("utf-8") if body else None
            send_headers = dict(headers or {})
            if data:
                send_headers["Content-Type"] = "application/json"
            conn.request(method, path, body=data, headers=send_headers)
            response = conn.getresponse()
            raw = response.read()
            payload = json.loads(raw.decode("utf-8"))
            out: Dict[str, str] = {}
            retry_after = response.getheader("Retry-After")
            if retry_after is not None:
                out["Retry-After"] = retry_after
            return response.status, payload, out
        except (
            OSError,
            http.client.HTTPException,
            json.JSONDecodeError,
            UnicodeDecodeError,
        ) as error:
            # Covers refused/reset connections, truncated responses from a
            # killed worker, and garbage bytes: the client always gets a
            # clean JSON 503 from the router, never a partial payload.
            raise ShardUnavailable(
                f"shard {self.index}: {type(error).__name__}: {error}"
            ) from error
        finally:
            conn.close()

    def healthz(self, timeout: float = PROBE_TIMEOUT_SECONDS) -> Dict[str, Any]:
        status, payload, _ = self.request("GET", "/v1/healthz", {}, timeout)
        if status != 200:
            raise ShardUnavailable(f"shard {self.index} healthz: HTTP {status}")
        return payload

    def kill(self) -> None:
        """Forcibly kill the worker (chaos testing)."""
        process = self.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5)

    def close(self) -> None:
        with self._lock:
            process = self.process
            self.process = None
            if process is not None:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)
                if process.is_alive():  # wedged past SIGTERM: escalate
                    process.kill()
                    process.join(timeout=5)


class ShardRouter(JSONHTTPFront):
    """The front process of a sharded serve deployment.

    Owns the public socket, the hash ring, router-level backpressure, and
    the supervisor that respawns dead shards.  Exposes the same endpoint
    catalog as :class:`AnalysisServer` — clients cannot tell how many
    processes serve them — plus aggregated ``/healthz`` and ``/stats``.
    """

    def __init__(
        self,
        config: Optional[ICPConfig] = None,
        obs: Optional[Observability] = None,
        shards: Optional[Sequence] = None,
    ):
        self.config = config or ICPConfig()
        # Like the daemon: without an injected context the router builds
        # its own per the serve_* obs knobs (each shard builds one too).
        if obs is None or obs is NULL_OBS:
            obs = serve_observability(self.config)
        self.obs = obs
        self.log = StructuredLog(
            enabled=self.config.serve_log_enabled,
            slow_ms=self.config.serve_log_slow_ms,
            ring=self.config.serve_log_ring,
        )
        self.stats = RouterStats()
        if shards is not None:
            self._shards: List = list(shards)
        elif self.config.serve_shards >= 1:
            self._shards = [
                ProcessShard(index, self.config)
                for index in range(self.config.serve_shards)
            ]
        else:
            raise ValueError(
                "ShardRouter needs serve_shards >= 1 or injected shards"
            )
        self.ring = HashRing(len(self._shards))
        self._slots = threading.BoundedSemaphore(
            self.config.serve_max_queue * len(self._shards)
        )
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._supervisor.start()
        self.httpd = None
        self._thread = None

    @classmethod
    def local(
        cls,
        config: Optional[ICPConfig] = None,
        obs: Optional[Observability] = None,
        shards: int = 2,
    ) -> "ShardRouter":
        """A router over in-process :class:`LocalShard` backends (tests)."""
        config = config or ICPConfig()
        backends = [
            LocalShard(index, AnalysisServer(config, shard_index=index))
            for index in range(shards)
        ]
        return cls(config, obs, shards=backends)

    # ------------------------------------------------------------------
    # Shard lookup and supervision.
    # ------------------------------------------------------------------

    @property
    def shards(self) -> List:
        return list(self._shards)

    def shard_for(self, program_id: str):
        """The shard backend owning ``program_id``."""
        return self._shards[self.ring.shard_for(program_id)]

    def _supervise(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.config.serve_rebalance)
            self._wake.clear()
            if self._stop.is_set():
                return
            self._sweep()

    def _sweep(self) -> None:
        """Respawn every dead shard; the warm-start cost is the store's."""
        metrics = self.obs.metrics
        for shard in self._shards:
            if shard.alive():
                continue
            try:
                if shard.respawn():
                    self.stats.respawns += 1
                    if metrics.enabled:
                        metrics.counter("serve.shard.respawns").inc()
            except ShardUnavailable:
                self._wake.set()  # retry on the next sweep, eagerly
        if metrics.enabled:
            metrics.gauge("serve.shard.alive").set(
                sum(1 for shard in self._shards if shard.alive())
            )

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------

    def dispatch(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Route one request; returns (status, payload, extra headers)."""
        body = body or {}
        parsed = urlparse(path)
        parts = [p for p in parsed.path.split("/") if p]
        self.stats.requests += 1
        if self.obs.metrics.enabled:
            self.obs.metrics.counter("serve.shard.requests").inc()
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
            if method == "GET" and parts == ["healthz"]:
                return 200, self._healthz_payload(), {}
            if method == "GET" and parts == ["stats"]:
                return 200, self._stats_payload(), {}
            if parts and parts[0] == "programs" and len(parts) in (2, 3):
                return self._proxy(method, path, parts[1], body, parsed.query)
            return (
                404,
                {"error": f"no route for {method} /{'/'.join(parts)}"},
                {},
            )
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def _unavailable(
        self, reason: str
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        return (
            503,
            {"error": reason, "retry_after": RETRY_AFTER_SECONDS},
            {"Retry-After": str(RETRY_AFTER_SECONDS)},
        )

    def _proxy_timeout(self, body: Dict[str, Any], query: str) -> float:
        """Socket budget for one proxied request: its deadline plus grace."""
        params = {k: v[-1] for k, v in parse_qs(query).items()}
        raw = body.get("timeout", params.get("timeout"))
        try:
            deadline = float(raw) if raw is not None else float(
                self.config.serve_timeout_seconds
            )
        except (TypeError, ValueError):
            # Malformed timeouts are the worker's 400 to give; proxy with
            # the default budget so it gets the chance.
            deadline = float(self.config.serve_timeout_seconds)
        return max(deadline, 0.0) + PROXY_GRACE_SECONDS

    def _proxy(
        self,
        method: str,
        path: str,
        program_id: str,
        body: Dict[str, Any],
        query: str,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        metrics = self.obs.metrics
        index = self.ring.shard_for(program_id)
        shard = self._shards[index]
        if not self._slots.acquire(blocking=False):
            self.stats.rejected += 1
            if metrics.enabled:
                metrics.counter("serve.shard.rejected").inc()
            return self._unavailable("router queue is full")
        try:
            timeout = self._proxy_timeout(body, query)
            # Dispatch sees canonical (unprefixed) paths; the hop to the
            # shard speaks /v1, the only surface a shard answers.
            path = f"/{API_VERSION}{path}"
            # The proxy hop gets its own span id; the shard's request span
            # parents onto it via the X-Repro-Trace header, stitching the
            # cross-process trace: router request → proxy → shard request.
            ctx = request_context.current()
            hop_headers: Optional[Dict[str, str]] = None
            link: Dict[str, Any] = {}
            if ctx is not None:
                hop_span = request_context.new_span_id()
                hop_headers = ctx.child_headers(hop_span)
                link = {
                    "request_id": ctx.request_id,
                    "trace": ctx.trace_id,
                    "span": hop_span,
                    "parent": ctx.span,
                }
            if self.obs.tracer.enabled:
                with self.obs.tracer.span(
                    "serve.shard.proxy",
                    cat="serve",
                    shard=index,
                    method=method,
                    path=path,
                    **link,
                ):
                    status, payload, headers = shard.request(
                        method, path, body, timeout, headers=hop_headers
                    )
            else:
                status, payload, headers = shard.request(
                    method, path, body, timeout, headers=hop_headers
                )
            self.stats.proxied += 1
            if 200 <= status < 300:
                self.stats.completed += 1
            return status, payload, headers
        except ShardUnavailable as error:
            self.stats.shard_failures += 1
            if metrics.enabled:
                metrics.counter("serve.shard.failures").inc()
            self._wake.set()  # the supervisor respawns without waiting
            return self._unavailable(str(error))
        finally:
            self._slots.release()

    # ------------------------------------------------------------------
    # Aggregated introspection.
    # ------------------------------------------------------------------

    def _process_label(self) -> str:
        return "router"

    def _metrics_series(self):
        """Fleet exposition: router counters, per-shard series, aggregate.

        Three label shapes so one scrape answers every question:
        ``{process="router"}`` is the router's own registry, ``{shard=N}``
        is each live worker's, and the *unlabeled* series is the
        fleet-wide aggregate of the shards (counters summed, histograms
        merged) — the same shape a single-process daemon exposes.
        """
        series = [({"process": "router"}, self.obs.metrics.snapshot())]
        shard_snaps = []
        for shard in self._shards:
            if not shard.alive():
                continue
            try:
                status, payload, _ = shard.request(
                    "GET", f"/{API_VERSION}/debug/metrics", {},
                    PROBE_TIMEOUT_SECONDS,
                )
            except ShardUnavailable:
                self._wake.set()
                continue
            if status != 200 or not isinstance(payload, dict):
                continue
            snapshot = payload.get("snapshot")
            if not isinstance(snapshot, dict):
                continue
            shard_snaps.append(snapshot)
            series.append(({"shard": str(shard.index)}, snapshot))
        if shard_snaps:
            series.append(({}, merge_snapshots(shard_snaps)))
        return series

    def export_trace(self) -> Dict[str, Any]:
        """One Chrome trace for the whole fleet.

        Merges each live shard's ``/debug/trace`` export into the
        router's own: shard events keep their pid (or get a synthetic one
        when the shard shares the router's pid, as LocalShards do, so
        per-track nesting stays balanced), and their timestamps are
        rebased from the shard's clock onto the router's via the
        exported ``epoch_wall`` instants.
        """
        merged = super().export_trace()
        events = merged["traceEvents"]
        own_pid = os.getpid()
        own_epoch = self.obs.tracer.epoch_wall
        for shard in self._shards:
            if not shard.alive():
                continue
            try:
                status, payload, _ = shard.request(
                    "GET", f"/{API_VERSION}/debug/trace", {},
                    PROBE_TIMEOUT_SECONDS,
                )
            except ShardUnavailable:
                self._wake.set()
                continue
            if status != 200 or not isinstance(payload, dict):
                continue
            shard_events = payload.get("traceEvents")
            if not isinstance(shard_events, list):
                continue
            other = payload.get("otherData") or {}
            shard_pid = other.get("pid")
            pid = (
                shard_pid
                if isinstance(shard_pid, int) and shard_pid != own_pid
                else 1_000_000 + shard.index
            )
            epoch = other.get("epoch_wall")
            offset = (
                max(0.0, (epoch - own_epoch) * 1_000_000.0)
                if isinstance(epoch, (int, float))
                else 0.0
            )
            for event in shard_events:
                if not isinstance(event, dict):
                    continue
                stamped = dict(event)
                stamped["pid"] = pid
                ts = stamped.get("ts")
                if stamped.get("ph") != "M" and isinstance(ts, (int, float)):
                    stamped["ts"] = ts + offset
                events.append(stamped)
        return merged

    def _healthz_payload(self) -> Dict[str, Any]:
        """Per-shard liveness + store stats, aggregated for the fleet."""
        shards = []
        programs = 0
        all_ok = True
        for shard in self._shards:
            entry: Dict[str, Any] = {
                "shard": shard.index,
                "alive": shard.alive(),
                "pid": shard.pid,
                "port": shard.port,
                "respawns": shard.respawns,
                "programs": 0,
                "sessions": None,
                "store": None,
            }
            if entry["alive"]:
                try:
                    health = shard.healthz()
                    entry["programs"] = health.get("programs", 0)
                    entry["sessions"] = health.get("sessions")
                    entry["store"] = health.get("store")
                except ShardUnavailable:
                    entry["alive"] = False
            if not entry["alive"]:
                all_ok = False
                self._wake.set()
            programs += entry["programs"]
            shards.append(entry)
        return {
            "ok": all_ok,
            "programs": programs,
            "pid": os.getpid(),
            "shard": None,  # the router itself holds no programs
            "shards": shards,
        }

    def _stats_payload(self) -> Dict[str, Any]:
        shards = []
        for shard in self._shards:
            entry: Dict[str, Any] = {
                "shard": shard.index,
                "alive": shard.alive(),
                "respawns": shard.respawns,
                "stats": None,
            }
            if entry["alive"]:
                try:
                    status, payload, _ = shard.request(
                        "GET", f"/{API_VERSION}/stats", {},
                        PROBE_TIMEOUT_SECONDS,
                    )
                    if status == 200:
                        entry["stats"] = payload
                except ShardUnavailable:
                    entry["alive"] = False
                    self._wake.set()
            shards.append(entry)
        return {
            "router": {
                "requests": self.stats.requests,
                "proxied": self.stats.proxied,
                "completed": self.stats.completed,
                "rejected": self.stats.rejected,
                "shard_failures": self.stats.shard_failures,
                "respawns": self.stats.respawns,
                "config": {
                    "shards": len(self._shards),
                    "max_queue": self.config.serve_max_queue
                    * len(self._shards),
                    "rebalance_seconds": self.config.serve_rebalance,
                },
            },
            "shards": shards,
        }

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5)
            self._supervisor = None
        super().close()
        for shard in self._shards:
            shard.close()


def create_server(
    config: Optional[ICPConfig] = None, obs: Optional[Observability] = None
):
    """The serve front the config asks for.

    ``serve_shards == 0`` keeps the single-process daemon;
    ``serve_shards >= 1`` fronts that many worker processes with a
    :class:`ShardRouter`.  Both speak the same HTTP surface.
    """
    config = config or ICPConfig()
    if config.serve_shards >= 1:
        return ShardRouter(config, obs=obs)
    return AnalysisServer(config, obs=obs)
