"""The ``repro-icp serve`` analysis daemon — single-process or sharded.

A long-lived HTTP front end over :class:`~repro.session.AnalysisSession`:
programs are loaded once, edits re-analyze incrementally, and summaries
persist in the shared :class:`~repro.store.SummaryStore` so restarts stay
warm.  See :mod:`repro.serve.daemon` for the endpoint catalog and the
backpressure/degradation model, and :mod:`repro.serve.router` for the
process-per-shard deployment (``serve_shards >= 1``): a consistent-hash
front router over disposable worker processes that coordinate only
through the shared store.  :func:`create_server` picks the right front
for a config.

Every front wraps its dispatch in the fleet observability envelope
(:mod:`repro.serve.context`): per-request ids echoed in
``X-Repro-Request-Id``, cross-process trace propagation over
``X-Repro-Trace``, Prometheus ``/metrics``, and a structured JSON
access log with a ``/debug/last`` ring.
"""

from repro.serve.context import (
    REQUEST_ID_HEADER,
    TRACE_HEADER,
    RequestContext,
)
from repro.serve.daemon import (
    API_VERSION,
    RETRY_AFTER_SECONDS,
    AnalysisServer,
    JSONHTTPFront,
    ServeStats,
    serve_observability,
    split_api_version,
)
from repro.serve.hashring import HashRing
from repro.serve.router import (
    LocalShard,
    ProcessShard,
    RouterStats,
    ShardRouter,
    ShardUnavailable,
    create_server,
)

__all__ = [
    "API_VERSION",
    "AnalysisServer",
    "HashRing",
    "JSONHTTPFront",
    "LocalShard",
    "ProcessShard",
    "REQUEST_ID_HEADER",
    "RETRY_AFTER_SECONDS",
    "RequestContext",
    "RouterStats",
    "ServeStats",
    "ShardRouter",
    "ShardUnavailable",
    "TRACE_HEADER",
    "create_server",
    "serve_observability",
    "split_api_version",
]
