"""Shard worker entrypoint for the sharded serve daemon.

One worker process = one :class:`~repro.serve.daemon.AnalysisServer` bound
to an ephemeral local socket.  The router spawns workers through the
spawn-safe context from :func:`repro.serve.router.spawn_context` (never
fork: the router holds locks and runs threads), so this entrypoint must be
— and is — a module-level picklable.

A worker owns nothing durable: its sessions are rebuildable from source,
and its summaries live in the persistent store *shared by every shard*.
That makes workers disposable by design — the router SIGKILLs or loses one
and respawns a replacement, which warm-starts any previously seen program
from the store with zero engine runs.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from repro.core.config import ICPConfig


def worker_config(config: ICPConfig) -> Dict[str, Any]:
    """The config mapping a shard worker is spawned with.

    Identical to the router's config except for the listening socket: a
    worker binds an ephemeral loopback port (reported back through the
    spawn pipe) and never recursively shards.

    The observability knobs (``serve_metrics``, ``serve_trace``,
    ``trace_propagate``, ``serve_log_*``) ride along unchanged: each
    worker self-constructs its own registry/tracer/logger from them, and
    the router aggregates over ``/debug/metrics`` and ``/debug/trace``.
    """
    data = config.to_dict()
    data.update(
        serve_host="127.0.0.1",
        serve_port=0,
        serve_shards=0,
    )
    return data


def run_worker(config_data: Dict[str, Any], shard_index: int, conn) -> None:
    """Process entrypoint: serve one shard until the process is killed.

    ``conn`` is the router's spawn pipe; the worker reports
    ``(pid, port)`` through it once its socket is bound, then serves
    forever.  Module-level so the spawn start method can pickle it.
    """
    from repro.serve.daemon import AnalysisServer

    config = ICPConfig.from_dict(config_data)
    server = AnalysisServer(config, shard_index=shard_index)
    _, port = server.start()
    conn.send((os.getpid(), port))
    conn.close()
    try:
        while True:
            # The accept loop runs on a daemon thread; the main thread just
            # keeps the process alive until the router terminates it.
            time.sleep(60)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        server.close()
