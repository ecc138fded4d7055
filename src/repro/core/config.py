"""Configuration for the interprocedural constant propagation pipeline."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.ir.lattice import BOTTOM, LatticeValue


@dataclass(frozen=True)
class ICPConfig:
    """Knobs of the ICP pipeline, mirroring the paper's options.

    :param propagate_floats: the paper's optional floating-point constant
        propagation (Section 4).  When False, floating-point constants are
        demoted to BOTTOM at every *interprocedural* boundary (argument
        recording, global recording, block-data collection); intraprocedural
        folding is unaffected.  Tables 3–5 of the paper run with this off.
    :param propagate_returns: enable the Section 3.2 return-constant
        extension (one extra reverse traversal; off in all paper tables).
    :param propagate_exit_values: with ``propagate_returns``, also compute
        each procedure's constant *exit values* for modified formals and
        globals — the full "returned constant parameters and globals" of
        Section 3.2 — and let the transformation exploit them after calls.
    :param engine: intraprocedural method: ``"scc"`` (Wegman–Zadeck, the
        paper's choice) or ``"simple"`` (plain iterative, for ablation).
    :param context_mode: interprocedural propagation strategy:
        ``"carini-hind"`` (the paper's one-pass traversal, which degrades
        to the flow-insensitive solution on recursive call chains) or
        ``"value-contexts"`` (Padhye–Khedker tabulation keyed by the
        callee's abstract entry environment, giving recursion genuine
        per-context answers instead of the FI fallback).
    :param context_max_per_proc: blowup guard of ``"value-contexts"``
        mode: the maximum distinct entry environments tabulated per
        procedure.  Beyond it the procedure degrades to a single widened
        context seeded from the flow-insensitive fallback (the
        carini-hind answer), counted in the report rather than
        diverging.
    :param prune_dead_branches: let the transformation delete branches decided
        by constants.
    :param insert_entry_assignments: make the transformation also materialize
        ``v = c;`` assignments at procedure entry (the paper's description of
        how constants are propagated into a procedure).
    :param allow_missing: tolerate calls to procedures that are not in the
        program (treated maximally conservatively), the paper's "missing
        procedures" provision.
    :param entry: name of the root procedure.
    :param workers: worker count for the wavefront scheduler.  ``1`` (the
        default) analyzes serially; ``0`` uses every CPU core; ``N > 1``
        dispatches each PCG wavefront level to ``N`` workers.
    :param executor: worker pool flavor, ``"thread"`` (default) or
        ``"process"`` (opt-in, pays per-task pickling).
    :param cache: memoize per-procedure intraprocedural results in a
        content-addressed summary cache, so re-running the pipeline over an
        unchanged procedure skips its re-analysis entirely.
    :param store_dir: directory of the persistent summary store.  When set,
        the summary cache gains a crash-safe on-disk backing tier (implies
        ``cache``): summaries survive process restarts, and a warm rerun —
        or a restarted ``repro-icp serve`` daemon — reuses them.
    :param store_max_bytes: size budget of the persistent store; inserts
        evict least-recently-used entries beyond it.
    :param store_remote_url: base URL of a ``repro-icp summary-server``
        (e.g. ``http://10.0.0.5:8200``).  When set (requires
        ``store_dir``), the persistent store gains a third, fleet-shared
        tier: local misses are fetched from the remote service and
        promoted to disk, and local writes are replicated to it.  Every
        network error fails open to the local tiers.
    :param store_remote_timeout_ms: per-request deadline of the remote
        summary tier, in milliseconds.  After an error the client backs
        off briefly, so an unreachable service costs at most one timeout
        per cooldown window rather than one per lookup.
    :param store_codec: on-disk/wire encoding of store entries:
        ``"json"`` (the default, human-inspectable) or ``"binary"`` (the
        length-prefixed struct codec — cheaper to decode on the
        warm-start hot path).  Reads always sniff the entry header, so
        either codec reads stores written by the other.
    :param serve_host: bind address of the ``repro-icp serve`` daemon.
    :param serve_port: bind port of the daemon (0 picks a free port).
    :param serve_workers: analysis worker threads the daemon runs.
    :param serve_max_queue: admitted-but-unfinished request bound; beyond
        it the daemon answers HTTP 503 with ``Retry-After`` (backpressure).
    :param serve_timeout_seconds: default per-request deadline; an analyze
        request that exceeds it degrades to the flow-insensitive solution.
    :param serve_max_sessions: resident :class:`AnalysisSession` bound;
        beyond it the least-recently-used program's session is dropped.
    :param serve_shards: worker *processes* behind the serve front router.
        ``0`` (the default) keeps the single-process daemon; ``N >= 1``
        spawns N shard processes that consistent-hash program ids and
        coordinate only through the shared persistent store.
    :param serve_rebalance: seconds between the router's shard health
        sweeps; a shard found dead is respawned (and warm-starts from the
        store) within roughly this interval.
    :param serve_metrics: keep a live metrics registry in every serving
        process and expose it at ``GET /metrics`` (Prometheus text; the
        router aggregates its shards under per-shard labels).  Off, the
        endpoint answers 404 and instrumentation costs one boolean check.
    :param serve_trace: keep a live span tracer in every serving process
        and expose its buffered events at ``GET /debug/trace`` (the
        router merges shard traces into one Chrome export).  A debugging
        mode: buffers grow with traffic, so leave it off in production.
    :param trace_propagate: mint a request id per request, honor incoming
        ``X-Repro-Request-Id``/``X-Repro-Trace`` headers, propagate them
        router → shard, and echo the id on every response (error paths
        included).  Off, requests carry no identity at all.
    :param serve_log_enabled: emit one structured JSON access-log line
        per request to stderr and keep the ``/debug/last`` ring
        (``repro-icp serve --quiet`` turns this off).
    :param serve_log_slow_ms: requests slower than this log at
        ``warning`` severity with ``"slow": true``.
    :param serve_log_ring: entries retained for ``GET /debug/last``.
    :param loadgen_clients: concurrent client threads ``repro-icp
        loadgen`` drives against the daemon.
    :param loadgen_ops: total operations the load generator issues across
        all of its clients.
    :param loadgen_programs: distinct programs in the load generator's
        working set (its session-pool pressure knob).
    :param loadgen_procs: procedures per generated loadgen program; sizes
        the cost of a cold load relative to a warm query.
    :param loadgen_seed: RNG seed of the generated loadgen corpus, edit
        scripts, and traffic mix.
    :param diag_rules: rule IDs the diagnostics engine should run (``None``
        enables every rule; see ``repro.diag.findings.RULES``).
    :param diag_severity_floor: weakest finding severity to report
        (``"note"``, ``"warning"``, or ``"error"``).
    :param diag_sarif: default the ``check`` command's output to SARIF.
    """

    propagate_floats: bool = True
    propagate_returns: bool = False
    propagate_exit_values: bool = False
    engine: str = "scc"
    context_mode: str = "carini-hind"
    context_max_per_proc: int = 64
    prune_dead_branches: bool = True
    insert_entry_assignments: bool = False
    allow_missing: bool = False
    entry: str = "main"
    workers: int = 1
    executor: str = "thread"
    cache: bool = False
    store_dir: Optional[str] = None
    store_max_bytes: int = 64 * 1024 * 1024
    store_remote_url: Optional[str] = None
    store_remote_timeout_ms: int = 250
    store_codec: str = "json"
    serve_host: str = "127.0.0.1"
    serve_port: int = 8100
    serve_workers: int = 2
    serve_max_queue: int = 8
    serve_timeout_seconds: float = 10.0
    serve_max_sessions: int = 32
    serve_shards: int = 0
    serve_rebalance: float = 0.5
    serve_metrics: bool = True
    serve_trace: bool = False
    trace_propagate: bool = True
    serve_log_enabled: bool = True
    serve_log_slow_ms: float = 500.0
    serve_log_ring: int = 256
    loadgen_clients: int = 8
    loadgen_ops: int = 400
    loadgen_programs: int = 20
    loadgen_procs: int = 20
    loadgen_seed: int = 0
    diag_rules: Optional[Tuple[str, ...]] = None
    diag_severity_floor: str = "note"
    diag_sarif: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ICPConfig":
        """Build a validated config from a plain mapping.

        The one construction path shared by the CLI, ``bench.suite``, and
        analysis sessions.  Unknown keys raise ``ValueError`` (catching
        typos like ``worker`` early), as do out-of-domain values for the
        enumerated knobs.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ICPConfig keys: {unknown}; known keys: {sorted(known)}"
            )
        normalized = dict(data)
        if isinstance(normalized.get("diag_rules"), (list, tuple)):
            # JSON round trips tuples as lists; normalize (sorted, deduped)
            # so to_dict/from_dict is a fixpoint.
            normalized["diag_rules"] = tuple(
                sorted(set(normalized["diag_rules"]))
            )
        config = cls(**normalized)
        if config.engine not in ("scc", "simple"):
            raise ValueError(
                f"engine must be 'scc' or 'simple', got {config.engine!r}"
            )
        if config.context_mode not in ("carini-hind", "value-contexts"):
            raise ValueError(
                f"context_mode must be 'carini-hind' or 'value-contexts', "
                f"got {config.context_mode!r}"
            )
        if (
            not isinstance(config.context_max_per_proc, int)
            or isinstance(config.context_max_per_proc, bool)
            or config.context_max_per_proc < 1
        ):
            raise ValueError(
                f"context_max_per_proc must be an int >= 1, "
                f"got {config.context_max_per_proc!r}"
            )
        if config.executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {config.executor!r}"
            )
        if not isinstance(config.workers, int) or config.workers < 0:
            raise ValueError(
                f"workers must be an int >= 0 (0 = all cores), "
                f"got {config.workers!r}"
            )
        if not config.entry or not isinstance(config.entry, str):
            raise ValueError(f"entry must be a procedure name, got {config.entry!r}")
        if config.store_dir is not None and (
            not isinstance(config.store_dir, str) or not config.store_dir
        ):
            raise ValueError(
                f"store_dir must be a directory path or None, "
                f"got {config.store_dir!r}"
            )
        if (
            not isinstance(config.store_max_bytes, int)
            or isinstance(config.store_max_bytes, bool)
            or config.store_max_bytes <= 0
        ):
            raise ValueError(
                f"store_max_bytes must be a positive int, "
                f"got {config.store_max_bytes!r}"
            )
        if config.store_remote_url is not None:
            if not isinstance(config.store_remote_url, str) or not (
                config.store_remote_url.startswith("http://")
                or config.store_remote_url.startswith("https://")
            ):
                raise ValueError(
                    f"store_remote_url must be an http(s) base URL or None, "
                    f"got {config.store_remote_url!r}"
                )
            if config.store_dir is None:
                raise ValueError(
                    "store_remote_url requires store_dir: the remote tier "
                    "sits behind the local disk tier, never replaces it"
                )
        if (
            not isinstance(config.store_remote_timeout_ms, int)
            or isinstance(config.store_remote_timeout_ms, bool)
            or config.store_remote_timeout_ms < 1
        ):
            raise ValueError(
                f"store_remote_timeout_ms must be an int >= 1, "
                f"got {config.store_remote_timeout_ms!r}"
            )
        if config.store_codec not in ("json", "binary"):
            raise ValueError(
                f"store_codec must be 'json' or 'binary', "
                f"got {config.store_codec!r}"
            )
        if not config.serve_host or not isinstance(config.serve_host, str):
            raise ValueError(
                f"serve_host must be a bind address, got {config.serve_host!r}"
            )
        if (
            not isinstance(config.serve_port, int)
            or isinstance(config.serve_port, bool)
            or not 0 <= config.serve_port <= 65535
        ):
            raise ValueError(
                f"serve_port must be an int in [0, 65535], "
                f"got {config.serve_port!r}"
            )
        for knob in ("serve_workers", "serve_max_queue", "serve_max_sessions"):
            value = getattr(config, knob)
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 1
            ):
                raise ValueError(f"{knob} must be an int >= 1, got {value!r}")
        if (
            not isinstance(config.serve_timeout_seconds, (int, float))
            or isinstance(config.serve_timeout_seconds, bool)
            or config.serve_timeout_seconds <= 0
        ):
            raise ValueError(
                f"serve_timeout_seconds must be positive, "
                f"got {config.serve_timeout_seconds!r}"
            )
        if (
            not isinstance(config.serve_shards, int)
            or isinstance(config.serve_shards, bool)
            or config.serve_shards < 0
        ):
            raise ValueError(
                f"serve_shards must be an int >= 0 (0 = single process), "
                f"got {config.serve_shards!r}"
            )
        if (
            not isinstance(config.serve_rebalance, (int, float))
            or isinstance(config.serve_rebalance, bool)
            or config.serve_rebalance <= 0
        ):
            raise ValueError(
                f"serve_rebalance must be a positive number of seconds, "
                f"got {config.serve_rebalance!r}"
            )
        for knob in ("serve_metrics", "serve_trace", "trace_propagate",
                     "serve_log_enabled"):
            value = getattr(config, knob)
            if not isinstance(value, bool):
                raise ValueError(f"{knob} must be a bool, got {value!r}")
        if (
            not isinstance(config.serve_log_slow_ms, (int, float))
            or isinstance(config.serve_log_slow_ms, bool)
            or config.serve_log_slow_ms < 0
        ):
            raise ValueError(
                f"serve_log_slow_ms must be a number >= 0, "
                f"got {config.serve_log_slow_ms!r}"
            )
        if (
            not isinstance(config.serve_log_ring, int)
            or isinstance(config.serve_log_ring, bool)
            or config.serve_log_ring < 1
        ):
            raise ValueError(
                f"serve_log_ring must be an int >= 1, "
                f"got {config.serve_log_ring!r}"
            )
        for knob in ("loadgen_clients", "loadgen_ops", "loadgen_programs",
                     "loadgen_procs"):
            value = getattr(config, knob)
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 1
            ):
                raise ValueError(f"{knob} must be an int >= 1, got {value!r}")
        if not isinstance(config.loadgen_seed, int) or isinstance(
            config.loadgen_seed, bool
        ):
            raise ValueError(
                f"loadgen_seed must be an int, got {config.loadgen_seed!r}"
            )
        from repro.diag.findings import RULES, SEVERITIES

        if config.diag_severity_floor not in SEVERITIES:
            raise ValueError(
                f"diag_severity_floor must be one of {SEVERITIES}, "
                f"got {config.diag_severity_floor!r}"
            )
        if config.diag_rules is not None:
            unknown_rules = sorted(set(config.diag_rules) - set(RULES))
            if unknown_rules:
                raise ValueError(
                    f"unknown diag_rules: {unknown_rules}; "
                    f"known rule IDs: {sorted(RULES)}"
                )
        if not isinstance(config.diag_sarif, bool):
            raise ValueError(
                f"diag_sarif must be a bool, got {config.diag_sarif!r}"
            )
        return config

    def to_dict(self) -> Dict[str, Any]:
        """The mapping form of this config; ``from_dict`` round-trips it."""
        return asdict(self)

    def admit_value(self, value) -> bool:
        """May this concrete constant cross a procedure boundary?"""
        if isinstance(value, float) and not self.propagate_floats:
            return False
        return True

    def admit(self, lattice: LatticeValue) -> LatticeValue:
        """Demote inadmissible constants to BOTTOM at the boundary."""
        if lattice.is_const and not self.admit_value(lattice.const_value):
            return BOTTOM
        return lattice
