"""Configuration for the interprocedural constant propagation pipeline.

:class:`ICPConfig` is the one table of configuration keys.  Each field
declares its default once, and its metadata carries the key's help text
and allowed values: ``choices``, or numeric bounds ``min`` / ``max``
(inclusive) and ``above`` (exclusive).  :meth:`ICPConfig.from_dict`
validation, the config-backed ``repro-icp`` flags and the key table in
docs/API.md are all derived from these fields.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import (
    Any,
    Dict,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.errors import ConfigError
from repro.ir.lattice import BOTTOM, LatticeValue


def _key(default: Any, help: str, **allowed: Any) -> Any:
    """One config key: its default, help text and allowed values."""
    return field(default=default, metadata={"help": help, **allowed})


@dataclass(frozen=True)
class ICPConfig:
    """Knobs of the ICP pipeline, mirroring the paper's options.

    Every field is one key; see its ``help`` metadata (or the key table in
    docs/API.md) for what it does.
    """

    propagate_floats: bool = _key(
        True,
        "the paper's optional floating-point constant propagation "
        "(Section 4); off, float constants become BOTTOM at every "
        "interprocedural boundary (Tables 3-5 run with it off)",
    )
    propagate_returns: bool = _key(
        False,
        "the Section 3.2 return-constant extension: one extra reverse "
        "traversal (off in all paper tables)",
    )
    propagate_exit_values: bool = _key(
        False,
        "also compute each procedure's constant exit values for modified "
        "formals and globals and use them after calls (runs the "
        "return extension too)",
    )
    engine: str = _key(
        "scc",
        "intraprocedural method: scc (Wegman-Zadeck, the paper's choice) "
        "or simple (plain iterative, for ablation)",
        choices=("scc", "simple"),
    )
    context_mode: str = _key(
        "carini-hind",
        "interprocedural strategy: carini-hind (the paper's one-pass "
        "traversal, with the flow-insensitive fallback on recursion) or "
        "value-contexts (tabulation keyed by the callee's abstract entry "
        "environment)",
        choices=("carini-hind", "value-contexts"),
    )
    context_max_per_proc: int = _key(
        64,
        "value-contexts blowup guard: beyond this many entry environments "
        "a procedure degrades to one widened context seeded from the "
        "flow-insensitive answer",
        min=1,
    )
    prune_dead_branches: bool = _key(
        True, "let the transformation delete branches decided by constants"
    )
    insert_entry_assignments: bool = _key(
        False,
        "make the transformation also materialize 'v = c;' assignments "
        "at procedure entry",
    )
    allow_missing: bool = _key(
        False,
        "tolerate calls to procedures missing from the program (treated "
        "maximally conservatively)",
    )
    entry: str = _key("main", "name of the root procedure")
    cache: bool = _key(
        False,
        "memoize per-procedure results in a content-addressed summary "
        "cache, so an unchanged procedure is not re-analyzed",
    )
    store_dir: Optional[str] = _key(
        None,
        "directory of the crash-safe on-disk summary store (implies "
        "cache); summaries survive process restarts",
    )
    store_max_bytes: int = _key(
        64 * 1024 * 1024,
        "size budget of the on-disk store; inserts evict least-recently-"
        "used entries beyond it",
        min=1,
    )
    serve_host: str = _key("127.0.0.1", "bind address of the serving daemon")
    serve_port: int = _key(
        8100, "bind port of the serving daemon (0 picks a free one)",
        min=0, max=65535,
    )
    serve_workers: int = _key(2, "analysis worker threads of the daemon", min=1)
    serve_max_queue: int = _key(
        8,
        "admitted-but-unfinished request bound; beyond it requests get "
        "HTTP 503 with Retry-After",
        min=1,
    )
    serve_timeout_seconds: float = _key(
        10.0,
        "default per-request deadline; an analyze request that exceeds it "
        "degrades to the flow-insensitive solution",
        above=0,
    )
    serve_max_sessions: int = _key(
        32,
        "resident analysis sessions; beyond it the least-recently-used "
        "program's session is dropped",
        min=1,
    )
    serve_shards: int = _key(
        0,
        "worker processes behind a consistent-hash router; 0 keeps the "
        "single-process daemon",
        min=0,
    )
    serve_rebalance: float = _key(
        0.5,
        "seconds between the router's shard health sweeps; a dead shard "
        "is respawned within roughly this interval",
        above=0,
    )
    serve_metrics: bool = _key(
        True,
        "keep a metrics registry in every serving process and expose it "
        "at GET /v1/metrics (off, the endpoint answers 404)",
    )
    serve_trace: bool = _key(
        False,
        "keep a span tracer in every serving process and export it at "
        "GET /v1/debug/trace (buffers grow with traffic)",
    )
    trace_propagate: bool = _key(
        True,
        "mint or honor a request id per request, propagate it router to "
        "shard, and echo it on every response",
    )
    serve_log_enabled: bool = _key(
        True,
        "write one JSON access-log line per request to stderr and keep "
        "the GET /v1/debug/last ring",
    )
    serve_log_slow_ms: float = _key(
        500.0,
        "requests at least this slow (ms) log at warning severity",
        min=0,
    )
    serve_log_ring: int = _key(
        256, "access-log entries retained for GET /v1/debug/last", min=1
    )
    diag_rules: Optional[Tuple[str, ...]] = _key(
        None,
        "rule IDs the diagnostics engine runs (None runs every rule in "
        "repro.diag.findings.RULES)",
    )
    diag_severity_floor: str = _key(
        "note",
        "weakest finding severity to report: note, warning or error",
    )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ICPConfig":
        """Build a validated config from a plain mapping.

        The one construction path shared by the CLI, ``repro.api``, serve
        shards and analysis sessions.  Unknown keys raise
        :class:`~repro.errors.ConfigError` (a ``ValueError``), catching
        typos like ``caching`` early, as does any value that does not fit
        its field's type and allowed values.  Omitted keys take the field
        defaults.
        """
        unknown = sorted(set(data) - set(FIELDS))
        if unknown:
            raise ConfigError(
                f"unknown ICPConfig keys: {unknown}; known keys: {sorted(FIELDS)}"
            )
        normalized = dict(data)
        if isinstance(normalized.get("diag_rules"), (list, tuple)):
            # JSON round trips tuples as lists; normalize (sorted, deduped)
            # so to_dict/from_dict is a fixpoint.
            normalized["diag_rules"] = tuple(
                sorted(set(normalized["diag_rules"]))
            )
        for name, value in normalized.items():
            _check(name, value)
        config = cls(**normalized)
        from repro.diag.findings import RULES, SEVERITIES

        if config.diag_severity_floor not in SEVERITIES:
            raise ConfigError(
                f"diag_severity_floor must be one of {SEVERITIES}, "
                f"got {config.diag_severity_floor!r}"
            )
        if config.diag_rules is not None:
            unknown_rules = sorted(set(config.diag_rules) - set(RULES))
            if unknown_rules:
                raise ConfigError(
                    f"unknown diag_rules: {unknown_rules}; "
                    f"known rule IDs: {sorted(RULES)}"
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


#: Every key's dataclass field, and its annotation resolved once.
FIELDS = {f.name: f for f in fields(ICPConfig)}
HINTS: Dict[str, Any] = get_type_hints(ICPConfig)

_KINDS = {
    bool: "a bool", int: "an int", float: "a number", str: "a non-empty string"
}


def _describe(hint: Any) -> str:
    if get_origin(hint) is Union:  # Optional[X]
        return _describe(get_args(hint)[0]) + " or None"
    if get_origin(hint) is tuple:  # Tuple[str, ...]
        return "a list of strings"
    return _KINDS[hint]


def _fits(hint: Any, value: Any) -> bool:
    if get_origin(hint) is Union:
        return value is None or _fits(get_args(hint)[0], value)
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_fits(str, v) for v in value)
    if hint is bool or isinstance(value, bool):
        # A bool is an int to isinstance, never to a config key.
        return hint is bool and isinstance(value, bool)
    if hint is str:
        return isinstance(value, str) and value != ""
    return isinstance(value, (int, float) if hint is float else hint)


def _check(name: str, value: Any) -> None:
    """Reject ``value`` unless it fits key ``name``'s type and allowed values."""
    if not _fits(HINTS[name], value):
        raise ConfigError(f"{name} must be {_describe(HINTS[name])}, got {value!r}")
    if value is None:
        return
    meta = FIELDS[name].metadata
    if "choices" in meta and value not in meta["choices"]:
        raise ConfigError(f"{name} must be one of {meta['choices']}, got {value!r}")
    if "min" in meta and value < meta["min"]:
        raise ConfigError(f"{name} must be >= {meta['min']}, got {value!r}")
    if "max" in meta and value > meta["max"]:
        raise ConfigError(f"{name} must be <= {meta['max']}, got {value!r}")
    if "above" in meta and value <= meta["above"]:
        raise ConfigError(f"{name} must be > {meta['above']}, got {value!r}")
