"""``repro-icp loadgen`` — concurrent-client load generation for serve.

The serving benchmark the ROADMAP's sharding work gates on: drive a
single-process or sharded daemon with realistic mixed traffic and measure
what a client actually sees — p50/p99 latency per operation class and the
saturation throughput of the whole deployment.

The workload models an analysis service under fleet pressure:

- a **working set** of ``loadgen_programs`` generated programs, each with
  a deterministic *edit script* (single-procedure literal mutations, the
  same mutation family the incremental-session suites replay);
- ``loadgen_clients`` threads keeping that many requests permanently
  outstanding (saturation: offered load always exceeds one box's service
  rate), each issuing a seeded mix of analyze / edit / report /
  diagnostics operations;
- clients are **stateless retriers**: an operation that hits a program the
  server no longer has resident (404 after LRU session eviction, a shard
  respawn, or a restart) re-POSTs the source and retries once — the
  latency a real client would pay, charged to the op that paid it.

Because session residency per process is bounded (``serve_max_sessions``),
a working set larger than one process's pool *thrashes* the single-process
daemon — every touch of a cold program pays parse + warm-start — while a
sharded deployment holds ``shards x serve_max_sessions`` programs warm.
That aggregate-capacity effect, on top of per-core parallelism, is what
horizontal sharding buys; this benchmark measures both honestly (the
recorded results carry ``cpu_count``).

Results land in the ``"serve"`` section of ``BENCH_icp.json`` (merged,
never clobbering the cold/warm analysis sections) to track the serving
perf trajectory across PRs.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.generator import GeneratorConfig, generate_program
from repro.core.config import ICPConfig
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.session.mutate import mutate_procedure, render_procedure

#: Operation mix: (kind, weight).  Reads dominate, as they do in serving —
#: an analysis daemon answers many report/diagnostics queries per edit
#: (editors debounce), and full re-submissions of a known program are rare.
OP_MIX: Tuple[Tuple[str, int], ...] = (
    ("report", 55),
    ("diagnostics", 25),
    ("edit", 15),
    ("analyze", 5),
)

#: Client-side socket timeout; far above any worker deadline so the only
#: timeouts measured are the server's own (degradation/504), not ours.
CLIENT_TIMEOUT_SECONDS = 120.0


def edit_script(
    seed: int, edits: int, procs: Optional[int] = None
) -> List[str]:
    """Deterministic source versions of one generated program.

    ``versions[0]`` is the pristine program; each later version mutates
    one procedure's literals (analysis-safe by construction, from
    :mod:`repro.session.mutate`).  Both the load generator and the serve
    differential suite replay these scripts.  ``procs`` sizes the program
    (``GeneratorConfig.n_procs``); ``None`` keeps the generator default.
    """
    config = GeneratorConfig(n_procs=procs) if procs else None
    program = generate_program(seed, config)
    versions = [pretty_program(program)]
    rng = random.Random((seed << 8) ^ 0x10ADCE)
    for _ in range(edits):
        program = parse_program(versions[-1])
        procs = list(program.procedures)
        index = 0
        mutated = procs[0]
        for _attempt in range(8):  # literal-free procedures mutate to no-ops
            index = rng.randrange(len(procs))
            mutated = mutate_procedure(procs[index], rng.randrange(1 << 30))
            if render_procedure(mutated) != render_procedure(procs[index]):
                break
        procs[index] = mutated
        versions.append(
            pretty_program(
                ast.Program(program.global_names, program.inits, procs)
            )
        )
    return versions


@dataclass
class LoadgenCorpus:
    """The generated working set: program ids and their edit scripts."""

    ids: List[str]
    versions: Dict[str, List[str]]

    @classmethod
    def build(
        cls,
        programs: int,
        seed: int,
        edits: int = 4,
        procs: Optional[int] = None,
    ) -> "LoadgenCorpus":
        ids = [f"lg{index:03d}" for index in range(programs)]
        versions = {
            pid: edit_script(seed * 1009 + index, edits, procs)
            for index, pid in enumerate(ids)
        }
        return cls(ids, versions)


def _http_request(
    base_url: str,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
) -> Tuple[int, Dict[str, Any]]:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base_url + "/v1" + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(
            request, timeout=CLIENT_TIMEOUT_SECONDS
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            payload = json.loads(error.read())
        except (ValueError, UnicodeDecodeError):
            payload = {"error": "unreadable error body"}
        return error.code, payload


#: Server-side truths scraped from ``/metrics`` around a run, keyed by the
#: result-dict name.  Client-facing counters (requests, 503/504) prefer the
#: router's own registry (``{process="router"}``) when present; shard-side
#: counters (degradations, store traffic) read the unlabeled fleet
#: aggregate, which is also what a single-process daemon exposes.
_SCRAPE_COUNTERS: Tuple[Tuple[str, str, bool], ...] = (
    ("requests", "repro_http_requests_total", True),
    ("rejected_503", "repro_http_status_503_total", True),
    ("timeout_504", "repro_http_status_504_total", True),
    ("degraded", "repro_serve_degraded_total", False),
    ("store_hits", "repro_store_hits_total", False),
    ("store_misses", "repro_store_misses_total", False),
)


def scrape_server_counters(base_url: str) -> Optional[Dict[str, float]]:
    """The server's own counters, from ``GET /metrics`` (None on failure).

    Loadgen scrapes before and after a run; the delta is the server-side
    ledger of the run — degradations and rejections as the *server*
    counted them, cross-checkable against what clients observed.
    """
    from repro.obs.promexport import parse_prometheus_text

    try:
        with urllib.request.urlopen(
            base_url + "/v1/metrics", timeout=CLIENT_TIMEOUT_SECONDS
        ) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError):
        return None  # metrics disabled (404) or no server: scrape is best-effort
    parsed = parse_prometheus_text(text)
    router = (("process", "router"),)
    counters: Dict[str, float] = {}
    for key, name, prefer_front in _SCRAPE_COUNTERS:
        value = parsed.get((name, ()), 0.0)
        if prefer_front and (name, router) in parsed:
            value = parsed[(name, router)]
        counters[key] = float(value)
    return counters


def _scrape_delta(
    before: Optional[Dict[str, float]], after: Optional[Dict[str, float]]
) -> Optional[Dict[str, float]]:
    if before is None or after is None:
        return None
    return {
        key: after.get(key, 0.0) - before.get(key, 0.0) for key in after
    }


@dataclass
class LoadgenResult:
    """What one loadgen run observed, end to end."""

    ops: int = 0
    ok: int = 0
    degraded: int = 0
    rejected: int = 0
    reloads: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    #: Completed-op latencies, per op kind and overall, in seconds.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Server-side counter delta over the timed window (scraped from
    #: ``/metrics`` before and after; None when the scrape failed).
    server: Optional[Dict[str, float]] = None

    @property
    def throughput(self) -> float:
        """Completed (2xx) operations per wall-clock second: the
        saturation throughput when offered load exceeds capacity."""
        return self.ok / self.wall_seconds if self.wall_seconds else 0.0

    def record(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault("all", []).append(seconds)
        self.latencies.setdefault(kind, []).append(seconds)

    def percentile(self, q: float, kind: str = "all") -> float:
        values = sorted(self.latencies.get(kind, ()))
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        rank = q / 100.0 * (len(values) - 1)
        low = int(rank)
        high = min(low + 1, len(values) - 1)
        return values[low] + (values[high] - values[low]) * (rank - low)

    def to_dict(self) -> Dict[str, Any]:
        kinds = {}
        for kind in sorted(self.latencies):
            kinds[kind] = {
                "count": len(self.latencies[kind]),
                "p50_ms": self.percentile(50, kind) * 1000.0,
                "p99_ms": self.percentile(99, kind) * 1000.0,
                "mean_ms": statistics.fmean(self.latencies[kind]) * 1000.0,
            }
        return {
            "ops": self.ops,
            "ok": self.ok,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "reloads": self.reloads,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "throughput_ops_per_s": self.throughput,
            "latency": kinds,
            "server": self.server,
        }


class _Client(threading.Thread):
    """One closed-loop client: fire, observe, retry-on-404, repeat."""

    def __init__(
        self,
        index: int,
        base_url: str,
        corpus: LoadgenCorpus,
        ops: int,
        seed: int,
        result: LoadgenResult,
        lock: threading.Lock,
    ):
        super().__init__(name=f"loadgen-client-{index}", daemon=True)
        self.base_url = base_url
        self.corpus = corpus
        self.ops = ops
        self.rng = random.Random((seed << 16) ^ (index * 7919) ^ 0xC11E47)
        self.result = result
        self.lock = lock
        self._kinds = [kind for kind, weight in OP_MIX for _ in range(weight)]

    def _op(self) -> Tuple[str, str, str, Optional[Dict[str, Any]]]:
        """(kind, method, path, body) of the next operation."""
        pid = self.rng.choice(self.corpus.ids)
        versions = self.corpus.versions[pid]
        kind = self.rng.choice(self._kinds)
        if kind == "report":
            return kind, "GET", f"/programs/{pid}/report", None
        if kind == "diagnostics":
            return kind, "GET", f"/programs/{pid}/diagnostics", None
        if kind == "edit":
            source = versions[self.rng.randrange(1, len(versions))]
            return kind, "POST", f"/programs/{pid}/edits", {"source": source}
        source = versions[self.rng.randrange(len(versions))]
        return "analyze", "POST", f"/programs/{pid}", {"source": source}

    def _reload_body(self, pid: str) -> Dict[str, Any]:
        return {"source": self.corpus.versions[pid][0]}

    def run(self) -> None:
        for _ in range(self.ops):
            kind, method, path, body = self._op()
            pid = path.split("/")[2]
            started = time.perf_counter()
            status, payload = _http_request(self.base_url, method, path, body)
            reloaded = False
            if status == 404:
                # The program fell out of residency (LRU eviction, shard
                # respawn, restart): reload it and retry once.  The retry
                # latency is charged to this op — it is what the client
                # actually waited.
                reloaded = True
                status, payload = _http_request(
                    self.base_url,
                    "POST",
                    f"/programs/{pid}",
                    self._reload_body(pid),
                )
                if status == 200 and method == "GET":
                    status, payload = _http_request(
                        self.base_url, method, path, body
                    )
                elif status == 200 and kind == "edit":
                    status, payload = _http_request(
                        self.base_url, method, path, body
                    )
            elapsed = time.perf_counter() - started
            with self.lock:
                self.result.ops += 1
                if reloaded:
                    self.result.reloads += 1
                if status == 200:
                    self.result.ok += 1
                    self.result.record(kind, elapsed)
                    if isinstance(payload, dict) and payload.get("degraded"):
                        self.result.degraded += 1
                elif status == 503:
                    self.result.rejected += 1
                else:
                    self.result.errors += 1


def run_loadgen(
    base_url: str,
    *,
    clients: int = 8,
    ops: int = 400,
    programs: int = 12,
    seed: int = 0,
    edits: int = 4,
    procs: Optional[int] = None,
    corpus: Optional[LoadgenCorpus] = None,
    preload: bool = True,
) -> LoadgenResult:
    """Drive ``base_url`` with the mixed workload; returns observations.

    ``preload`` POSTs every program once before timing starts, so the
    measured window is steady-state serving (cold-load cost is the serve
    bench's ``warm`` section's business, not this one's).
    """
    corpus = corpus or LoadgenCorpus.build(programs, seed, edits, procs)
    if preload:
        for pid in corpus.ids:
            status, payload = _http_request(
                base_url, "POST", f"/programs/{pid}",
                {"source": corpus.versions[pid][0]},
            )
            if status != 200:
                raise RuntimeError(
                    f"preload of {pid} failed: HTTP {status} {payload}"
                )
    result = LoadgenResult()
    lock = threading.Lock()
    per_client = [ops // clients] * clients
    for index in range(ops % clients):
        per_client[index] += 1
    workers = [
        _Client(index, base_url, corpus, count, seed, result, lock)
        for index, count in enumerate(per_client)
        if count
    ]
    # Bracket the timed window with /metrics scrapes: the delta is the
    # server's own account of the run (degradations, 503s, store traffic).
    before = scrape_server_counters(base_url)
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    result.wall_seconds = time.perf_counter() - started
    result.server = _scrape_delta(before, scrape_server_counters(base_url))
    return result


def run_shard_comparison(
    config: ICPConfig,
    shard_counts: Sequence[int],
    *,
    out=None,
) -> Dict[str, Any]:
    """Boot a fresh deployment per shard count and loadgen each one.

    Every run gets its own store directory (no warm bleed-through between
    runs) and the same seeded corpus and traffic, so the only variable is
    the deployment shape.  ``shard_counts`` of ``1`` means the
    single-process daemon (no router hop — the PR 5 baseline).
    """
    from repro.serve import create_server

    out = out if out is not None else sys.stdout
    corpus = LoadgenCorpus.build(
        config.loadgen_programs,
        config.loadgen_seed,
        procs=config.loadgen_procs,
    )
    runs: Dict[str, Any] = {}
    for shards in shard_counts:
        with tempfile.TemporaryDirectory(prefix="repro-loadgen-store-") as tmp:
            run_config = ICPConfig.from_dict(
                {
                    **config.to_dict(),
                    "store_dir": os.path.join(tmp, "store"),
                    "serve_host": "127.0.0.1",
                    "serve_port": 0,
                    "serve_shards": 0 if shards <= 1 else shards,
                }
            )
            server = create_server(run_config)
            try:
                host, port = server.start()
                result = run_loadgen(
                    f"http://{host}:{port}",
                    clients=config.loadgen_clients,
                    ops=config.loadgen_ops,
                    programs=config.loadgen_programs,
                    seed=config.loadgen_seed,
                    corpus=corpus,
                )
            finally:
                server.close()
        runs[str(shards)] = result.to_dict()
        print(
            f"shards={shards}: {result.ok}/{result.ops} ok, "
            f"{result.reloads} reloads, {result.rejected} rejected, "
            f"p50 {result.percentile(50) * 1000:.1f}ms, "
            f"p99 {result.percentile(99) * 1000:.1f}ms, "
            f"{result.throughput:.1f} ops/s over {result.wall_seconds:.1f}s",
            file=out,
        )
    section: Dict[str, Any] = {
        "schema": "repro-icp/loadgen/v1",
        "cpu_count": os.cpu_count(),
        "clients": config.loadgen_clients,
        "ops": config.loadgen_ops,
        "programs": config.loadgen_programs,
        "procs_per_program": config.loadgen_procs,
        "seed": config.loadgen_seed,
        "max_sessions_per_process": config.serve_max_sessions,
        "workers_per_process": config.serve_workers,
        "runs": runs,
    }
    counts = sorted(int(n) for n in runs)
    if len(counts) >= 2 and runs[str(counts[0])]["throughput_ops_per_s"]:
        low, high = str(counts[0]), str(counts[-1])
        section["speedup"] = (
            runs[high]["throughput_ops_per_s"]
            / runs[low]["throughput_ops_per_s"]
        )
        print(
            f"saturation throughput x{section['speedup']:.2f} at "
            f"{high} shard(s) vs {low}",
            file=out,
        )
    return section


def merge_bench_json(path: str, section: Dict[str, Any]) -> None:
    """Write ``section`` as the ``"serve"`` key of a BENCH json file.

    The analysis bench's cold/warm sections are preserved; only the serve
    section is replaced.  A missing or unreadable file starts fresh.
    """
    payload: Dict[str, Any] = {"schema": "repro-icp/bench/v1"}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing, dict):
            payload = existing
    except (OSError, ValueError):
        pass
    payload["serve"] = section
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
