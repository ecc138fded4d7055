"""``serve-mixed``: two closed-loop clients against a single-process daemon.

The only workload that exercises ``serve`` and ``store``.  The daemon
(``serve_shards=0``) runs in a process of its own with a persistent
summary store in a temporary directory, and holds fewer sessions
(``serve_max_sessions``) than the working set has programs, so evicted
programs reload: store reads happen on reloads and edits, store writes on
analyze and edit.  Two client threads replay the loadgen op mix
(report / diagnostics / edit / analyze) and retry once after a 404 by
re-posting the program, as ``repro-icp loadgen`` clients do.  One
operation is one client request, retries included.

Each client owns half of the programs, so it always knows which version
of a program the daemon holds.  Correctness, checked after the window:
every 200 payload equals an in-process analysis of that program version.

The traced run hosts the daemon in the benchmark process instead, so that
spans from the daemon's threads join the clients' operations.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import (
    WorkloadResult,
    overhead_ratio,
    peak_rss_mb,
    sha256_text,
    speed_corrected,
)
from spans import SpanRecorder, install

from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.loadgen import OP_MIX, LoadgenCorpus, edit_script
from repro.core.config import ICPConfig
from repro.core.driver import analyze
from repro.core.report import analysis_report
from repro.diag.engine import DiagOptions, run_diagnostics
from repro.lang.pretty import pretty_program
from repro.obs import StructuredLog

PROGRAMS = 12
PROCS_PER_PROGRAM = 12
EDITS_PER_PROGRAM = 4
#: Source characters of a working-set program's first version.
SIZE_BAND = (8_500, 11_500)
#: Resident sessions: fewer than the working set, so programs reload.
MAX_SESSIONS = 10
CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0
#: Daemons booted, preloaded and driven in an end-to-end run.
REPLAYS = 3
#: The traced run's windows, untraced and traced in turn.
TRACE_WINDOWS = 4

HERE = os.path.dirname(os.path.abspath(__file__))


def build_corpus(seed: int) -> LoadgenCorpus:
    """The working set: loadgen edit scripts of generated programs whose
    first version's source size falls in ``SIZE_BAND``, which keeps the
    reload and edit costs alike across seeds while the programs vary."""
    rng = random.Random(seed)
    ids = [f"lg{index:03d}" for index in range(PROGRAMS)]
    versions = {}
    shape = GeneratorConfig(n_procs=PROCS_PER_PROGRAM)
    for pid in ids:
        while pid not in versions:
            draw = rng.randrange(1 << 30)
            size = len(pretty_program(generate_program(draw, shape)))
            if SIZE_BAND[0] <= size <= SIZE_BAND[1]:
                versions[pid] = edit_script(draw, EDITS_PER_PROGRAM, PROCS_PER_PROGRAM)
    return LoadgenCorpus(ids, versions)


def daemon_config(store_dir: str) -> ICPConfig:
    return ICPConfig.from_dict(
        {"store_dir": store_dir, "serve_port": 0, "serve_max_sessions": MAX_SESSIONS}
    )


class ProcessDaemon:
    """The daemon in a process of its own (``serve_host.py``)."""

    def __init__(self, src: str, store_dir: str):
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "serve_host.py"),
                "--src", src, "--store-dir", store_dir,
                "--max-sessions", str(MAX_SESSIONS),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> float:
        """Shut down; returns the daemon's peak RSS in MiB."""
        try:
            # Closes the daemon's standard input, which stops it.
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        for line in out.splitlines():
            if line.startswith("PEAK_RSS_KB "):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("daemon exited without reporting its peak RSS")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


class InProcessDaemon:
    """The daemon on a thread of the benchmark process (traced run only)."""

    def __init__(self, store_dir: str):
        from repro.serve import create_server

        config = daemon_config(store_dir)
        self.server = create_server(config)
        self._devnull = open(os.devnull, "w")
        # Same access log as the daemon process, written nowhere.
        self.server.log = StructuredLog(
            enabled=config.serve_log_enabled,
            stream=self._devnull,
            slow_ms=config.serve_log_slow_ms,
            ring=config.serve_log_ring,
        )
        _, self.port = self.server.start()

    def stop(self) -> float:
        self.server.close()
        self._devnull.close()
        return peak_rss_mb()

    kill = stop


class Connection:
    """One client's keep-alive HTTP connection to the daemon."""

    def __init__(self, port: int):
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method, path, body=None, op_id=None) -> Tuple[int, dict]:
        headers = {}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if op_id is not None:
            headers["X-Repro-Request-Id"] = op_id
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
                )
            try:
                self.conn.request(method, "/v1" + path, data, headers)
                response = self.conn.getresponse()
                return response.status, json.loads(response.read())
            except (http.client.HTTPException, ConnectionError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def preload(port: int, corpus: LoadgenCorpus) -> None:
    conn = Connection(port)
    try:
        for pid in corpus.ids:
            status, payload = conn.request(
                "POST", f"/programs/{pid}", {"source": corpus.versions[pid][0]}
            )
            if status != 200:
                raise RuntimeError(f"preload of {pid}: HTTP {status} {payload}")
    finally:
        conn.close()


#: Rule whose findings are compared apart.  A session restored from the
#: summary store gets its procedure results without engine detail, and
#: then reports fewer ICP004 (unreachable code) findings than a cold run.
#: The benchmark counts those answers (``icp004_divergent_answers``) but
#: does not fail them; every other finding must match.
ASIDE_RULE = "ICP004"


def payload_digest(kind: str, payload: dict) -> Tuple[str, str]:
    """Digests of what an in-process analysis must reproduce: (checked
    parts, ``ASIDE_RULE`` findings)."""
    aside = ""
    if kind == "report":
        picked = {"report": payload.get("report")}
    elif kind == "diagnostics":
        findings = payload.get("findings") or []
        picked = {
            "counts": {
                rule: count
                for rule, count in (payload.get("counts") or {}).items()
                if rule != ASIDE_RULE
            },
            "findings": [f for f in findings if f.get("rule") != ASIDE_RULE],
        }
        aside = sha256_text(
            [json.dumps([f for f in findings if f.get("rule") == ASIDE_RULE], sort_keys=True)]
        )
    else:
        picked = {
            key: payload.get(key)
            for key in ("degraded", "method", "procedures", "call_edges", "constant_formals")
        }
    return sha256_text([json.dumps(picked, sort_keys=True)]), aside


def expected_digests(source: str, options: DiagOptions) -> Dict[str, str]:
    result = analyze(source, ICPConfig())
    diag = run_diagnostics(result, options)
    analysis = {
        "degraded": False,
        "method": "fs",
        "procedures": len(result.pcg.nodes),
        "call_edges": len(result.pcg.edges),
        "constant_formals": [
            {
                "proc": proc,
                "formal": formal,
                "value": result.fs.entry_formals[(proc, formal)].const_value,
            }
            for proc, formal in result.fs.constant_formals()
        ],
    }
    diagnostics = {
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
    # Round-trip through JSON as the daemon's payloads do.
    analysis = json.loads(json.dumps(analysis))
    diagnostics = json.loads(json.dumps(diagnostics))
    report = {"report": analysis_report(result)}
    return {
        "report": payload_digest("report", report),
        "diagnostics": payload_digest("diagnostics", diagnostics),
        "analyze": payload_digest("analyze", analysis),
        "edit": payload_digest("edit", analysis),
    }


@dataclass
class ClientLog:
    latencies: List[float] = field(default_factory=list)
    by_kind: Dict[str, List[float]] = field(default_factory=dict)
    #: (kind, program, version, payload digest) of every 200 answer.
    answers: List[tuple] = field(default_factory=list)
    attempted: int = 0
    reloads: int = 0
    rejected: int = 0
    degraded: int = 0
    errors: List[str] = field(default_factory=list)


class Client(threading.Thread):
    """One closed-loop client over the programs it owns."""

    def __init__(self, index, port, corpus, seed, version, recorder=None):
        super().__init__(name=f"perfbench-client-{index}", daemon=True)
        self.index = index
        self.conn = Connection(port)
        self.corpus = corpus
        self.owned = corpus.ids[index::CLIENTS]
        self.rng = random.Random((seed << 4) ^ (index * 7919) ^ 0xC11E47)
        self.kinds = [kind for kind, weight in OP_MIX for _ in range(weight)]
        #: The version of each program the daemon holds; this client is
        #: the only one that touches the programs it owns.
        self.version = version
        self.recorder = recorder
        self.deadline = 0.0
        self.ops = 0
        self.log = ClientLog()

    def _one(self, op_id):
        """One operation: (kind, pid, version, status, payload, reloaded)."""
        rng = self.rng
        pid = rng.choice(self.owned)
        versions = self.corpus.versions[pid]
        kind = rng.choice(self.kinds)
        if kind in ("report", "diagnostics"):
            method, path, body, target = "GET", f"/programs/{pid}/{kind}", None, None
        elif kind == "edit":
            target = rng.randrange(1, len(versions))
            method, path = "POST", f"/programs/{pid}/edits"
            body = {"source": versions[target]}
        else:
            target = rng.randrange(len(versions))
            method, path, body = "POST", f"/programs/{pid}", {"source": versions[target]}
        status, payload = self.conn.request(method, path, body, op_id)
        reloaded = False
        if status == 404:
            # Evicted: re-post the pristine program and retry once.
            reloaded = True
            status, payload = self.conn.request(
                "POST", f"/programs/{pid}", {"source": versions[0]}, op_id
            )
            if status == 200:
                self.version[pid] = 0
                if kind != "analyze":
                    status, payload = self.conn.request(method, path, body, op_id)
        if status == 200 and target is not None:
            self.version[pid] = target
        return kind, pid, self.version[pid], status, payload, reloaded

    def run(self) -> None:
        log = self.log
        while time.perf_counter() < self.deadline:
            self.ops += 1
            op_id = f"c{self.index}.{self.ops}"
            log.attempted += 1
            try:
                if self.recorder is not None:
                    with self.recorder.op(op_id):
                        started = time.perf_counter()
                        kind, pid, version, status, payload, reloaded = self._one(op_id)
                        elapsed = time.perf_counter() - started
                else:
                    started = time.perf_counter()
                    kind, pid, version, status, payload, reloaded = self._one(op_id)
                    elapsed = time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                log.errors.append(f"{type(error).__name__}: {error}")
                continue
            log.reloads += reloaded
            if status == 503:
                log.rejected += 1
            if status != 200:
                log.errors.append(f"{kind} {pid}: HTTP {status} {payload}")
                continue
            if payload.get("degraded"):
                log.degraded += 1
                log.errors.append(f"{kind} {pid}: degraded answer")
                continue
            log.latencies.append(elapsed)
            log.by_kind.setdefault(kind, []).append(elapsed)
            log.answers.append((kind, pid, version, payload_digest(kind, payload)))
        self.conn.close()


def drive(port, corpus, seed, seconds, version, recorder=None):
    """Run the clients for ``seconds``; (clients, measured window)."""
    clients = [Client(i, port, corpus, seed, version, recorder) for i in range(CLIENTS)]
    started = time.perf_counter()
    for client in clients:
        client.deadline = started + seconds
        client.start()
    for client in clients:
        client.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if client.is_alive():
            raise RuntimeError(f"{client.name} did not finish")
    return clients, time.perf_counter() - started


def _merge(result: WorkloadResult, clients: List[Client], merged: ClientLog) -> ClientLog:
    """Fold the clients' logs into ``merged`` and their errors into ``result``."""
    for client in clients:
        log = client.log
        merged.latencies += log.latencies
        for kind, values in log.by_kind.items():
            merged.by_kind.setdefault(kind, []).extend(values)
        merged.answers += log.answers
        merged.attempted += log.attempted
        merged.reloads += log.reloads
        merged.rejected += log.rejected
        merged.degraded += log.degraded
        merged.errors += log.errors
        result.attempted += log.attempted
        for error in log.errors:
            result.fail(error)
    return merged


def check(result: WorkloadResult, corpus: LoadgenCorpus, answers: List[tuple]) -> str:
    """Compare every answer with in-process analyses; the report sha256."""
    options = DiagOptions.from_config(ICPConfig())
    expected = {
        (pid, index): expected_digests(source, options)
        for pid in corpus.ids
        for index, source in enumerate(corpus.versions[pid])
    }
    aside = 0
    for kind, pid, version, (digest, aside_digest) in answers:
        want, want_aside = expected[(pid, version)][kind]
        if want != digest:
            result.fail(f"{kind} {pid} v{version}: payload differs from in-process analysis")
        elif want_aside != aside_digest:
            aside += 1
    result.info["icp004_divergent_answers"] = aside
    return sha256_text(
        [
            part
            for key in sorted(expected)
            for kind in ("report", "diagnostics")
            for part in expected[key][kind]
        ]
    )


def run(seed: int, seconds: float, trace: bool, src: str, workdir: str) -> WorkloadResult:
    result = WorkloadResult()
    stores: List[str] = []
    daemon = None

    def boot():
        store = tempfile.mkdtemp(prefix="serve-store-", dir=workdir)
        stores.append(store)
        corpus = build_corpus(seed)
        booted = InProcessDaemon(store) if trace else ProcessDaemon(src, store)
        try:
            preload(booted.port, corpus)
        except BaseException:
            booted.kill()
            raise
        return booted, corpus

    try:
        if trace:
            daemon, corpus = boot()
            version = {pid: 0 for pid in corpus.ids}
            recorder = SpanRecorder()
            untraced, traced = ClientLog(), ClientLog()
            # Untraced and traced windows take turns, so both see the same
            # store and residency history.
            for window in range(TRACE_WINDOWS):
                tracing = window % 2 == 1
                uninstall = install(recorder) if tracing else None
                try:
                    clients, _ = drive(
                        daemon.port, corpus, seed + window, seconds / TRACE_WINDOWS,
                        version, recorder if tracing else None,
                    )
                finally:
                    if uninstall is not None:
                        uninstall()
                _merge(result, clients, traced if tracing else untraced)
            result.info.update(
                recorder=recorder,
                traced_ops=traced.attempted,
                overhead_ratio=overhead_ratio(untraced.latencies, traced.latencies),
                serve_ms_p50={
                    kind: statistics.median(values) * 1000.0
                    for kind, values in traced.by_kind.items()
                },
                serve_reloads=traced.reloads,
                serve_rejected=traced.rejected,
                serve_degraded=traced.degraded,
            )
            answers = untraced.answers + traced.answers
        else:
            # Each replay boots a fresh daemon (the set-up), preloads it and
            # drives it for its share of the time.
            setup_times = []
            merged = ClientLog()
            for replay in range(REPLAYS):
                (daemon, corpus), _, setup_time = speed_corrected(boot)
                setup_times.append(setup_time)
                version = {pid: 0 for pid in corpus.ids}
                clients, window = drive(
                    daemon.port, corpus, seed + replay, seconds / REPLAYS, version
                )
                latencies = sum((client.log.latencies for client in clients), [])
                result.samples.append((latencies, window))
                _merge(result, clients, merged)
                result.peak_rss_mb = max(result.peak_rss_mb, daemon.stop())
                daemon = None
            result.setup_s = statistics.median(setup_times)
            result.info.update(reloads=merged.reloads, rejected=merged.rejected)
            answers = merged.answers
        if daemon is not None:
            result.peak_rss_mb = daemon.stop()
            daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)

    result.report_sha256 = check(result, corpus, answers)
    result.info.update(
        config=daemon_config("<temporary store>").to_dict(),
        programs=PROGRAMS,
        procs_per_program=PROCS_PER_PROGRAM,
        max_sessions=MAX_SESSIONS,
        clients=CLIENTS,
        checked_answers=len(answers),
    )
    return result
