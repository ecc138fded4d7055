"""Helpers shared by the workloads: percentiles, memory, the run result."""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Seconds :func:`probe_seconds` takes on an uncontended core of the
#: reference machine (a 2-vCPU 2.0 GHz cloud VM, CPython 3.11).
PROBE_REFERENCE_S = 0.27e-3


def _probe_work() -> int:
    table = {}
    for i in range(1000):
        table[str(i)] = [i, i * 2]
    return len(table)


def probe_seconds() -> float:
    """Best of three runs of a fixed pure-Python loop: how fast the CPU
    runs right now."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - started)
    return best


def speed_corrected(op: Callable[[], object]) -> Tuple[object, float, float]:
    """Run ``op``; (its result, seconds, seconds at reference CPU speed).

    A shared host can run the CPUs about 1.8x slower for stretches of
    seconds or minutes.  The probes just before and after the op measure
    the slowdown of that moment, and the op's time is scaled back by it.
    The probes are outside the op's own timing.
    """
    before = probe_seconds()
    started = time.perf_counter()
    value = op()
    elapsed = time.perf_counter() - started
    after = probe_seconds()
    return value, elapsed, elapsed * 2.0 * PROBE_REFERENCE_S / (before + after)


def timed_setup(build: Callable[[], object], repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; (median speed-corrected seconds,
    last result)."""
    times = []
    built = None
    for _ in range(repeats):
        built, _, corrected = speed_corrected(build)
        times.append(corrected)
    return statistics.median(times), built


def sha256_text(parts: List[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass
class WorkloadResult:
    """What one workload run measured and checked."""

    setup_s: float = 0.0
    #: One (op latencies in seconds, seconds the throughput is taken over)
    #: pair per measured repetition; the untraced part only.
    samples: List[Tuple[List[float], float]] = field(default_factory=list)
    #: The same as measured by the clock, when ``samples`` are
    #: speed-corrected (for the run record).
    clock_samples: List[Tuple[List[float], float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Human-readable reasons for the first few failures.
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: sha256 over the workload's deterministic analysis reports.
    report_sha256: str = ""
    #: Workload-specific facts for the run record.
    info: Dict[str, object] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": self.setup_s,
            **latency_metrics(self.samples),
            "peak_rss_mb": self.peak_rss_mb,
        }


def latency_metrics(samples: List[Tuple[List[float], float]]) -> Dict[str, float]:
    """Throughput and latency percentiles, each from its best repetition."""
    return {
        "ops_per_s": max(len(lat) / window for lat, window in samples),
        "op_ms_p50": min(percentile(lat, 50) for lat, _ in samples) * 1000.0,
        "op_ms_p90": min(percentile(lat, 90) for lat, _ in samples) * 1000.0,
    }


def alternate(run_chunk, seconds: float, recorder, warmup: bool = True) -> tuple:
    """The traced run: an untraced and a traced chunk in turn.

    ``run_chunk(recorder_or_None)`` runs the same few operations each
    side would run and returns their latencies.  Taking turns (after one
    discarded warm-up chunk, with ``warmup``) until each side has
    ``seconds / 2`` of op time gives both sides the same mix, so their
    difference is the tracing overhead; which side goes first alternates
    too.  Returns (untraced latencies, traced latencies).
    """
    from spans import install

    def traced_chunk() -> List[float]:
        uninstall = install(recorder)
        try:
            return run_chunk(recorder)
        finally:
            uninstall()

    if warmup:
        run_chunk(None)
    untraced: List[float] = []
    traced: List[float] = []
    turn = 0
    while sum(untraced) < seconds / 2 or sum(traced) < seconds / 2:
        if turn % 2:
            traced += traced_chunk()
            untraced += run_chunk(None)
        else:
            untraced += run_chunk(None)
            traced += traced_chunk()
        turn += 1
    return untraced, traced


def overhead_ratio(untraced: List[float], traced: List[float]) -> float:
    """Mean traced op time over mean untraced op time, minus one."""
    if not untraced or not traced:
        return 0.0
    return statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
