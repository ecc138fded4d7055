"""Every engine run of an engine pass, behind the summary cache.

Each engine pass (flow-sensitive ICP, value contexts, returns) makes one
traversal and hands each per-procedure analysis to :meth:`Scheduler.run`.
With a :class:`~repro.sched.cache.SummaryCache` the run is looked up first
and stored after a miss; without one it simply runs.  Either way the run
is counted in :class:`SchedulerStats`, so ``PipelineResult.sched`` says
how many analyses ran, came from the cache, or were reused by a session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.analysis.base import CallEffects, IntraEngine, IntraResult
from repro.ir.lattice import LatticeValue
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols
from repro.obs import NULL_OBS, Observability
from repro.sched.cache import CacheStats, SummaryCache, combine_key


@dataclass(frozen=True)
class AnalysisTask:
    """One per-procedure intraprocedural analysis.

    ``fingerprints`` carries the content-address components (procedure
    source, entry environment, effects, configuration) the cache combines
    into the task's key; an empty tuple marks the task uncacheable.
    """

    proc: ast.Procedure
    symbols: ProcedureSymbols
    entry_env: Dict[str, LatticeValue]
    effects: CallEffects
    pass_label: str = "fs"
    record_exit_vars: Optional[Set[str]] = None
    fingerprints: Tuple[str, ...] = ()
    #: Entry-environment fingerprint when the task is one *value context* of
    #: its procedure (``context_mode="value-contexts"``); ``None`` for the
    #: classic one-task-per-procedure passes.
    context: Optional[str] = None

    @property
    def proc_name(self) -> str:
        return self.proc.name

    @property
    def key(self) -> str:
        """The summary-cache key: all fingerprints combined."""
        return combine_key(*self.fingerprints)

    @property
    def slot(self) -> Tuple[str, str]:
        # The procedure name stays in slot[1]: SummaryCache.evict_procs
        # matches on it, so editing a procedure invalidates every context.
        if self.context is None:
            return (self.pass_label, self.proc_name)
        return (f"{self.pass_label}@{self.context}", self.proc_name)


@dataclass
class SchedulerStats:
    """What the engine passes did during one pipeline run."""

    #: Analyses actually executed by an engine.
    tasks_run: int = 0
    #: Analyses skipped because the cache already held their result.
    tasks_cached: int = 0
    #: Analyses skipped *before* reaching the cache because an incremental
    #: session proved the procedure clean (outside the dirty region).
    tasks_reused: int = 0
    #: Summed engine seconds of the runs counted in ``tasks_run``.
    analysis_seconds: float = 0.0
    cache: Optional[CacheStats] = None

    @property
    def tasks_total(self) -> int:
        return self.tasks_run + self.tasks_cached

    @property
    def reuse_rate(self) -> float:
        """Fraction of analyses served without an engine run (cache + clean)."""
        total = self.tasks_run + self.tasks_cached + self.tasks_reused
        if not total:
            return 0.0
        return (self.tasks_cached + self.tasks_reused) / total


def serial_engine_run(
    obs, engine, pass_label: str, proc, symbols, entry_env, effects,
    record_exit_vars=None, **span_attrs,
):
    """One engine run: timed, traced and recorded.

    The run is traced as an ``engine`` span carrying ``pass_label`` (plus
    ``span_attrs``) and fed to
    :meth:`~repro.obs.Observability.record_engine_run`.  Returns the
    :class:`IntraResult` and its engine seconds.
    """
    started = time.perf_counter()
    with obs.tracer.span(
        "engine", cat="engine", proc=proc.name, pass_label=pass_label,
        engine=engine.name, **span_attrs,
    ):
        intra = engine.analyze(
            proc, symbols, entry_env, effects, record_exit_vars=record_exit_vars
        )
    seconds = time.perf_counter() - started
    if obs.enabled:
        obs.record_engine_run(proc.name, seconds, intra.detail)
    return intra, seconds


class Scheduler:
    """The summary cache and run counters of one pipeline run."""

    def __init__(
        self,
        cache: Optional[SummaryCache] = None,
        obs: Optional[Observability] = None,
    ):
        self.cache = cache
        self.obs = obs or NULL_OBS
        self.stats = SchedulerStats()
        # Baseline for per-run cache deltas: one scheduler spans one pipeline
        # run, while the cache (and its counters) outlives it.
        self._cache_baseline = cache.stats.snapshot() if cache is not None else None

    def run(self, engine: IntraEngine, task: AnalysisTask) -> IntraResult:
        """Analyze ``task``, from the cache when it holds the result."""
        obs = self.obs
        key = None
        if self.cache is not None and task.fingerprints:
            key = task.key
            cached = self.cache.lookup(task.slot, key, task=task)
            hit = cached is not None
            if obs.tracer.enabled:
                obs.tracer.instant(
                    "cache-hit" if hit else "cache-miss", cat="cache",
                    proc=task.proc_name, pass_label=task.pass_label,
                )
            obs.metrics.counter("cache.hits" if hit else "cache.misses").inc()
            if hit:
                self.stats.tasks_cached += 1
                obs.metrics.counter("sched.tasks_cached").inc()
                return cached
        span_attrs = {} if task.context is None else {"context": task.context}
        intra, seconds = serial_engine_run(
            obs, engine, task.pass_label, task.proc, task.symbols,
            task.entry_env, task.effects,
            record_exit_vars=task.record_exit_vars, **span_attrs,
        )
        self.stats.tasks_run += 1
        self.stats.analysis_seconds += seconds
        obs.metrics.counter("sched.tasks_run").inc()
        if key is not None:
            self.cache.store(task.slot, key, intra)
        return intra

    def finish(self) -> SchedulerStats:
        """Snapshot stats, attaching this run's cache deltas."""
        if self.cache is not None:
            current = self.cache.stats
            base = self._cache_baseline
            self.stats.cache = CacheStats(
                hits=current.hits - base.hits,
                misses=current.misses - base.misses,
                invalidations=current.invalidations - base.invalidations,
                entries=current.entries,
                evictions=current.evictions - base.evictions,
            )
        metrics = self.obs.metrics
        if metrics.enabled:
            if self.stats.tasks_reused:
                metrics.counter("sched.tasks_reused").inc(self.stats.tasks_reused)
            if self.stats.cache is not None:
                metrics.gauge("cache.invalidations").set(
                    self.stats.cache.invalidations
                )
                metrics.gauge("cache.entries").set(self.stats.cache.entries)
        return self.stats
