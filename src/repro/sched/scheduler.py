"""The scheduler facade consumed by the pipeline phases.

A :class:`Scheduler` owns a worker pool and (optionally) a
:class:`~repro.sched.cache.SummaryCache`, and executes *levels* of
:class:`AnalysisTask` — one level at a time, tasks within a level
concurrently.  The pipeline phases keep their serial code paths for the
default configuration (one worker, no cache); the scheduler engages only
when parallelism or caching is requested, and is constructed so that the
scheduled result is observationally identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.base import CallEffects, IntraResult
from repro.ir.lattice import LatticeValue
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols
from repro.obs import NULL_OBS, Observability
from repro.sched.cache import CacheStats, SummaryCache, combine_key
from repro.sched.pool import (
    TaskPool,
    resolve_workers,
    run_analysis_task,
    traced_task_runner,
)
from repro.sched.wavefront import WavefrontSchedule


@dataclass(frozen=True)
class AnalysisTask:
    """One per-procedure intraprocedural analysis, ready to dispatch.

    ``fingerprints`` carries the content-address components (procedure
    source, entry environment, effects, configuration) the cache combines
    into the task's key; an empty tuple marks the task uncacheable.
    """

    proc_name: str
    proc: ast.Procedure
    symbols: ProcedureSymbols
    entry_env: Dict[str, LatticeValue]
    effects: CallEffects
    engine: str
    pass_label: str = "fs"
    record_exit_vars: Optional[FrozenSet[str]] = None
    fingerprints: Tuple[str, ...] = ()
    #: Entry-environment fingerprint when the task is one *value context* of
    #: its procedure (``context_mode="value-contexts"``); ``None`` for the
    #: classic one-task-per-procedure passes.
    context: Optional[str] = None

    @property
    def cacheable(self) -> bool:
        return bool(self.fingerprints)

    @property
    def key(self) -> str:
        """Result-table key: the procedure, qualified by context if any.

        Two contexts of one procedure may share a wavefront level, so
        result keying must distinguish them.
        """
        if self.context is None:
            return self.proc_name
        return f"{self.proc_name}@{self.context}"

    @property
    def slot(self) -> Tuple[str, str]:
        # The procedure name stays in slot[1]: SummaryCache.evict_procs
        # matches on it, so editing a procedure invalidates every context.
        if self.context is None:
            return (self.pass_label, self.proc_name)
        return (f"{self.pass_label}@{self.context}", self.proc_name)


@dataclass
class SchedulerStats:
    """What the scheduler did during one pipeline run."""

    workers: int = 1
    executor: str = "thread"
    forward_levels: int = 0
    reverse_levels: int = 0
    max_level_width: int = 0
    #: Analyses actually executed by an engine.
    tasks_run: int = 0
    #: Analyses skipped because the cache already held their result.
    tasks_cached: int = 0
    #: Analyses skipped *before* reaching the cache because an incremental
    #: session proved the procedure clean (outside the dirty region).
    tasks_reused: int = 0
    #: Summed engine seconds across workers (CPU time, not wall clock).
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


class Scheduler:
    """Wavefront dispatch plus summary caching for one pipeline run."""

    def __init__(
        self,
        workers: int = 1,
        executor: str = "thread",
        cache: Optional[SummaryCache] = None,
        obs: Optional[Observability] = None,
    ):
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.obs = obs or NULL_OBS
        self._pool = TaskPool(self.workers, executor)
        self.stats = SchedulerStats(workers=self.workers, executor=executor)
        self._wavefronts: Dict[int, WavefrontSchedule] = {}
        self._levels_dispatched = 0
        # Baseline for per-run cache deltas: one scheduler spans one pipeline
        # run, while the cache (and its counters) outlives it.
        self._cache_baseline = cache.stats.snapshot() if cache is not None else None

    @classmethod
    def from_config(
        cls,
        config,
        cache: Optional[SummaryCache] = None,
        obs: Optional[Observability] = None,
    ) -> "Scheduler":
        """Build a scheduler from an :class:`ICPConfig`."""
        return cls(
            workers=config.workers,
            executor=config.executor,
            cache=cache,
            obs=obs,
        )

    # ------------------------------------------------------------------

    @property
    def engaged(self) -> bool:
        """True when scheduling changes anything over the serial path."""
        return self.workers > 1 or self.cache is not None

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def wavefront(self, pcg) -> WavefrontSchedule:
        """The (memoized) wavefront schedule of ``pcg``."""
        schedule = self._wavefronts.get(id(pcg))
        if schedule is None:
            schedule = WavefrontSchedule(pcg)
            self._wavefronts[id(pcg)] = schedule
            self.stats.forward_levels = len(schedule.forward_levels)
            self.stats.reverse_levels = len(schedule.reverse_levels)
            self.stats.max_level_width = max(
                self.stats.max_level_width, schedule.max_width
            )
        return schedule

    def run_level(self, tasks: Sequence[AnalysisTask]) -> Dict[str, IntraResult]:
        """Execute one wavefront level, consulting the cache first."""
        obs = self.obs
        tracer = obs.tracer
        metrics = obs.metrics
        results: Dict[str, IntraResult] = {}
        pending: List[Tuple[AnalysisTask, Optional[str]]] = []
        cached_count = 0
        for task in tasks:
            key = None
            if self.cache is not None and task.cacheable:
                key = combine_key(*task.fingerprints)
                cached = self.cache.lookup(task.slot, key, task=task)
                if cached is not None:
                    results[task.key] = cached
                    self.stats.tasks_cached += 1
                    cached_count += 1
                    if tracer.enabled:
                        tracer.instant(
                            "cache-hit", cat="cache",
                            proc=task.proc_name, pass_label=task.pass_label,
                        )
                    metrics.counter("cache.hits").inc()
                    continue
                if tracer.enabled:
                    tracer.instant(
                        "cache-miss", cat="cache",
                        proc=task.proc_name, pass_label=task.pass_label,
                    )
                metrics.counter("cache.misses").inc()
            pending.append((task, key))

        level_index = self._levels_dispatched
        self._levels_dispatched += 1
        metrics.counter("sched.levels").inc()
        metrics.counter("sched.tasks_cached").inc(cached_count)
        metrics.counter("sched.tasks_run").inc(len(pending))

        runner = run_analysis_task
        if tracer.enabled and self._pool.kind == "thread":
            # Worker threads share the coordinator's clock: record real
            # engine spans on each worker's own trace track.
            runner = traced_task_runner(tracer)
        # Worker processes live in another clock domain: their engine spans
        # are synthesized below from the worker-measured durations, rebased
        # at the level's start on a virtual worker track.
        synthesize = tracer.enabled and self._pool.kind == "process"
        pass_label = tasks[0].pass_label if tasks else "?"
        with tracer.span(
            "wavefront-level",
            cat="sched",
            level=level_index,
            pass_label=pass_label,
            tasks=len(tasks),
            cached=cached_count,
            dispatched=len(pending),
            workers=self.workers,
        ):
            level_started = tracer._now() if tracer.enabled else 0.0
            outcomes = self._pool.map(runner, [task for task, _ in pending])
        for index, ((task, key), (intra, seconds)) in enumerate(
            zip(pending, outcomes)
        ):
            if key is not None and self.cache is not None:
                self.cache.store(task.slot, key, intra)
            results[task.key] = intra
            self.stats.tasks_run += 1
            self.stats.analysis_seconds += seconds
            if obs.enabled:
                obs.record_engine_run(task.proc_name, seconds, intra.detail)
            if synthesize:
                tracer.complete(
                    "engine",
                    level_started,
                    seconds,
                    tid=f"process-worker-{index % self.workers}",
                    proc=task.proc_name,
                    pass_label=task.pass_label,
                    engine=task.engine,
                    clock="synthesized",
                )
        return results

    def map(self, fn, payloads: Sequence, label: Optional[str] = None) -> List:
        """Plain (uncached) parallel map for non-engine level work."""
        tracer = self.obs.tracer
        if label is not None and tracer.enabled:
            with tracer.span(label, cat="sched", tasks=len(payloads)):
                return self._pool.map(fn, payloads)
        return self._pool.map(fn, payloads)

    # ------------------------------------------------------------------

    def finish(self) -> SchedulerStats:
        """Snapshot stats (attaching this run's cache deltas), release the pool."""
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
            metrics.gauge("sched.workers").set(self.stats.workers)
            metrics.gauge("sched.forward_levels").set(self.stats.forward_levels)
            metrics.gauge("sched.reverse_levels").set(self.stats.reverse_levels)
            metrics.gauge("sched.max_level_width").max(self.stats.max_level_width)
            if self.stats.cache is not None:
                metrics.gauge("cache.invalidations").set(
                    self.stats.cache.invalidations
                )
                metrics.gauge("cache.entries").set(self.stats.cache.entries)
        self.close()
        return self.stats

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
