"""Worker-pool dispatch for per-procedure analyses.

Threads are the default executor: intraprocedural analyses share read-only
program structures, and thread dispatch needs no serialization.  A process
pool is available opt-in (``executor="process"``) for workloads where the
interpreter lock dominates; every task payload it receives is picklable by
construction (ASTs, symbols, lattice values, and summary effects are plain
dataclasses).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.analysis import make_engine

_T = TypeVar("_T")
_R = TypeVar("_R")

_EXECUTOR_KINDS = ("thread", "process")


def spawn_context():
    """The ``spawn`` multiprocessing context every repro process uses.

    The platform default start method may be fork (POSIX Python < 3.14),
    which clones whatever locks and threads the parent holds mid-analysis —
    the serve daemon and the observability layer both run threads, so a
    forked child can inherit a locked lock and deadlock.  Spawn is safe
    everywhere; shared by the process :class:`TaskPool` executor and the
    serve shard supervisor (:mod:`repro.serve.router`), whose entrypoints
    are module-level picklables by construction.
    """
    import multiprocessing

    return multiprocessing.get_context("spawn")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count knob: ``0``/``None`` means all CPU cores."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def run_analysis_task(task):
    """Execute one :class:`~repro.sched.scheduler.AnalysisTask`.

    Module-level so a process pool can pickle it.  Returns the
    :class:`IntraResult` plus the seconds spent in the engine, which the
    scheduler accumulates into the pipeline's intra-analysis time.
    """
    engine = make_engine(task.engine)
    record = set(task.record_exit_vars) if task.record_exit_vars is not None else None
    started = time.perf_counter()
    intra = engine.analyze(
        task.proc, task.symbols, dict(task.entry_env), task.effects,
        record_exit_vars=record,
    )
    return intra, time.perf_counter() - started


def traced_task_runner(tracer):
    """Wrap :func:`run_analysis_task` with a worker-side engine span.

    Only valid for thread pools: the closure captures the coordinator's
    tracer (unpicklable by design), and worker threads share its clock, so
    each engine run lands as a real span on that worker's trace track.
    Process pools instead synthesize spans on the coordinator from the
    durations this function's plain sibling already returns.
    """

    def run(task):
        with tracer.span(
            "engine",
            cat="engine",
            proc=task.proc_name,
            pass_label=task.pass_label,
            engine=task.engine,
        ):
            return run_analysis_task(task)

    return run


def serial_engine_run(
    obs, engine, pass_label: str, proc, symbols, entry_env, effects,
    record_exit_vars=None, **span_attrs,
):
    """One engine run of a serial traversal, observed like a scheduled one.

    The run is timed, traced as the thread runner traces a task (an
    ``engine`` span carrying ``pass_label``, plus ``span_attrs``), and fed
    to :meth:`~repro.obs.Observability.record_engine_run`.  Returns the
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


class TaskPool:
    """A lazily created ``concurrent.futures`` pool with a serial fast path.

    With one worker (or one task) everything runs inline on the calling
    thread, so a scheduler configured for ``workers=1`` adds no dispatch
    overhead and no nondeterminism.
    """

    def __init__(self, workers: int = 1, kind: str = "thread"):
        if kind not in _EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {kind!r}; expected one of {_EXECUTOR_KINDS}"
            )
        self.workers = resolve_workers(workers)
        self.kind = kind
        self._executor: Optional[Executor] = None

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.kind == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=spawn_context(),
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-sched",
                )
        return self._executor

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Apply ``fn`` to every item, preserving input order."""
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_executor().map(fn, items))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
