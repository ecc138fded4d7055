"""Summary caching and run counting for the ICP pipeline's engine passes.

The paper's central cost claim is one intraprocedural analysis per
procedure, made in one traversal of the PCG.  This package keeps that
traversal cheap to repeat:

- :mod:`repro.sched.cache` memoizes per-procedure intraprocedural results
  under a content-addressed key, so unchanged procedures are never
  re-analyzed across pipeline runs;
- :mod:`repro.sched.scheduler` is the one entry point every engine pass
  sends its analyses through: :meth:`Scheduler.run` consults the cache,
  runs the engine on a miss, and counts what happened.
"""

from repro.sched.cache import CacheStats, SummaryCache
from repro.sched.scheduler import AnalysisTask, Scheduler, SchedulerStats

__all__ = [
    "AnalysisTask",
    "CacheStats",
    "Scheduler",
    "SchedulerStats",
    "SummaryCache",
]
