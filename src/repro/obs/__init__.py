"""Analysis-pipeline observability: tracing, metrics, and profiling.

The three instruments are bundled into one :class:`Observability` context
that the pipeline threads through its phases:

- :mod:`repro.obs.trace` — span-based tracer with Chrome ``trace_event``
  export (``--trace OUT.json``) and a human-readable tree;
- :mod:`repro.obs.metrics` — unified registry of counters, gauges, and
  histograms, snapshottable to JSON (``--metrics-json OUT.json``);
- :mod:`repro.obs.profile` — per-phase wall timings, summed from the
  pipeline's ``timings``, and the hot-procedure report (``--profile``).

Every intraprocedural engine run, serial or scheduled, reaches the
profiler and the registry through one call,
:meth:`Observability.record_engine_run`.

Around them, the fleet-facing pieces: :mod:`repro.obs.log` (structured
JSON-lines request logging with a ``/debug/last`` ring),
:mod:`repro.obs.promexport` (Prometheus text exposition of registry
snapshots for ``GET /metrics``), and :mod:`repro.obs.top` (the
``repro-icp top`` live fleet dashboard).

Everything is disabled by default: :data:`NULL_OBS` carries the no-op
singleton of each instrument, so the instrumented hot paths cost a
truthiness check and nothing else when observability is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.log import NULL_LOG, StructuredLog
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    merge_snapshots,
    merge_summaries,
    summary_quantile,
)
from repro.obs.profile import NULL_PROFILER, Profiler
from repro.obs.promexport import parse_prometheus_text, render_prometheus
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    count_cross_process_links,
    validate_chrome_trace,
    validate_trace_file,
    validate_trace_links,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "NULL_LOG",
    "StructuredLog",
    "Tracer",
    "MetricsRegistry",
    "Profiler",
    "merge_snapshots",
    "merge_summaries",
    "summary_quantile",
    "parse_prometheus_text",
    "render_prometheus",
    "count_cross_process_links",
    "validate_chrome_trace",
    "validate_trace_file",
    "validate_trace_links",
]


@dataclass(frozen=True)
class Observability:
    """One run's observability context (tracer + metrics + profiler)."""

    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = NULL_REGISTRY
    profiler: Profiler = NULL_PROFILER

    @property
    def enabled(self) -> bool:
        """True when at least one instrument records anything."""
        return (
            self.tracer.enabled
            or self.metrics.enabled
            or self.profiler.enabled
        )

    def record_engine_run(self, proc: str, seconds: float, detail: Any) -> None:
        """Feed one engine run of ``proc`` to the profiler and the registry.

        ``detail`` is the run's ``IntraResult.detail``; the SCC engine's
        carries the SSA size and visit counters.
        """
        visits = getattr(detail, "visits", None)
        self.profiler.record_procedure(
            proc, seconds,
            ssa_size=getattr(detail, "ssa_size", None), visits=visits,
        )
        metrics = self.metrics
        if metrics.enabled:
            metrics.histogram("engine.task_seconds").observe(seconds)
            if visits:
                for key, value in visits.items():
                    metrics.counter(f"scc.{key}").inc(value)

    @classmethod
    def create(
        cls,
        trace: bool = False,
        metrics: bool = False,
        profile: bool = False,
    ) -> "Observability":
        """An observability context with the requested instruments live."""
        return cls(
            tracer=Tracer() if trace else NULL_TRACER,
            metrics=MetricsRegistry() if metrics else NULL_REGISTRY,
            profiler=Profiler() if profile else NULL_PROFILER,
        )


#: The shared all-off context (safe to use unconditionally).
NULL_OBS = Observability()
