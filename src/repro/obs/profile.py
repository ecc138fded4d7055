"""Profiling hooks: phase timings and the hot-procedure report.

A :class:`Profiler` collects

- per-phase wall time for every Figure 2 pipeline phase, summed over
  runs: the pipeline clocks each phase once (``PipelineResult.timings``)
  and hands the profiler a finished run's timings through
  :meth:`Profiler.record_phases`;
- per-procedure engine time: every intraprocedural analysis reports its
  duration (and, for the SCC engine, its SSA size and visit counts) through
  :meth:`repro.obs.Observability.record_engine_run`, which accumulate into
  per-procedure totals, and
- an opt-in **hot procedure** report ranking procedures by total engine
  time alongside their run counts and SSA sizes — the "where does the
  analysis spend its time" table that scaling work starts from.

Like the tracer and registry, a disabled profiler is a shared no-op: the
hot paths check ``profiler.enabled`` (one attribute load) and skip all
recording.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional


@dataclass
class PhaseTiming:
    """Accumulated wall seconds of one pipeline phase."""

    wall_seconds: float = 0.0
    count: int = 0


@dataclass
class ProcedureProfile:
    """Accumulated engine work for one procedure."""

    name: str
    engine_seconds: float = 0.0
    runs: int = 0
    #: SSA names created by the last engine run (SCC engine only).
    ssa_size: Optional[int] = None
    #: Summed engine visit counters (flow edges, SSA revisits, ...).
    visits: Dict[str, int] = field(default_factory=dict)


class Profiler:
    """Collects phase and per-procedure timing for one or more runs."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self.phases: Dict[str, PhaseTiming] = {}
        self.procedures: Dict[str, ProcedureProfile] = {}

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def record_phases(self, timings: Mapping[str, float]) -> None:
        """Add one pipeline run's per-phase wall seconds to the table."""
        if not self.enabled:
            return
        with self._lock:
            for name, seconds in timings.items():
                timing = self.phases.setdefault(name, PhaseTiming())
                timing.wall_seconds += seconds
                timing.count += 1

    def record_procedure(
        self,
        name: str,
        seconds: float,
        ssa_size: Optional[int] = None,
        visits: Optional[Dict[str, int]] = None,
    ) -> None:
        """Accumulate one engine run's cost for ``name``."""
        if not self.enabled:
            return
        with self._lock:
            profile = self.procedures.get(name)
            if profile is None:
                profile = self.procedures[name] = ProcedureProfile(name)
            profile.engine_seconds += seconds
            profile.runs += 1
            if ssa_size is not None:
                profile.ssa_size = ssa_size
            if visits:
                for key, value in visits.items():
                    profile.visits[key] = profile.visits.get(key, 0) + value

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def hot_procedures(self, top: int = 10) -> List[ProcedureProfile]:
        """Procedures ranked by total engine seconds, hottest first."""
        with self._lock:
            ranked = sorted(
                self.procedures.values(),
                key=lambda p: (-p.engine_seconds, p.name),
            )
        return ranked[:top] if top else ranked

    def hot_report(self, top: int = 10) -> str:
        """The hot-procedure table (rank, engine time, runs, SSA size)."""
        rows = self.hot_procedures(top)
        lines = [
            "hot procedures (by engine time):",
            f"  {'#':>2} {'procedure':<24} {'seconds':>10} {'runs':>5} "
            f"{'ssa':>6} {'visits':>8}",
        ]
        if not rows:
            lines.append("  (no engine runs recorded)")
            return "\n".join(lines)
        for rank, profile in enumerate(rows, start=1):
            size = "-" if profile.ssa_size is None else str(profile.ssa_size)
            visits = sum(profile.visits.values())
            lines.append(
                f"  {rank:>2} {profile.name:<24} {profile.engine_seconds:>10.6f} "
                f"{profile.runs:>5} {size:>6} {visits:>8}"
            )
        return "\n".join(lines)

    def phase_report(self) -> str:
        """Per-phase wall timing table, in recording order."""
        lines = [
            "phase timings:",
            f"  {'phase':<12} {'wall(s)':>10} {'runs':>5}",
        ]
        with self._lock:
            items = list(self.phases.items())
        for name, timing in items:
            lines.append(
                f"  {name:<12} {timing.wall_seconds:>10.6f} {timing.count:>5}"
            )
        return "\n".join(lines)


#: Shared disabled profiler.
NULL_PROFILER = Profiler(enabled=False)
