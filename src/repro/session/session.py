"""Long-lived incremental analysis sessions.

An :class:`AnalysisSession` parses a program once, holds every pipeline
artifact (PCG, alias/MOD-REF/USE summaries, FI/FS solutions) plus the
content-addressed summary cache, and accepts per-procedure edits.  After an
edit, :meth:`AnalysisSession.analyze` re-runs only the PCG region whose
analysis inputs actually changed:

1. The pipeline's whole-program half
   (:func:`repro.core.driver.whole_program_phases`: symbols, validation,
   PCG, aliasing, MOD/REF, flow-insensitive ICP) runs on every analysis,
   without the intraprocedural engine; its fresh solutions feed the
   dirty-region diff.  Symbols are reused by identity: every procedure
   object an edit did not replace keeps its previous
   :class:`~repro.lang.symbols.ProcedureSymbols`, and validation reads
   those symbols rather than walking the bodies again.
2. :func:`repro.session.dirty.compute_dirty_region`, timed as phase
   ``dirty``, derives the set of procedures whose flow-sensitive analysis
   could differ; everything else copies its previous result verbatim (no
   fingerprinting, no engine).
3. The pipeline's engine half (:func:`repro.core.driver.engine_phases`:
   flow-sensitive ICP, USE, returns, transform) runs the engine over the
   dirty region only, with the session's summary cache behind it, so even
   dirty procedures whose inputs round-tripped (an edit that was reverted)
   come back as cache hits.  After each analysis the session sweeps the
   cache down to each slot's last two keys, so its memory levels off.

The produced :class:`~repro.core.driver.PipelineResult` renders
byte-identically (``repro.core.report.analysis_report``) to a cold
:func:`repro.api.analyze` run over the same program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Set, Union

from repro.core.config import ICPConfig
from repro.core.driver import (
    PipelineResult,
    WholeProgram,
    engine_phases,
    timed_phase,
    whole_program_phases,
)
from repro.core.flow_sensitive import FSResult, FSReuse
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.obs import NULL_OBS, Observability
from repro.sched.cache import SummaryCache, procedure_fingerprint
from repro.session.dirty import DirtyRegion, compute_dirty_region
from repro.summary.use import UseReuse


@dataclass
class SessionStats:
    """Counters of one session's edit/re-analysis history."""

    #: Procedure edits accepted (update/add/remove/sync-diff) so far.
    edits: int = 0
    #: Completed :meth:`AnalysisSession.analyze` calls.
    analyses: int = 0
    #: Procedures in the last analysis' PCG.
    last_procs: int = 0
    #: Size of the last analysis' flow-sensitive dirty region.
    last_dirty: int = 0
    #: Procedures whose previous FS result was copied (clean region).
    last_reused: int = 0
    #: Dirty procedures served from the summary cache without an engine run.
    last_cached: int = 0
    #: Intraprocedural engine executions in the last analysis.
    last_engine_runs: int = 0
    #: Engine executions across the session's lifetime.
    total_engine_runs: int = 0
    #: Clean-region copies across the session's lifetime.
    total_reused: int = 0

    @property
    def reuse_rate(self) -> float:
        """Share of the last analysis served without an engine run."""
        total = self.last_engine_runs + self.last_cached + self.last_reused
        if not total:
            return 0.0
        return (self.last_cached + self.last_reused) / total


def _parse_procedure(source: str, expect: Optional[str] = None) -> ast.Procedure:
    """Parse a single-procedure MiniF fragment."""
    program = parse_program(source)
    if program.global_names or program.inits:
        raise ValueError(
            "procedure fragment must not declare globals or init blocks"
        )
    if len(program.procedures) != 1:
        raise ValueError(
            f"expected exactly one procedure, got {len(program.procedures)}"
        )
    proc = program.procedures[0]
    if expect is not None and proc.name != expect:
        raise ValueError(
            f"fragment defines {proc.name!r}, expected {expect!r}"
        )
    return proc


class AnalysisSession:
    """One program, analyzed incrementally across edits.

    The session forces ``config.cache`` on (the summary cache is the second
    reuse tier behind the dirty-region fast path); all other knobs are
    honored as given.  ``config`` may be an :class:`ICPConfig` or a plain
    mapping routed through :meth:`ICPConfig.from_dict`.
    """

    def __init__(
        self,
        source: Union[str, ast.Program],
        config: Union[ICPConfig, Mapping[str, Any], None] = None,
        obs: Optional[Observability] = None,
        cache: Optional[SummaryCache] = None,
    ):
        from repro.store import cache_from_config

        if isinstance(config, Mapping):
            config = ICPConfig.from_dict(config)
        config = config or ICPConfig()
        if not config.cache:
            config = replace(config, cache=True)
        self.config = config
        self.obs = obs or NULL_OBS
        # An injected cache (the serve daemon hands every session one view
        # of its shared store) wins; otherwise the config decides between
        # the persistent two-tier cache and the process-local one.  An
        # empty SummaryCache is falsy (len == 0), so test against None.
        if cache is None:
            cache = cache_from_config(self.config, obs=self.obs)
        self.cache = cache
        self.program = (
            parse_program(source) if isinstance(source, str) else source
        )
        self.stats = SessionStats()
        #: The last completed analysis (None before the first analyze()).
        self.result: Optional[PipelineResult] = None
        #: The dirty region of the last incremental analysis (None for cold).
        self.last_region: Optional[DirtyRegion] = None
        self._edited: Set[str] = set()
        self._full_dirty = True
        #: Diagnostics cache: (result the findings were computed against,
        #: per-procedure finding lists).  Invalidated per procedure by
        #: comparing pipeline artifacts, not by re-running checks.
        self._diag_cache = None

    # ------------------------------------------------------------------
    # Edits.
    # ------------------------------------------------------------------

    def _proc_index(self, name: str) -> int:
        for index, proc in enumerate(self.program.procedures):
            if proc.name == name:
                return index
        known = ", ".join(sorted(p.name for p in self.program.procedures))
        raise KeyError(f"unknown procedure {name!r}; known procedures: {known}")

    def update(
        self, name: str, new_source: Union[str, ast.Procedure]
    ) -> bool:
        """Replace one procedure's definition.

        Returns False (and changes nothing) when the new definition is
        canonically identical to the current one — a no-op edit keeps the
        whole program clean.
        """
        proc = (
            _parse_procedure(new_source, expect=name)
            if isinstance(new_source, str)
            else new_source
        )
        if proc.name != name:
            raise ValueError(f"procedure {proc.name!r} does not match {name!r}")
        index = self._proc_index(name)
        if procedure_fingerprint(proc) == procedure_fingerprint(
            self.program.procedures[index]
        ):
            return False
        self.program.procedures[index] = proc
        self._edited.add(name)
        self.stats.edits += 1
        return True

    def add(self, source: Union[str, ast.Procedure]) -> str:
        """Add a new procedure; returns its name."""
        proc = _parse_procedure(source) if isinstance(source, str) else source
        if any(p.name == proc.name for p in self.program.procedures):
            raise ValueError(f"procedure {proc.name!r} already exists")
        self.program.procedures.append(proc)
        self._edited.add(proc.name)
        self.stats.edits += 1
        return proc.name

    def remove(self, name: str) -> None:
        """Remove a procedure (its cache slots are evicted immediately)."""
        index = self._proc_index(name)
        del self.program.procedures[index]
        self.cache.evict_procs([name])
        self._edited.add(name)
        self.stats.edits += 1

    def sync(self, source: Union[str, ast.Program]) -> int:
        """Adopt a new whole-program text, diffing procedure by procedure.

        The workhorse of ``repro-icp watch``: unchanged procedures (by
        canonical fingerprint) stay clean; changed/added/removed ones are
        marked edited.  A change to globals or init blocks invalidates
        everything.  Returns the number of procedures marked edited.
        """
        new_program = (
            parse_program(source) if isinstance(source, str) else source
        )
        old_inits = [(e.name, e.value) for e in self.program.inits]
        new_inits = [(e.name, e.value) for e in new_program.inits]
        if (
            list(self.program.global_names) != list(new_program.global_names)
            or old_inits != new_inits
        ):
            self.program = new_program
            self._full_dirty = True
            self._edited.clear()
            self.stats.edits += 1
            return len(new_program.procedures)

        old_procs = {p.name: p for p in self.program.procedures}
        new_procs = {p.name: p for p in new_program.procedures}
        changed: Set[str] = set()
        for name, proc in new_procs.items():
            old = old_procs.get(name)
            if old is None or procedure_fingerprint(old) != procedure_fingerprint(proc):
                changed.add(name)
        removed = set(old_procs) - set(new_procs)
        if removed:
            self.cache.evict_procs(removed)
        changed |= removed
        self.program = new_program
        if changed:
            self._edited |= changed
            self.stats.edits += len(changed)
        return len(changed)

    # ------------------------------------------------------------------
    # Analysis.
    # ------------------------------------------------------------------

    def analyze(self, run_transform: bool = False) -> PipelineResult:
        """Re-analyze, re-running the engine over the dirty region only."""
        config = self.config
        obs = self.obs
        previous = self.result
        front = whole_program_phases(
            self.program, config, obs,
            previous=previous.symbols if previous is not None else None,
        )

        region: Optional[DirtyRegion] = None
        fs_reuse: Optional[FSReuse] = None
        use_reuse: Optional[UseReuse] = None
        if previous is not None and not self._full_dirty:
            region = timed_phase(
                front.timings, obs.tracer, "dirty", compute_dirty_region,
                self._edited, previous.pcg, front.pcg, previous.aliases,
                front.aliases, previous.modref, front.modref, previous.fi,
                front.fi,
            )
            if config.context_mode != "value-contexts":
                clean = set(front.pcg.nodes) - set(region.fs_dirty)
                clean &= set(previous.fs.intra)
                clean = {
                    proc
                    for proc in clean
                    if _tables_complete(proc, previous.fs, front)
                }
                fs_reuse = FSReuse(previous=previous.fs, clean=frozenset(clean))
            # Under value contexts the clean-copy fast path does not apply:
            # a procedure's merged result is a meet over its context table,
            # and entry environments are per-context.  Incremental reuse
            # happens one tier down instead — every (context, procedure)
            # analysis is served by the content-addressed summary cache
            # (keyed on context entry-env fingerprints), and evictions by
            # procedure name drop all of a procedure's context slots.
            use_reuse = UseReuse(
                previous=previous.use, seeds=region.use_seeds
            )

        result = engine_phases(
            front, config, obs, self.cache, run_transform, fs_reuse, use_reuse
        )
        # Unreachable procedures lose their slots; every slot keeps only
        # its last two keys' entries, so the cache stays bounded.
        self.cache.evict_procs(
            region.delta.dropped_procs if region is not None else ()
        )

        self.result = result
        self.last_region = region
        edit_batch = len(self._edited)
        self._edited.clear()
        self._full_dirty = False

        stats = self.stats
        stats.analyses += 1
        stats.last_procs = len(result.pcg.nodes)
        stats.last_dirty = (
            len(region.fs_dirty) if region is not None else stats.last_procs
        )
        sched_stats = result.sched
        stats.last_reused = sched_stats.tasks_reused
        stats.last_cached = sched_stats.tasks_cached
        stats.last_engine_runs = sched_stats.tasks_run
        stats.total_engine_runs += sched_stats.tasks_run
        stats.total_reused += sched_stats.tasks_reused

        metrics = obs.metrics
        if metrics.enabled:
            metrics.counter("session.analyses").inc()
            if edit_batch:
                metrics.counter("session.edits").inc(edit_batch)
            metrics.gauge("session.procs").set(stats.last_procs)
            metrics.gauge("session.dirty").set(stats.last_dirty)
            metrics.gauge("session.reused").set(stats.last_reused)
            metrics.gauge("session.engine_runs").set(stats.last_engine_runs)
            metrics.gauge("session.reuse_rate").set(stats.reuse_rate)
            if stats.last_procs:
                metrics.histogram("session.dirty_fraction").observe(
                    stats.last_dirty / stats.last_procs
                )
        return result

    def report(self) -> str:
        """The deterministic analysis report of the last analyze()."""
        from repro.core.report import analysis_report

        if self.result is None:
            raise ValueError("no analysis yet: call analyze() first")
        return analysis_report(self.result)

    # ------------------------------------------------------------------
    # Diagnostics.
    # ------------------------------------------------------------------

    def _diag_stale_procs(self, prev, prev_table, result) -> Set[str]:
        """Procedures whose cached per-procedure findings may be wrong.

        A procedure's findings depend on its own flow-sensitive result
        (compared by object identity — the clean-copy path preserves it),
        its own alias pairs, and each callee's formals/MOD/REF/USE rows
        (USE changes do not dirty the FS region, so identity alone is not
        enough for the dead-store check).  Whole-program inputs (globals,
        entry) force ``_full_dirty`` and thus a fresh result with all-new
        intra objects, so they need no separate handling here.
        """
        stale: Set[str] = set()
        for proc in result.pcg.nodes:
            if proc not in prev_table:
                stale.add(proc)
                continue
            if prev.fs.intra.get(proc) is not result.fs.intra.get(proc):
                stale.add(proc)
                continue
            if prev.aliases.pairs_of(proc) != result.aliases.pairs_of(proc):
                stale.add(proc)
                continue
            for site in result.symbols[proc].call_sites:
                callee = site.callee
                if callee not in result.symbols or callee not in prev.symbols:
                    stale.add(proc)
                    break
                if (
                    prev.symbols[callee].formals
                    != result.symbols[callee].formals
                    or prev.modref.mod_of(callee) != result.modref.mod_of(callee)
                    or prev.modref.ref_of(callee) != result.modref.ref_of(callee)
                    or prev.use.use_of(callee) != result.use.use_of(callee)
                ):
                    stale.add(proc)
                    break
        return stale

    def diagnostics(self, options=None):
        """Lint the current program, re-checking only the dirty region.

        Runs :meth:`analyze` first if there are pending edits (or no
        analysis yet), then serves per-procedure findings from the session
        cache for every procedure whose diagnostic inputs are unchanged.
        Program-wide checks (use-before-init, dead procedures, fallback
        notes, the optional sanitizer) are cheap and always re-run.  The
        returned :class:`~repro.diag.engine.DiagnosticsResult` renders
        byte-identically to a cold ``check_source`` over the same text.
        """
        from repro.diag.engine import (
            DiagOptions,
            procedure_findings,
            run_diagnostics,
        )

        if self.result is None or self._edited or self._full_dirty:
            self.analyze()
        result = self.result
        cached = self._diag_cache
        if cached is not None and cached[0] is result:
            per_proc = cached[1]
            recomputed: Set[str] = set()
        else:
            if cached is None:
                prev_result, prev_table = None, {}
            else:
                prev_result, prev_table = cached
            if prev_result is None:
                recomputed = set(result.pcg.nodes)
            else:
                recomputed = self._diag_stale_procs(
                    prev_result, prev_table, result
                )
            fresh = procedure_findings(
                result, procs=sorted(recomputed), obs=self.obs
            )
            per_proc = {
                proc: fresh[proc] if proc in fresh else prev_table[proc]
                for proc in result.pcg.nodes
            }
            self._diag_cache = (result, per_proc)

        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("session.diag_runs").inc()
            metrics.gauge("session.diag_recomputed").set(len(recomputed))
            metrics.gauge("session.diag_reused").set(
                len(per_proc) - len(recomputed)
            )

        if options is None:
            options = DiagOptions.from_config(self.config)
        return run_diagnostics(
            result, options, obs=self.obs, proc_findings=per_proc
        )


def _tables_complete(proc, fs_prev: FSResult, front: WholeProgram) -> bool:
    """Can ``proc``'s previous entry tables be copied without gaps?

    Defensive demotion: the dirty-region computation should already catch
    every case where the key sets shift (formal lists and ref-global sets
    only change when the procedure or a summary changed), but a procedure
    with incomplete previous tables re-analyzes instead of crashing.
    """
    if proc not in fs_prev.intra:
        return False
    if proc == front.pcg.entry:
        return all(
            (proc, name) in fs_prev.entry_globals
            for name in front.program.initial_globals()
        )
    return all(
        (proc, formal) in fs_prev.entry_formals
        for formal in front.symbols[proc].formals
    ) and all(
        (proc, name) in fs_prev.entry_globals
        for name in front.modref.ref_globals(proc)
    )
