"""The compilation model of the paper's Figure 2.

::

    1. Collect IPA inputs                     (parse, symbols, validate)
    2. Construct the Program Call Graph       (repro.callgraph)
    3. Perform Interprocedural Aliasing       (repro.summary.alias)
    4. Compute Interprocedural Mod and Ref    (repro.summary.modref)
    5. Perform Interprocedural Constant Prop. (FI and FS, this package)
    6. Perform Reverse Topological Traversal  (USE + returns + transform)

This module holds the one copy of that sequence, in two halves:
:func:`whole_program_phases` (steps 1–5 up to flow-insensitive ICP) and
:func:`engine_phases` (flow-sensitive ICP and step 6).
:class:`CompilationPipeline` runs both; an incremental session runs its
dirty-region step between them; the serve daemon's flow-insensitive
fallback runs the first only.  :func:`timed_phase` is each phase's one
clock: the paper's Section 4 compile-time claim (FS analysis costs ~1.5x
FI) is measured against the ``timings`` it records.

Both halves look the phase functions up in this module's globals at call
time; perfbench's traced run rebinds them here to record its layer spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis import make_engine
from repro.analysis.base import IntraResult
from repro.analysis.transform import TransformResult, transform_program
from repro.callgraph.pcg import PCG, build_pcg
from repro.core.collector import collector_paused
from repro.core.config import ICPConfig
from repro.core.effects import SummaryEffects
from repro.core.flow_insensitive import FIResult, flow_insensitive_icp
from repro.core.flow_sensitive import FSResult, FSReuse, flow_sensitive_icp
from repro.core.returns import ExitValueEffects, ReturnsResult, compute_returns
from repro.ir.lattice import BOTTOM, LatticeValue
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.symbols import ProcedureSymbols, collect_symbols
from repro.lang.validate import validate_program
from repro.obs import NULL_OBS, Observability, Tracer
from repro.sched.cache import SummaryCache
from repro.sched.scheduler import Scheduler, SchedulerStats
from repro.summary.alias import AliasInfo, compute_aliases
from repro.summary.modref import ModRefInfo, compute_modref
from repro.summary.use import UseInfo, UseReuse, compute_use


@dataclass
class PipelineResult:
    """Everything the pipeline produced, phase by phase."""

    program: ast.Program
    symbols: Dict[str, ProcedureSymbols]
    pcg: PCG
    aliases: AliasInfo
    modref: ModRefInfo
    use: UseInfo
    fi: FIResult
    fs: FSResult
    returns: Optional[ReturnsResult] = None
    transform: Optional[TransformResult] = None
    timings: Dict[str, float] = field(default_factory=dict)
    config: ICPConfig = field(default_factory=ICPConfig)
    #: What the engine passes did (run/cached/reused counts, cache deltas).
    sched: Optional[SchedulerStats] = None
    #: The observability context the run recorded into (``None`` when the
    #: run was not instrumented — the default).
    obs: Optional[Observability] = field(default=None, repr=False)

    # -- convenience queries ----------------------------------------------

    def fs_constant_formals(self) -> List[tuple]:
        return self.fs.constant_formals()

    def fi_constant_formals(self) -> List[tuple]:
        return self.fi.constant_formals()

    def entry_env(self, proc: str, method: str = "fs") -> Dict[str, LatticeValue]:
        if proc not in self.symbols:
            known = ", ".join(sorted(self.symbols))
            raise ValueError(
                f"unknown procedure {proc!r}; known procedures: {known}"
            )
        if method == "fs":
            return self.fs.entry_env(proc, self.symbols[proc])
        if method == "fi":
            return self.fi.entry_env(proc, self.symbols[proc])
        raise ValueError(f"unknown method {method!r}")

    def summary(self) -> str:
        """A human-readable report of what was found."""
        lines = [
            f"procedures reachable from {self.pcg.entry!r}: {len(self.pcg.nodes)}",
            f"call edges: {len(self.pcg.edges)} "
            f"(back edges: {len(self.pcg.back_edges)}, "
            f"fallback ratio: {self.fs.fallback_ratio(self.pcg):.2f})",
            f"FI program-constant globals: {sorted(self.fi.global_constants)}",
            f"FI constant formals: {self.fi.constant_formals()}",
            f"FS constant formals: {self.fs.constant_formals()}",
        ]
        if self.fs.contexts is not None:
            stats = self.fs.contexts
            lines.append(
                f"value contexts: {stats.contexts} tabulated "
                f"({stats.widenings} widenings, "
                f"{len(stats.degraded_procs)} degraded procedure(s))"
            )
        fs_globals = sorted(
            key for key, value in self.fs.entry_globals.items() if value.is_const
        )
        lines.append(f"FS constant globals at entry: {fs_globals}")
        if self.returns is not None:
            lines.append(
                "FS constant returns: "
                f"{sorted(self.returns.constant_returns().items())}"
            )
        if self.transform is not None:
            lines.append(
                f"substitutions: {self.transform.total_substitutions}, "
                f"folds: {self.transform.total_folds}, "
                f"branches pruned: {self.transform.total_pruned}"
            )
        return "\n".join(lines)


@dataclass
class WholeProgram:
    """The whole-program half's products: Figure 2 steps 1–5 up to FI ICP.

    :func:`engine_phases` finishes them into a :class:`PipelineResult`;
    ``timings`` is the dict both halves (and a session's ``dirty`` step)
    record into.
    """

    program: ast.Program
    symbols: Dict[str, ProcedureSymbols]
    pcg: PCG
    aliases: AliasInfo
    modref: ModRefInfo
    fi: FIResult
    timings: Dict[str, float]


def timed_phase(
    timings: Dict[str, float], tracer: Tracer, name: str, fn, *args, **kwargs
):
    """Run ``fn(*args, **kwargs)`` as phase ``name``: the phase's one clock.

    The phase's wall seconds land in ``timings[name]``; a live tracer also
    records it as a ``phase`` span.
    """
    started = time.perf_counter()
    with tracer.span(name, cat="phase"):
        value = fn(*args, **kwargs)
    timings[name] = time.perf_counter() - started
    return value


def whole_program_phases(
    source: Union[str, ast.Program],
    config: ICPConfig,
    obs: Observability = NULL_OBS,
    previous: Optional[Dict[str, ProcedureSymbols]] = None,
) -> WholeProgram:
    """Parse (for text), collect, validate, PCG, alias, MOD/REF, FI ICP.

    None of these passes runs the intraprocedural engine.  The serve
    daemon's flow-insensitive fallback stops here.  ``previous`` is an
    earlier run's symbols: each procedure that is still the same object
    keeps its entry instead of being collected again.
    """
    timings: Dict[str, float] = {}
    phase = partial(timed_phase, timings, obs.tracer)

    # 1. Collect IPA inputs.
    if isinstance(source, str):
        program = phase("parse", parse_program, source)
    else:
        program = source
    symbols = phase("collect", collect_symbols, program, previous=previous)
    phase(
        "validate", validate_program, program,
        require_main=(config.entry == "main"),
        allow_missing=config.allow_missing,
        symbols=symbols,
    )

    # 2. Program call graph.
    pcg = phase("pcg", build_pcg, program, symbols, config.entry)
    if pcg.missing_callees and not config.allow_missing:
        raise ValueError(
            f"calls to missing procedures: {sorted(pcg.missing_callees)}"
        )

    # 3. Interprocedural aliasing.
    aliases = phase("alias", compute_aliases, program, symbols, pcg)

    # 4. Interprocedural MOD and REF.
    modref = phase("modref", compute_modref, program, symbols, pcg, aliases)

    # 5. Interprocedural constant propagation, flow-insensitive part.
    fi = phase(
        "icp_fi", flow_insensitive_icp, program, symbols, pcg, modref, config
    )
    return WholeProgram(program, symbols, pcg, aliases, modref, fi, timings)


def engine_phases(
    front: WholeProgram,
    config: ICPConfig,
    obs: Observability = NULL_OBS,
    cache: Optional[SummaryCache] = None,
    run_transform: bool = False,
    fs_reuse: Optional[FSReuse] = None,
    use_reuse: Optional[UseReuse] = None,
) -> PipelineResult:
    """Flow-sensitive ICP, USE, returns and transform over ``front``.

    One scheduler (behind ``cache``) serves the engine passes.  An
    incremental session passes its clean region as ``fs_reuse`` and
    ``use_reuse``.  The run's ``timings`` go to the profiler once, here.
    """
    program, symbols, pcg = front.program, front.symbols, front.pcg
    aliases, modref, fi = front.aliases, front.modref, front.fi
    timings = front.timings
    phase = partial(timed_phase, timings, obs.tracer)
    scheduler = Scheduler(cache=cache, obs=obs)
    engine = make_engine(config.engine)

    # 5. Interprocedural constant propagation, flow-sensitive part.
    fs = phase(
        "icp_fs", flow_sensitive_icp,
        program, symbols, pcg, modref, aliases, fi, config, engine,
        scheduler=scheduler, reuse=fs_reuse,
    )

    # 6. Reverse topological traversal: USE, returns, transformation.
    use = phase(
        "use", compute_use, program, symbols, pcg, modref, reuse=use_reuse
    )
    returns: Optional[ReturnsResult] = None
    # The returns pass's engine runs, kept for the transformation only.
    returns_runs: Optional[Dict[str, IntraResult]] = (
        {} if run_transform else None
    )
    if config.propagate_returns or config.propagate_exit_values:
        returns = phase(
            "returns", compute_returns,
            program, symbols, pcg, modref, fs, fi, aliases, config, engine,
            with_exit_values=config.propagate_exit_values,
            scheduler=scheduler, runs=returns_runs,
        )
    sched_stats = scheduler.finish()

    transform: Optional[TransformResult] = None
    if run_transform:
        transform = phase(
            "transform", _transform,
            program, symbols, pcg, modref, aliases, fs, returns, returns_runs,
            config, obs,
        )

    obs.profiler.record_phases(timings)
    return PipelineResult(
        program=program,
        symbols=symbols,
        pcg=pcg,
        aliases=aliases,
        modref=modref,
        use=use,
        fi=fi,
        fs=fs,
        returns=returns,
        transform=transform,
        timings=timings,
        config=config,
        sched=sched_stats,
        obs=obs if obs.enabled else None,
    )


def _transform(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    aliases: AliasInfo,
    fs: FSResult,
    returns: Optional[ReturnsResult],
    returns_runs: Dict[str, IntraResult],
    config: ICPConfig,
    obs: Observability,
) -> TransformResult:
    """Rewrite ``program`` with the FS entry constants (and returns),
    from the engine runs :func:`_reusable_details` picks where it can."""
    entry_envs, effects = transform_inputs(
        program, symbols, modref, aliases, fs, returns, config
    )
    return transform_program(
        program,
        symbols,
        entry_envs,
        effects,
        prune_dead_branches=config.prune_dead_branches,
        insert_entry_assignments=config.insert_entry_assignments,
        details=_reusable_details(pcg, fs, returns, returns_runs, entry_envs),
        obs=obs,
    )


# Paused too: it allocates between paused phases, and since each phase's
# exit collection counts toward generation 1, an automatic collection here
# would usually be a generation-1 one, inside the pipeline run.
@collector_paused
def transform_inputs(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    modref: ModRefInfo,
    aliases: AliasInfo,
    fs: FSResult,
    returns: Optional[ReturnsResult],
    config: ICPConfig,
) -> Tuple[Dict[str, Dict[str, LatticeValue]], SummaryEffects]:
    """The transformation's entry environments and call effects.

    The environments are the FS solution's; the effects carry the final
    return (and exit) summaries when the returns extension ran.
    """
    if returns is not None and config.propagate_exit_values:
        effects: SummaryEffects = ExitValueEffects(
            modref, aliases, returns.fs_returns, returns.exit_values,
            symbols, program.global_names, config,
        )
    elif returns is not None:
        fs_returns = returns.fs_returns
        effects = SummaryEffects(
            modref,
            aliases,
            lambda site: fs_returns.get(site.callee, BOTTOM),
        )
    else:
        effects = SummaryEffects(modref, aliases)
    entry_envs = {
        proc: fs.entry_env(proc, symbols[proc])
        for proc in fs.intra
    }
    return entry_envs, effects


def _reusable_details(
    pcg: PCG,
    fs: FSResult,
    returns: Optional[ReturnsResult],
    returns_runs: Dict[str, IntraResult],
    entry_envs: Dict[str, Dict[str, LatticeValue]],
) -> Dict[str, object]:
    """Engine details computed with the transformation's own inputs.

    A run qualifies only if it was seeded with the procedure's entry
    environment and saw the transformation's call effects:

    - with the returns extension, the returns pass's run, and only for a
      procedure whose callees all come later in RPO, so every return and
      exit summary that run read was already final;
    - without it, the FS run (same effects); under value contexts only
      for a procedure with a single context whose environment equals its
      entry environment, since merged contexts have no one run.

    :func:`transform_program` further requires that each detail was
    lowered from the very procedure it rewrites.
    """
    if returns is not None:
        return {
            proc: intra.detail
            for proc, intra in returns_runs.items()
            if all(
                pcg.rpo_position(edge.callee) > pcg.rpo_position(proc)
                for edge in pcg.edges_out_of(proc)
            )
        }
    if fs.contexts is None:
        return {proc: intra.detail for proc, intra in fs.intra.items()}
    return {
        proc: fs.intra[proc].detail
        for proc, env in fs.single_context_envs.items()
        if env == entry_envs[proc]
    }


class CompilationPipeline:
    """Runs the Figure 2 phases in order over a MiniF program.

    A pipeline owns its summary cache (when ``config.cache`` is set), so
    repeated :meth:`run` calls on the same pipeline reuse memoized
    per-procedure analyses across runs — the warm-rerun path reports a 100%
    hit rate on an unchanged program and skips every re-analysis.
    """

    def __init__(
        self,
        config: Optional[ICPConfig] = None,
        obs: Optional[Observability] = None,
    ):
        from repro.store import cache_from_config

        self.config = config or ICPConfig()
        self.obs = obs or NULL_OBS
        #: The summary cache (``config.cache``), persistent when the config
        #: names a ``store_dir`` — summaries then outlive this process.
        self.cache: Optional[SummaryCache] = cache_from_config(
            self.config, obs=self.obs
        )

    def run(
        self,
        source: Union[str, ast.Program],
        run_transform: bool = False,
        previous: Optional[Dict[str, ProcedureSymbols]] = None,
    ) -> PipelineResult:
        """Execute the pipeline over MiniF ``source`` (text or parsed AST).

        ``previous`` is passed to :func:`whole_program_phases`: symbols
        already collected from these very procedure objects.
        """
        config = self.config
        with self.obs.tracer.span(
            "pipeline",
            cat="pipeline",
            entry=config.entry,
            engine=config.engine,
            cache=config.cache,
        ):
            front = whole_program_phases(source, config, self.obs, previous)
            return engine_phases(
                front, config, self.obs, self.cache, run_transform
            )


def analyze(
    source: Union[str, ast.Program],
    config: Optional[ICPConfig] = None,
    run_transform: bool = False,
    obs: Optional[Observability] = None,
) -> PipelineResult:
    """One-call convenience wrapper around :class:`CompilationPipeline`."""
    return CompilationPipeline(config, obs=obs).run(
        source, run_transform=run_transform
    )
