"""The compilation model of the paper's Figure 2.

::

    1. Collect IPA inputs                     (parse, validate, symbols)
    2. Construct the Program Call Graph       (repro.callgraph)
    3. Perform Interprocedural Aliasing       (repro.summary.alias)
    4. Compute Interprocedural Mod and Ref    (repro.summary.modref)
    5. Perform Interprocedural Constant Prop. (FI and FS, this package)
    6. Perform Reverse Topological Traversal  (USE + returns + transform)

Each phase is timed; the paper's Section 4 compile-time claim (FS analysis
costs ~1.5x FI) is measured against these timings by the benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.analysis import make_engine
from repro.analysis.transform import TransformResult, transform_program
from repro.callgraph.pcg import PCG, build_pcg
from repro.core.config import ICPConfig
from repro.core.effects import SummaryEffects
from repro.core.flow_insensitive import FIResult, flow_insensitive_icp
from repro.core.flow_sensitive import FSResult, flow_sensitive_icp
from repro.core.returns import ReturnsResult, compute_returns
from repro.ir.lattice import BOTTOM, LatticeValue
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.symbols import ProcedureSymbols, collect_symbols
from repro.lang.validate import validate_program
from repro.obs import NULL_OBS, Observability
from repro.sched.cache import SummaryCache
from repro.sched.scheduler import Scheduler, SchedulerStats
from repro.summary.alias import AliasInfo, compute_aliases
from repro.summary.modref import ModRefInfo, compute_modref
from repro.summary.use import UseInfo, compute_use


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
    #: What the wavefront scheduler did (worker/level/cache counters).
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
    ) -> PipelineResult:
        """Execute the pipeline over MiniF ``source`` (text or parsed AST)."""
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._run_phases(source, run_transform)
        with tracer.span(
            "pipeline",
            cat="pipeline",
            entry=self.config.entry,
            engine=self.config.engine,
            workers=self.config.workers,
            executor=self.config.executor,
            cache=self.config.cache,
        ):
            return self._run_phases(source, run_transform)

    def _run_phases(
        self,
        source: Union[str, ast.Program],
        run_transform: bool,
    ) -> PipelineResult:
        config = self.config
        obs = self.obs
        timings: Dict[str, float] = {}
        scheduler = Scheduler.from_config(config, cache=self.cache, obs=obs)

        if obs.enabled:
            def timed(name: str, thunk):
                started = time.perf_counter()
                with obs.tracer.span(name, cat="phase"), obs.profiler.phase(name):
                    value = thunk()
                timings[name] = time.perf_counter() - started
                return value
        else:
            def timed(name: str, thunk):
                started = time.perf_counter()
                value = thunk()
                timings[name] = time.perf_counter() - started
                return value

        # 1. Collect IPA inputs.
        if isinstance(source, str):
            program = timed("parse", lambda: parse_program(source))
        else:
            program = source
        timed(
            "validate",
            lambda: validate_program(
                program,
                require_main=(config.entry == "main"),
                allow_missing=config.allow_missing,
            ),
        )
        symbols = timed("collect", lambda: collect_symbols(program))

        # 2. Program call graph.
        pcg = timed("pcg", lambda: build_pcg(program, symbols, config.entry))
        if pcg.missing_callees and not config.allow_missing:
            raise ValueError(
                f"calls to missing procedures: {sorted(pcg.missing_callees)}"
            )

        # 3. Interprocedural aliasing.
        aliases = timed("alias", lambda: compute_aliases(program, symbols, pcg))

        # 4. Interprocedural MOD and REF.
        modref = timed(
            "modref", lambda: compute_modref(program, symbols, pcg, aliases)
        )

        # 5. Interprocedural constant propagation.
        fi = timed(
            "icp_fi",
            lambda: flow_insensitive_icp(program, symbols, pcg, modref, config),
        )
        engine = make_engine(config.engine)
        try:
            fs = timed(
                "icp_fs",
                lambda: flow_sensitive_icp(
                    program, symbols, pcg, modref, aliases, fi, config, engine,
                    scheduler=scheduler,
                ),
            )

            # 6. Reverse topological traversal: USE, returns, transformation.
            use = timed(
                "use",
                lambda: compute_use(
                    program, symbols, pcg, modref, scheduler=scheduler
                ),
            )
            returns: Optional[ReturnsResult] = None
            if config.propagate_returns or config.propagate_exit_values:
                returns = timed(
                    "returns",
                    lambda: compute_returns(
                        program, symbols, pcg, modref, fs, fi, aliases, config,
                        engine, with_exit_values=config.propagate_exit_values,
                        scheduler=scheduler,
                    ),
                )
        finally:
            sched_stats = scheduler.finish()

        transform: Optional[TransformResult] = None
        if run_transform:
            transform = timed(
                "transform",
                lambda: self._run_transform(
                    program, symbols, modref, aliases, fs, returns
                ),
            )

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
            config=self.config,
            sched=sched_stats,
            obs=self.obs if self.obs.enabled else None,
        )

    def _run_transform(
        self,
        program: ast.Program,
        symbols: Dict[str, ProcedureSymbols],
        modref: ModRefInfo,
        aliases: AliasInfo,
        fs: FSResult,
        returns: Optional[ReturnsResult],
    ) -> TransformResult:
        if returns is not None and self.config.propagate_exit_values:
            from repro.core.returns import ExitValueEffects

            effects: SummaryEffects = ExitValueEffects(
                modref, aliases, returns.fs_returns, returns.exit_values,
                symbols, program.global_names, self.config,
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
        return transform_program(
            program,
            symbols,
            entry_envs,
            effects,
            prune_dead_branches=self.config.prune_dead_branches,
            insert_entry_assignments=self.config.insert_entry_assignments,
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

