"""Flow-sensitive interprocedural constant propagation (paper Figure 4).

One forward (reverse-postorder) traversal of the PCG.  For each procedure:

1. Build the *entry environment*: a formal parameter is constant iff every
   contributing call edge supplies the same constant; a global is constant at
   entry iff every contributing edge recorded the same constant value for it.
   Edges from callers already analyzed contribute the values the caller's own
   flow-sensitive analysis observed at the call site (call sites proved
   unreachable contribute nothing — the paper's optimism).  Edges from callers
   *not yet* analyzed — back/fallback edges, present exactly when the PCG has
   cycles — contribute the flow-insensitive solution instead.

2. Run the flow-sensitive intraprocedural engine (Wegman–Zadeck SCC by
   default) once, seeded with the entry environment and with call effects
   from the MOD/REF summaries.

3. Record, at every executable call site, the lattice value of each argument
   and of each global in the callee's REF set.

Because each procedure is analyzed exactly once, total cost is one
intraprocedural analysis per procedure, as the paper requires; with no back
edges the result equals the iterative flow-sensitive fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis import make_engine
from repro.analysis.base import CallEffects, IntraEngine, IntraResult
from repro.callgraph.pcg import CallEdge, PCG
from repro.core.collector import collector_paused
from repro.core.config import ICPConfig
from repro.core.effects import SummaryEffects
from repro.core.flow_insensitive import FIResult, flow_insensitive_icp
from repro.ir.lattice import BOTTOM, Const, LatticeValue, meet_all
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols
from repro.sched.cache import (
    config_fingerprint,
    effects_fingerprint,
    env_fingerprint,
    procedure_fingerprint,
)
from repro.sched.scheduler import AnalysisTask, Scheduler
from repro.summary.alias import AliasInfo
from repro.summary.modref import ModRefInfo

FormalKey = Tuple[str, str]
GlobalKey = Tuple[str, str]


@dataclass
class FSResult:
    """The flow-sensitive solution."""

    #: Lattice value of each formal at procedure entry.
    entry_formals: Dict[FormalKey, LatticeValue] = field(default_factory=dict)
    #: Lattice value of each (procedure, global) at procedure entry.
    entry_globals: Dict[GlobalKey, LatticeValue] = field(default_factory=dict)
    #: Per-procedure intraprocedural results (arg/global values at call sites).
    intra: Dict[str, IntraResult] = field(default_factory=dict)
    #: Procedures with at least one contributing (executable) call path.
    fs_reachable: Set[str] = field(default_factory=set)
    #: Edges that used the flow-insensitive fallback solution.
    fallback_edges: List[CallEdge] = field(default_factory=list)
    #: The FI solution used for fallback (None for acyclic PCGs analyzed alone).
    fi: Optional[FIResult] = None
    #: Wall-clock seconds spent in the intraprocedural engine.
    intra_seconds: float = 0.0
    #: Tabulation statistics when the run used ``context_mode =
    #: "value-contexts"`` (:class:`repro.analysis.contexts.ContextStats`);
    #: None under the default carini-hind traversal.
    contexts: Optional[object] = None
    #: Value contexts only: the environment of the one engine run behind
    #: ``intra[proc]``, for each procedure tabulated in a single context (or
    #: analyzed once as FS-dead).  Procedures whose contexts were merged are
    #: absent.  Under carini-hind every ``intra`` run used ``entry_env``.
    single_context_envs: Dict[str, Dict[str, LatticeValue]] = field(
        default_factory=dict
    )

    def entry_formal(self, proc: str, formal: str) -> LatticeValue:
        return self.entry_formals.get((proc, formal), BOTTOM)

    def entry_global(self, proc: str, name: str) -> LatticeValue:
        return self.entry_globals.get((proc, name), BOTTOM)

    def entry_env(self, proc: str, symbols: ProcedureSymbols) -> Dict[str, LatticeValue]:
        """Entry lattice environment of ``proc`` under the FS solution."""
        env: Dict[str, LatticeValue] = {}
        for formal in symbols.formals:
            env[formal] = self.entry_formal(proc, formal)
        for (owner, name), value in self.entry_globals.items():
            if owner == proc:
                env[name] = value
        return env

    def constant_formals(self) -> List[FormalKey]:
        return sorted(k for k, v in self.entry_formals.items() if v.is_const)

    def fallback_ratio(self, pcg: PCG) -> float:
        """Fraction of PCG edges that used the FI fallback (paper §3.2)."""
        if not pcg.edges:
            return 0.0
        return len(self.fallback_edges) / len(pcg.edges)


@dataclass(frozen=True)
class FSReuse:
    """Carry-over from a previous FS solution for incremental re-analysis.

    ``clean`` names the procedures proven outside the dirty region: their
    previous per-procedure results (intra tables, entry environments,
    reachability) are copied verbatim instead of re-running — or even
    fingerprinting — the intraprocedural engine.  Correctness rests on the
    dirty-region computation being an over-approximation of every procedure
    whose analysis inputs could have changed (see ``repro.session.dirty``).
    """

    previous: FSResult
    clean: FrozenSet[str]


@collector_paused
def flow_sensitive_icp(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    aliases: Optional[AliasInfo] = None,
    fi: Optional[FIResult] = None,
    config: Optional[ICPConfig] = None,
    engine: Optional[IntraEngine] = None,
    effects: Optional[CallEffects] = None,
    scheduler: Optional[Scheduler] = None,
    reuse: Optional[FSReuse] = None,
) -> FSResult:
    """Run the Figure 4 algorithm and return its solution.

    The flow-insensitive pre-pass is performed only when the PCG has fallback
    edges and no ``fi`` solution was supplied — exactly the paper's "only if
    there are cycles in the PCG".

    Every engine run goes through ``scheduler``, which serves it from its
    summary cache when it has one.  With ``reuse``, procedures in the clean
    set copy their previous results instead of being fingerprinted or
    analyzed at all; entry environments for *dirty* procedures still read
    the copied tables, so a clean caller feeds its callees exactly the
    values it fed them last run.
    """
    config = config or ICPConfig()
    engine = engine or make_engine(config.engine)
    scheduler = scheduler or Scheduler()

    if config.context_mode == "value-contexts":
        # Value-context tabulation (Padhye & Khedker): per-entry-environment
        # summaries instead of the one-pass traversal.  The FI solution is
        # always needed — it seeds the blowup guard's widened contexts.
        from repro.analysis.contexts import value_contexts_icp

        if fi is None:
            fi = flow_insensitive_icp(program, symbols, pcg, modref, config)
        result = FSResult(fi=fi)
        value_contexts_icp(
            program, symbols, pcg, modref, aliases, fi, config, engine,
            effects or SummaryEffects(modref, aliases), result, scheduler,
        )
        return result

    if fi is None and pcg.fallback_edges:
        fi = flow_insensitive_icp(program, symbols, pcg, modref, config)

    result = FSResult(fi=fi)
    effects = effects or SummaryEffects(modref, aliases)
    proc_map = program.procedure_map()
    analyzed: Set[str] = set()
    clean: FrozenSet[str] = reuse.clean if reuse is not None else frozenset()
    config_fp = config_fingerprint(
        config.engine, config.propagate_floats, program.global_names, "fs",
    )
    seconds_before = scheduler.stats.analysis_seconds

    for proc_name in pcg.rpo:
        proc_symbols = symbols[proc_name]
        if proc_name in clean:
            _copy_previous(
                proc_name, reuse.previous, result, symbols, program, pcg, modref,
            )
            scheduler.stats.tasks_reused += 1
        else:
            entry_env = _build_entry_env(
                proc_name, proc_symbols, program, pcg, modref, fi, config,
                result, analyzed,
            )
            fingerprints: tuple = ()
            if scheduler.cache is not None:
                fingerprints = (
                    procedure_fingerprint(proc_map[proc_name]),
                    env_fingerprint(entry_env),
                    fs_effects_fingerprint(proc_name, proc_symbols, effects, aliases),
                    config_fp,
                )
            result.intra[proc_name] = scheduler.run(
                engine,
                AnalysisTask(
                    proc=proc_map[proc_name],
                    symbols=proc_symbols,
                    entry_env=entry_env,
                    effects=effects,
                    fingerprints=fingerprints,
                ),
            )
        analyzed.add(proc_name)
    result.intra_seconds += scheduler.stats.analysis_seconds - seconds_before
    return result


def _copy_previous(
    proc_name: str,
    previous: FSResult,
    result: FSResult,
    symbols: Dict[str, ProcedureSymbols],
    program: ast.Program,
    pcg: PCG,
    modref: ModRefInfo,
) -> None:
    """Carry one clean procedure's previous solution into ``result``.

    The dirty-region computation guarantees the copied keys exist: a
    procedure whose formal list, referenced-global set, or reachability
    could have changed is never classified clean (``repro.session`` also
    demotes procedures with incomplete previous tables defensively).  The
    tables fill as :func:`_build_entry_env` fills them, fallback edges
    included.
    """
    result.intra[proc_name] = previous.intra[proc_name]
    if proc_name in previous.fs_reachable:
        result.fs_reachable.add(proc_name)
    if proc_name == pcg.entry:
        # The root procedure records no entry formals (its imaginary call
        # carries block-data globals only) and no fallback edges.
        global_names = list(program.initial_globals())
    else:
        result.fallback_edges.extend(
            edge for edge in pcg.edges_into(proc_name) if pcg.is_fallback(edge)
        )
        for formal in symbols[proc_name].formals:
            key = (proc_name, formal)
            result.entry_formals[key] = previous.entry_formals[key]
        global_names = sorted(modref.ref_globals(proc_name))
    for name in global_names:
        key = (proc_name, name)
        result.entry_globals[key] = previous.entry_globals[key]


def fs_effects_fingerprint(
    proc_name: str,
    proc_symbols: ProcedureSymbols,
    effects: CallEffects,
    aliases: Optional[AliasInfo],
    site_extra: Optional[Dict[int, str]] = None,
) -> str:
    """Content fingerprint of the effects visible inside one procedure.

    ``site_extra`` lets the returns extension mix each call site's callee
    return/exit summary into the fingerprint.
    """
    sites = [
        (
            site.callee,
            effects.modified_vars(site),
            effects.recorded_globals(site),
            site_extra.get(site.index, "") if site_extra else "",
        )
        for site in proc_symbols.call_sites
    ]
    pairs = aliases.pairs_of(proc_name) if aliases is not None else ()
    return effects_fingerprint(sites, pairs)


def _build_entry_env(
    proc_name: str,
    proc_symbols: ProcedureSymbols,
    program: ast.Program,
    pcg: PCG,
    modref: ModRefInfo,
    fi: Optional[FIResult],
    config: ICPConfig,
    result: FSResult,
    analyzed: Set[str],
) -> Dict[str, LatticeValue]:
    env: Dict[str, LatticeValue] = {}
    if proc_name == pcg.entry:
        # Imaginary call to main carrying the block-data constants (Figure 4).
        result.fs_reachable.add(proc_name)
        for name, value in program.initial_globals().items():
            if config.admit_value(value):
                env[name] = Const(value)
            else:
                env[name] = BOTTOM
        for (key, value) in list(env.items()):
            result.entry_globals[(proc_name, key)] = value
        return env

    edges = pcg.edges_into(proc_name)
    contributing: List[Tuple[CallEdge, bool]] = []  # (edge, is_fallback)
    for edge in edges:
        if edge.caller in analyzed:
            if edge.caller not in result.fs_reachable:
                continue  # the caller itself is dead code
            site_values = result.intra[edge.caller].site_values(edge.site)
            if not site_values.executable:
                continue  # unreachable call site: contributes nothing
            contributing.append((edge, False))
        else:
            contributing.append((edge, True))
            result.fallback_edges.append(edge)

    if contributing:
        result.fs_reachable.add(proc_name)

    # Formal parameters: "if all arguments corresponding to a particular
    # formal parameter of p are the same constant, propagate it".
    for index, formal in enumerate(proc_symbols.formals):
        contributions: List[LatticeValue] = []
        for edge, is_fallback in contributing:
            if is_fallback:
                value = fi.arg_value(edge.site, index) if fi is not None else BOTTOM
            else:
                site_values = result.intra[edge.caller].site_values(edge.site)
                value = config.admit(site_values.arg_values[index])
            contributions.append(value)
        value = meet_all(contributions) if contributions else BOTTOM
        if value.is_top:
            value = BOTTOM  # dead procedure: claim nothing
        env[formal] = value
        result.entry_formals[(proc_name, formal)] = value

    # Globals: only those the procedure (transitively) references are recorded
    # at call sites, so only those can be constant at entry.
    for name in sorted(modref.ref_globals(proc_name)):
        contributions = []
        for edge, is_fallback in contributing:
            if is_fallback:
                if fi is not None and name in fi.global_constants:
                    contributions.append(Const(fi.global_constants[name]))
                else:
                    contributions.append(BOTTOM)
            else:
                site_values = result.intra[edge.caller].site_values(edge.site)
                recorded = site_values.global_values.get(name, BOTTOM)
                contributions.append(config.admit(recorded))
        value = meet_all(contributions) if contributions else BOTTOM
        if value.is_top:
            value = BOTTOM
        env[name] = value
        result.entry_globals[(proc_name, name)] = value
    return env
