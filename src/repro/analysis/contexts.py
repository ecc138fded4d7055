"""Context-sensitive ICP via value contexts (Padhye & Khedker).

The paper's one-pass flow-sensitive traversal (``core.flow_sensitive``)
substitutes the flow-insensitive solution on every PCG back edge — recursion
never gets flow-sensitive entry facts.  This module implements the
alternative ``ICPConfig.context_mode = "value-contexts"``: a tabulation that
keys reusable procedure summaries by the callee's *abstract entry
environment* (its "value context").

Algorithm
---------

A *context* is a pair (procedure, entry environment).  The table starts
with one root context — the entry procedure under the block-data initial
globals — and grows monotonically:

1. Analyze every pending context with the intraprocedural engine, through
   the scheduler (so a summary cache memoizes per-context results under
   context-qualified slots).
2. For each *executable* call site of an analyzed context, build the
   callee's entry environment from the propagated argument and global
   values and request the context (callee, env): an exact match reuses the
   tabulated entry; a new environment creates and enqueues a new context —
   including across recursive and ``fallback_edges``, which is precisely
   where this mode beats the one-pass traversal.
3. Iterate until no context is pending.

Because call-modified variables go to BOTTOM in the caller (the base-mode
``CallEffects``), no caller ever reads a callee *exit* value: the
tabulation is a pure forward worklist and needs no caller suspension.
Each non-widened context is analyzed exactly once.

Termination and the blowup guard
--------------------------------

Descending-argument recursion (``rec(n - 1)``) terminates naturally: the
base case's decided branch kills the recursive site.  Recursion whose
abstract argument never converges (``rec(n + 1)`` under an undecidable
guard) would enumerate contexts forever; the ``context_max_per_proc``
guard catches it.  Once a procedure holds that many contexts, further
environments are routed into a single *widened* context seeded from the
flow-insensitive fallback environment (the carini-hind answer) and merged
monotonically by lattice meet — each merge that changes the environment
counts as a widening and re-enqueues the context.  The meet only descends
in a finite-height lattice, so the widened context converges.  Call sites
whose request was degraded this way are reported as fallback edges
(surfacing as ICP006), and the procedure is counted in
:class:`ContextStats`.

Soundness
---------

By induction every concrete call is covered by some context whose
environment is sound for it (the root covers program start; executable
sites feed sound environments forward; widening only weakens by meet).
The merged :class:`~repro.core.flow_sensitive.FSResult` takes the meet
over contexts per procedure, so every published claim is sound.  ICP900's
recorder-based sanitizer verifies this empirically in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.analysis.base import (
    CallEffects,
    CallSiteValues,
    IntraEngine,
    IntraResult,
    SiteKey,
)
from repro.callgraph.pcg import PCG
from repro.core.config import ICPConfig
from repro.core.flow_insensitive import FIResult
from repro.ir.lattice import BOTTOM, Const, LatticeValue, meet, meet_all
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols
from repro.sched.cache import (
    config_fingerprint,
    env_fingerprint,
    procedure_fingerprint,
)
from repro.sched.scheduler import AnalysisTask, Scheduler
from repro.summary.alias import AliasInfo
from repro.summary.modref import ModRefInfo


@dataclass
class Context:
    """One tabulated (procedure, entry environment) pair."""

    proc_name: str
    env: Dict[str, LatticeValue]
    env_fp: str
    serial: int
    widened: bool = False
    intra: Optional[IntraResult] = None
    runs: int = 0
    queued: bool = False


@dataclass
class ContextStats:
    """What the value-context tabulation did (deterministic analysis facts).

    Everything here is a pure function of the program and configuration —
    independent of cache warmth — so it may appear in the byte-identity
    report surface.
    """

    mode: str = "value-contexts"
    #: Total contexts tabulated (widened contexts included, dead-procedure
    #: placeholder analyses excluded).
    contexts: int = 0
    #: Worklist rounds until fixpoint.
    rounds: int = 0
    #: Environment merges into a widened context that changed it.
    widenings: int = 0
    #: Context requests routed to a widened context by the blowup guard.
    degraded_requests: int = 0
    #: Per-procedure context-table sizes (procedures with one context only
    #: are the common case; recursion and polyvariant call sites grow this).
    table_sizes: Dict[str, int] = field(default_factory=dict)
    #: Procedures degraded to a widened (carini-hind-seeded) context.
    degraded_procs: List[str] = field(default_factory=list)

    @property
    def max_table_size(self) -> int:
        return max(self.table_sizes.values(), default=0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "contexts": self.contexts,
            "rounds": self.rounds,
            "widenings": self.widenings,
            "degraded_requests": self.degraded_requests,
            "degraded_procs": list(self.degraded_procs),
            "max_table_size": self.max_table_size,
            "procs": len(self.table_sizes),
        }

    def render(self) -> str:
        """One-paragraph report section (stable text; see analysis_report)."""
        degraded = (
            ", ".join(f"'{p}'" for p in self.degraded_procs)
            if self.degraded_procs
            else "none"
        )
        return "\n".join(
            [
                f"value contexts: {self.contexts} context(s) over "
                f"{len(self.table_sizes)} procedure(s) "
                f"(max {self.max_table_size} per procedure, "
                f"{self.rounds} round(s))",
                f"  widenings: {self.widenings}; degraded procedures: "
                f"{degraded} ({self.degraded_requests} degraded request(s))",
            ]
        )


class _MergedDetail:
    """Engine detail merged across contexts, for the reachability lint.

    ICP004 reads ``build.cfg``/``reached_blocks``/``executable_edges``; the
    union over contexts is the correct may-execute answer.  Per-run
    profiling counters do not merge meaningfully and are left absent.
    """

    __slots__ = ("build", "reached_blocks", "executable_edges")

    def __init__(self, build, reached_blocks, executable_edges):
        self.build = build
        self.reached_blocks = reached_blocks
        self.executable_edges = executable_edges


class _Tabulation:
    """One value-context tabulation run over a prepared pipeline front-end."""

    def __init__(
        self,
        program: ast.Program,
        symbols: Dict[str, ProcedureSymbols],
        pcg: PCG,
        modref: ModRefInfo,
        aliases: Optional[AliasInfo],
        fi: FIResult,
        config: ICPConfig,
        engine: IntraEngine,
        effects: CallEffects,
        result,  # FSResult, duck-typed to avoid an import cycle
        scheduler: Scheduler,
    ):
        self.program = program
        self.symbols = symbols
        self.pcg = pcg
        self.modref = modref
        self.aliases = aliases
        self.fi = fi
        self.config = config
        self.engine = engine
        self.effects = effects
        self.result = result
        self.scheduler = scheduler
        self.proc_map = program.procedure_map()

        #: proc -> env fingerprint -> Context (insertion = creation order).
        self.tables: Dict[str, Dict[str, Context]] = {}
        #: The per-procedure widened context, once the blowup guard fires.
        self.widened: Dict[str, Context] = {}
        self.pending: List[Context] = []
        #: Call sites whose context request was degraded by the guard.
        self.fallback_sites: Set[SiteKey] = set()
        self.stats = ContextStats()
        self._serial = 0
        self._config_fp = config_fingerprint(
            config.engine, config.propagate_floats, program.global_names, "fs"
        )

    # -- table maintenance -------------------------------------------------

    def _new_context(
        self, proc: str, env: Dict[str, LatticeValue], widened: bool = False
    ) -> Context:
        ctx = Context(
            proc_name=proc,
            env=env,
            env_fp=env_fingerprint(env),
            serial=self._serial,
            widened=widened,
        )
        self._serial += 1
        self.stats.contexts += 1
        self._enqueue(ctx)
        return ctx

    def _enqueue(self, ctx: Context) -> None:
        if not ctx.queued:
            ctx.queued = True
            self.pending.append(ctx)

    def _request(self, proc: str, env: Dict[str, LatticeValue], site) -> None:
        """Look up or create the context for (proc, env).

        ``site`` is the requesting call site, recorded as a fallback site
        when the blowup guard routes the request to the widened context.
        """
        table = self.tables.setdefault(proc, {})
        fp = env_fingerprint(env)
        if fp in table:
            return
        widened = self.widened.get(proc)
        if widened is not None:
            self.stats.degraded_requests += 1
            self.fallback_sites.add((site.caller, site.index))
            self._widen_into(widened, env)
            return
        if len(table) >= self.config.context_max_per_proc:
            # Blowup guard: degrade to one widened context seeded from the
            # FI fallback environment (the carini-hind answer on this edge).
            self.stats.degraded_requests += 1
            self.stats.degraded_procs.append(proc)
            self.fallback_sites.add((site.caller, site.index))
            seed = self._fi_fallback_env(proc)
            merged = {
                name: meet(seed.get(name, BOTTOM), env.get(name, BOTTOM))
                for name in dict.fromkeys(list(seed) + list(env))
            }
            self.widened[proc] = self._new_context(proc, merged, widened=True)
            return
        table[fp] = self._new_context(proc, env)

    def _widen_into(self, ctx: Context, env: Dict[str, LatticeValue]) -> None:
        """Monotone merge of a requested environment into a widened context."""
        changed = False
        for name in dict.fromkeys(list(ctx.env) + list(env)):
            old = ctx.env.get(name, BOTTOM)
            new = meet(old, env.get(name, BOTTOM))
            if new != old:
                ctx.env[name] = new
                changed = True
        if changed:
            self.stats.widenings += 1
            self._enqueue(ctx)

    # -- environment construction ------------------------------------------

    def _root_env(self) -> Dict[str, LatticeValue]:
        """The imaginary call to the entry procedure (block-data globals)."""
        env: Dict[str, LatticeValue] = {}
        for name, value in self.program.initial_globals().items():
            env[name] = (
                Const(value) if self.config.admit_value(value) else BOTTOM
            )
        return env

    def _callee_env(
        self, callee: str, site_values: CallSiteValues
    ) -> Dict[str, LatticeValue]:
        """Entry environment one executable call site supplies its callee."""
        env: Dict[str, LatticeValue] = {}
        arg_values = site_values.arg_values
        for index, formal in enumerate(self.symbols[callee].formals):
            value = arg_values[index] if index < len(arg_values) else BOTTOM
            value = self.config.admit(value)
            env[formal] = BOTTOM if value.is_top else value
        for name in sorted(self.modref.ref_globals(callee)):
            value = self.config.admit(
                site_values.global_values.get(name, BOTTOM)
            )
            env[name] = BOTTOM if value.is_top else value
        return env

    def _fi_fallback_env(self, proc: str) -> Dict[str, LatticeValue]:
        """The flow-insensitive entry environment (widened-context seed)."""
        env: Dict[str, LatticeValue] = {}
        for formal in self.symbols[proc].formals:
            value = self.config.admit(self.fi.formal_value(proc, formal))
            env[formal] = BOTTOM if value.is_top else value
        for name in sorted(self.modref.ref_globals(proc)):
            if name in self.fi.global_constants:
                constant = self.fi.global_constants[name]
                env[name] = (
                    Const(constant)
                    if self.config.admit_value(constant)
                    else BOTTOM
                )
            else:
                env[name] = BOTTOM
        return env

    def _bottom_env(self, proc: str) -> Dict[str, LatticeValue]:
        """The claim-nothing environment for FS-dead procedures."""
        env = {formal: BOTTOM for formal in self.symbols[proc].formals}
        for name in sorted(self.modref.ref_globals(proc)):
            env[name] = BOTTOM
        return env

    # -- analysis ----------------------------------------------------------

    def run(self) -> None:
        root = self._new_context(self.pcg.entry, self._root_env())
        self.tables.setdefault(self.pcg.entry, {})[root.env_fp] = root
        while self.pending:
            batch = self._drain()
            self._analyze(batch)
            for ctx in batch:
                self._propagate(ctx)
            self.stats.rounds += 1

        self.stats.table_sizes = {
            proc: len(self.tables.get(proc, {}))
            + (1 if proc in self.widened else 0)
            for proc in self.pcg.rpo
            if self.tables.get(proc) or proc in self.widened
        }
        self.stats.degraded_procs = sorted(set(self.stats.degraded_procs))

        dead = self._analyze_dead()
        self._merge(dead)

    def _drain(self) -> List[Context]:
        batch = self.pending
        self.pending = []
        for ctx in batch:
            ctx.queued = False
        batch.sort(
            key=lambda ctx: (
                self.pcg.rpo_position(ctx.proc_name),
                env_fingerprint(ctx.env),
            )
        )
        return batch

    def _analyze(self, batch: List[Context]) -> None:
        # Lazy import: flow_sensitive imports this module for mode dispatch.
        from repro.core.flow_sensitive import fs_effects_fingerprint

        scheduler = self.scheduler
        for ctx in batch:
            proc = self.proc_map[ctx.proc_name]
            proc_symbols = self.symbols[ctx.proc_name]
            context_fp = env_fingerprint(ctx.env)
            fingerprints: tuple = ()
            if scheduler.cache is not None:
                fingerprints = (
                    procedure_fingerprint(proc),
                    context_fp,
                    fs_effects_fingerprint(
                        ctx.proc_name, proc_symbols, self.effects, self.aliases
                    ),
                    self._config_fp,
                )
            ctx.intra = scheduler.run(
                self.engine,
                AnalysisTask(
                    proc=proc,
                    symbols=proc_symbols,
                    entry_env=dict(ctx.env),
                    effects=self.effects,
                    fingerprints=fingerprints,
                    context=context_fp,
                ),
            )
            ctx.runs += 1

    def _propagate(self, ctx: Context) -> None:
        """Request callee contexts for every executable call site of ``ctx``."""
        proc_symbols = self.symbols[ctx.proc_name]
        intra = ctx.intra
        for site in proc_symbols.call_sites:
            site_values = intra.call_sites.get((ctx.proc_name, site.index))
            if site_values is None or not site_values.executable:
                continue
            callee = site.callee
            if callee not in self.proc_map or callee not in self.symbols:
                continue  # missing procedure (allow_missing)
            self._request(callee, self._callee_env(callee, site_values), site)

    def _analyze_dead(self) -> Dict[str, Context]:
        """Analyze FS-dead procedures once under the claim-nothing env.

        Mirrors the one-pass traversal, which analyzes every PCG node
        exactly once: dead procedures still get an intra table (the report
        renders their call sites) but never join ``fs_reachable`` and never
        propagate contexts.
        """
        dead = [
            proc
            for proc in self.pcg.rpo
            if not self.tables.get(proc) and proc not in self.widened
        ]
        contexts: Dict[str, Context] = {}
        if not dead:
            return contexts
        batch: List[Context] = []
        for proc in dead:
            ctx = Context(
                proc_name=proc,
                env=self._bottom_env(proc),
                env_fp="",
                serial=-1,
            )
            ctx.env_fp = env_fingerprint(ctx.env)
            contexts[proc] = ctx
            batch.append(ctx)
        self._analyze(batch)
        return contexts

    # -- merging into the FSResult surface ---------------------------------

    def _merge(self, dead: Dict[str, Context]) -> None:
        result = self.result
        entry = self.pcg.entry
        for proc in self.pcg.rpo:
            contexts = [
                ctx
                for ctx in self.tables.get(proc, {}).values()
                if ctx.intra is not None
            ]
            widened = self.widened.get(proc)
            if widened is not None and widened.intra is not None:
                contexts.append(widened)
            contexts.sort(key=lambda ctx: ctx.serial)

            if not contexts:
                ctx = dead[proc]
                result.intra[proc] = ctx.intra
                result.single_context_envs[proc] = ctx.env
                self._record_entry(proc, [ctx], entry, result)
                continue

            result.fs_reachable.add(proc)
            result.intra[proc] = self._merge_intra(contexts)
            if len(contexts) == 1:
                result.single_context_envs[proc] = contexts[0].env
            self._record_entry(proc, contexts, entry, result)

        # Fallback edges: only the requests the blowup guard degraded keep
        # the FI-fallback character (and their ICP006 notes); resolved
        # recursive edges carry genuine per-context entry facts.
        result.fallback_edges = [
            edge
            for proc in self.pcg.rpo
            for edge in self.pcg.edges_into(proc)
            if (edge.caller, edge.site.index) in self.fallback_sites
        ]
        result.contexts = self.stats

    def _record_entry(
        self, proc: str, contexts: List[Context], entry: str, result
    ) -> None:
        """Meet-merged entry tables, in the serial traversal's key order."""
        if proc == entry:
            # The root's imaginary call carries block-data globals only; a
            # recursive call back into the entry procedure meets in.
            for name in self.program.initial_globals():
                value = meet_all(
                    ctx.env.get(name, BOTTOM) for ctx in contexts
                )
                result.entry_globals[(proc, name)] = (
                    BOTTOM if value.is_top else value
                )
            return
        for formal in self.symbols[proc].formals:
            value = meet_all(ctx.env.get(formal, BOTTOM) for ctx in contexts)
            result.entry_formals[(proc, formal)] = (
                BOTTOM if value.is_top else value
            )
        for name in sorted(self.modref.ref_globals(proc)):
            value = meet_all(ctx.env.get(name, BOTTOM) for ctx in contexts)
            result.entry_globals[(proc, name)] = (
                BOTTOM if value.is_top else value
            )

    def _merge_intra(self, contexts: List[Context]) -> IntraResult:
        if len(contexts) == 1:
            return contexts[0].intra
        base = contexts[0].intra
        call_sites: Dict[SiteKey, CallSiteValues] = {}
        for key, first in base.call_sites.items():
            per_context = [ctx.intra.call_sites.get(key) for ctx in contexts]
            executable = [
                sv for sv in per_context if sv is not None and sv.executable
            ]
            if not executable:
                call_sites[key] = CallSiteValues(
                    site=first.site,
                    executable=False,
                    arg_values=list(first.arg_values),
                    global_values=dict(first.global_values),
                )
                continue
            arg_values = [
                meet_all(values)
                for values in zip(*(sv.arg_values for sv in executable))
            ]
            global_values: Dict[str, LatticeValue] = {}
            names = list(executable[0].global_values)
            extra = sorted(
                set().union(*(sv.global_values for sv in executable))
                - set(names)
            )
            for name in names + extra:
                global_values[name] = meet_all(
                    sv.global_values.get(name, BOTTOM) for sv in executable
                )
            call_sites[key] = CallSiteValues(
                site=first.site,
                executable=True,
                arg_values=arg_values,
                global_values=global_values,
            )
        return IntraResult(
            proc_name=base.proc_name,
            engine=base.engine,
            call_sites=call_sites,
            return_value=meet_all(
                ctx.intra.return_value for ctx in contexts
            ),
            detail=self._merge_detail(contexts),
            exit_values=None,
        )

    def _merge_detail(self, contexts: List[Context]):
        details = [ctx.intra.detail for ctx in contexts]
        if any(
            detail is None or not hasattr(detail, "reached_blocks")
            for detail in details
        ):
            return None
        reached = set()
        edges = set()
        for detail in details:
            reached |= set(detail.reached_blocks)
            edges |= set(detail.executable_edges)
        return _MergedDetail(details[0].build, reached, edges)


def value_contexts_icp(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    aliases: Optional[AliasInfo],
    fi: FIResult,
    config: ICPConfig,
    engine: IntraEngine,
    effects: CallEffects,
    result,
    scheduler: Scheduler,
) -> None:
    """Fill ``result`` (an FSResult) with the value-context solution."""
    tabulation = _Tabulation(
        program, symbols, pcg, modref, aliases, fi, config, engine,
        effects, result, scheduler,
    )
    before = scheduler.stats.analysis_seconds
    tabulation.run()
    result.intra_seconds += scheduler.stats.analysis_seconds - before
