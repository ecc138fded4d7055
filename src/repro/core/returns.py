"""The Section 3.2 return-constant extension.

    "Returned constants can be accommodated by extending our flow-sensitive
     method to include one additional topological traversal of the PCG which
     is performed in the reverse direction.  During this traversal, a second
     flow-sensitive intraprocedural analysis of each procedure is performed
     to identify the procedure's set of returned constant [values] that are
     propagated to the invoking call site.  A flow-insensitive solution can
     be precomputed and used for back edges in this traversal."

We implement the return-*value* portion (``x = f(...)``); the paper's own
prototype never completed this feature, and its tables exclude it.  The
flow-insensitive pre-solution iterates a per-procedure analysis seeded with
the FI entry environment to a fixpoint (sound for recursion); the
flow-sensitive pass is a single reverse-topological traversal that falls back
to the FI return solution for callees not yet processed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis import make_engine
from repro.analysis.base import IntraEngine, IntraResult
from repro.callgraph.pcg import PCG
from repro.core.collector import collector_paused
from repro.core.config import ICPConfig
from repro.core.effects import SummaryEffects
from repro.core.flow_insensitive import FIResult
from repro.core.flow_sensitive import FSResult, fs_effects_fingerprint
from repro.ir.lattice import BOTTOM, TOP, LatticeValue, meet
from repro.lang import ast
from repro.lang.symbols import CallSite, ProcedureSymbols
from repro.obs import Observability
from repro.sched.cache import (
    config_fingerprint,
    env_fingerprint,
    procedure_fingerprint,
    value_token,
)
from repro.sched.scheduler import AnalysisTask, Scheduler, serial_engine_run
from repro.summary.alias import AliasInfo
from repro.summary.modref import ModRefInfo


@dataclass
class ReturnsResult:
    """Constant return values (and optional exit values) per procedure."""

    fi_returns: Dict[str, LatticeValue] = field(default_factory=dict)
    fs_returns: Dict[str, LatticeValue] = field(default_factory=dict)
    #: proc -> {visible var -> lattice value at procedure exit}; only
    #: procedures off PCG cycles are entered (the full §3.2 extension:
    #: "returned constant parameters and globals").
    exit_values: Dict[str, Dict[str, LatticeValue]] = field(default_factory=dict)

    def fs_return(self, proc: str) -> LatticeValue:
        return self.fs_returns.get(proc, BOTTOM)

    def constant_returns(self) -> Dict[str, LatticeValue]:
        return {p: v for p, v in self.fs_returns.items() if v.is_const}

    def exit_value(self, proc: str, var: str) -> LatticeValue:
        return self.exit_values.get(proc, {}).get(var, BOTTOM)

    def constant_exit_values(self) -> Dict[str, Dict[str, LatticeValue]]:
        return {
            proc: {var: v for var, v in table.items() if v.is_const}
            for proc, table in self.exit_values.items()
            if any(v.is_const for v in table.values())
        }


class _ReturnProviderEffects(SummaryEffects):
    """SummaryEffects whose call return values come from a mutable table."""

    def __init__(
        self,
        modref: ModRefInfo,
        aliases: Optional[AliasInfo],
        table: Dict[str, LatticeValue],
        config: ICPConfig,
    ):
        super().__init__(modref, aliases)
        self._table = table
        self._config = config

    def return_value(self, site: CallSite) -> LatticeValue:
        return self._config.admit(self._table.get(site.callee, BOTTOM))


class ExitValueEffects(_ReturnProviderEffects):
    """Effects that additionally know callee *exit values* for modified vars.

    ``modified_value(site, var)`` binds the callee's exit table back through
    the call: a global's exit value applies to the global itself; a formal's
    exit value applies to the caller variable passed (bare) in that position.
    A caller variable with may-alias partners is never given a value (its
    SSA definition may have come from alias closure rather than a binding).
    """

    def __init__(
        self,
        modref: ModRefInfo,
        aliases: Optional[AliasInfo],
        return_table: Dict[str, LatticeValue],
        exit_tables: Dict[str, Dict[str, LatticeValue]],
        symbols: Dict[str, ProcedureSymbols],
        globals_set,
        config: ICPConfig,
    ):
        super().__init__(modref, aliases, return_table, config)
        self._exit_tables = exit_tables
        self._symbols = symbols
        self._globals_set = frozenset(globals_set)

    def modified_value(self, site: CallSite, var: str) -> LatticeValue:
        table = self._exit_tables.get(site.callee)
        if table is None or site.callee not in self._symbols:
            return BOTTOM
        if self._aliases is not None and self._aliases.partners(site.caller, var):
            return BOTTOM
        candidates = []
        if var in self._globals_set and var in table:
            candidates.append(table[var])
        formals = self._symbols[site.callee].formals
        for index, arg in enumerate(site.args):
            if isinstance(arg, ast.Var) and arg.name == var:
                candidates.append(table.get(formals[index], BOTTOM))
        if not candidates:
            return BOTTOM
        value = candidates[0]
        for candidate in candidates[1:]:
            value = meet(value, candidate)
        return self._config.admit(value)


@collector_paused
def compute_returns(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    fs: FSResult,
    fi: Optional[FIResult] = None,
    aliases: Optional[AliasInfo] = None,
    config: Optional[ICPConfig] = None,
    engine: Optional[IntraEngine] = None,
    with_exit_values: bool = False,
    scheduler: Optional[Scheduler] = None,
    runs: Optional[Dict[str, IntraResult]] = None,
) -> ReturnsResult:
    """Run the reverse traversal computing constant return values.

    With ``with_exit_values`` the same traversal also computes each
    procedure's constant *exit values* — the value of every possibly
    modified formal and global at procedure exit — for procedures off PCG
    cycles (the paper's full "returned constant parameters and globals").

    Every engine run of the traversal goes through ``scheduler``, which
    serves it from its summary cache when it has one.  (The
    flow-insensitive return fixpoint runs the engine directly — its table
    mutates between rounds and each round is cheap.)

    ``runs``, when given, receives each procedure's engine run of the
    reverse traversal; the transformation reuses some of them.  The
    result itself keeps no run.
    """
    config = config or ICPConfig()
    engine = engine or make_engine(config.engine)
    scheduler = scheduler or Scheduler()
    proc_map = program.procedure_map()
    result = ReturnsResult()

    needs_fi = bool(pcg.fallback_edges)
    if needs_fi and fi is None:
        raise ValueError("a flow-insensitive solution is required for cyclic PCGs")
    if needs_fi:
        result.fi_returns = _fi_return_fixpoint(
            program, symbols, pcg, modref, fi, aliases, config, engine,
            scheduler.obs,
        )
    cyclic = _cyclic_procs(pcg) if with_exit_values else set()

    # Reverse topological traversal: callees first.  The effects see the
    # tables as they fill, so a procedure's exit values benefit from its
    # (already processed) callees' exit values.
    pass_label = "returns-exit" if with_exit_values else "returns"
    config_fp = config_fingerprint(
        config.engine, config.propagate_floats, program.global_names,
        pass_label,
    )
    table: Dict[str, LatticeValue] = {}
    if with_exit_values:
        effects: _ReturnProviderEffects = ExitValueEffects(
            modref, aliases, table, result.exit_values, symbols,
            program.global_names, config,
        )
    else:
        effects = _ReturnProviderEffects(modref, aliases, table, config)
    for proc_name in reversed(pcg.rpo):
        # Callees later in RPO are already in `table`; earlier ones (back
        # edges of the reverse traversal) fall back to the FI solution.
        for edge in pcg.edges_out_of(proc_name):
            if edge.callee not in table:
                table[edge.callee] = result.fi_returns.get(edge.callee, BOTTOM)
        entry_env = fs.entry_env(proc_name, symbols[proc_name])
        record_exit_vars = None
        if with_exit_values and proc_name not in cyclic:
            visible = set(symbols[proc_name].formals) | set(program.global_names)
            record_exit_vars = {
                var for var in modref.mod_of(proc_name) if var in visible
            }
        fingerprints: tuple = ()
        if scheduler.cache is not None:
            # The tables hold exactly the callee summaries this
            # procedure's run will read, so they key its cache entry.
            site_extra = {
                site.index: _site_summary(
                    site, table, result.exit_values, symbols, with_exit_values
                )
                for site in symbols[proc_name].call_sites
            }
            fingerprints = (
                procedure_fingerprint(proc_map[proc_name]),
                env_fingerprint(entry_env),
                fs_effects_fingerprint(
                    proc_name, symbols[proc_name], effects, aliases,
                    site_extra=site_extra,
                ),
                config_fp,
                f"exit_vars={sorted(record_exit_vars) if record_exit_vars else None}",
            )
        intra = scheduler.run(
            engine,
            AnalysisTask(
                proc=proc_map[proc_name],
                symbols=symbols[proc_name],
                entry_env=entry_env,
                effects=effects,
                pass_label=pass_label,
                record_exit_vars=record_exit_vars,
                fingerprints=fingerprints,
            ),
        )
        if runs is not None:
            runs[proc_name] = intra
        value = config.admit(intra.return_value)
        table[proc_name] = value
        result.fs_returns[proc_name] = value
        if record_exit_vars is not None and intra.exit_values is not None:
            result.exit_values[proc_name] = {
                var: config.admit(v) for var, v in intra.exit_values.items()
            }
    return result


def _site_summary(
    site: CallSite,
    returns: Dict[str, LatticeValue],
    exits: Dict[str, Dict[str, LatticeValue]],
    symbols: Dict[str, ProcedureSymbols],
    with_exit_values: bool,
) -> str:
    """Fingerprint token for the callee summaries one call site consults."""
    parts = [f"ret={value_token(returns.get(site.callee, BOTTOM))}"]
    if with_exit_values:
        table = exits.get(site.callee)
        if table:
            rendered = ",".join(
                f"{var}={value_token(val)}" for var, val in sorted(table.items())
            )
            parts.append(f"exit={rendered}")
        if site.callee in symbols:
            parts.append("formals=" + ",".join(symbols[site.callee].formals))
    return ";".join(parts)


def _cyclic_procs(pcg: PCG):
    cyclic = set()
    for component in pcg.sccs:
        if len(component) > 1:
            cyclic.update(component)
    for edge in pcg.edges:
        if edge.caller == edge.callee:
            cyclic.add(edge.caller)
    return cyclic


def _fi_return_fixpoint(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    fi: FIResult,
    aliases: Optional[AliasInfo],
    config: ICPConfig,
    engine: IntraEngine,
    obs: Observability,
) -> Dict[str, LatticeValue]:
    """Optimistic fixpoint over return values with FI entry environments."""
    proc_map = program.procedure_map()
    table: Dict[str, LatticeValue] = {proc: TOP for proc in pcg.nodes}
    effects = _ReturnProviderEffects(modref, aliases, table, config)

    changed = True
    rounds = 0
    while changed and rounds < len(pcg.nodes) + 2:
        changed = False
        rounds += 1
        for proc_name in reversed(pcg.rpo):
            proc = proc_map[proc_name]
            entry_env = fi.entry_env(proc_name, symbols[proc_name])
            intra, _ = serial_engine_run(
                obs, engine, "returns-fi", proc, symbols[proc_name],
                entry_env, effects,
            )
            value = config.admit(intra.return_value)
            if value != table[proc_name]:
                table[proc_name] = value
                changed = True
    # Any remaining TOP (e.g. recursion with no base return) proves the
    # value is never produced; report it as non-constant.
    return {p: (BOTTOM if v.is_top else v) for p, v in table.items()}
