"""The iterative flow-sensitive baseline the paper's method approximates.

Section 3.2: "If a PCG has cycles (back edges), then an optimistic
flow-sensitive interprocedural algorithm with one iteration of the PCG could
give an incorrect solution [Burke & Cytron].  We address this issue by
performing a flow-insensitive analysis prior to the flow-sensitive analysis."
And: "When this ratio is zero ... the same results as a flow-sensitive
iterative solution (that does not propagate returned constants) are achieved,
without requiring iteration."

This module implements that *iterative* solution — the optimistic
interprocedural fixpoint that re-analyzes procedures until call-site records
stabilize — as a precision/cost baseline:

- on an acyclic PCG it matches the one-pass method exactly (tested);
- on cyclic PCGs it can be strictly more precise than the one-pass method's
  FI fallback, at the cost of multiple flow-sensitive analyses per procedure
  (``analyses_performed`` counts them — the efficiency the paper trades).

Correctness of the optimism: call-site records only descend (an unanalyzed
caller contributes nothing; analyzing with a lower entry environment yields
lower-or-equal records and a larger executable region), so the worklist
reaches the greatest fixpoint below the initial optimistic state.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import make_engine
from repro.analysis.base import CallEffects, IntraEngine, IntraResult
from repro.callgraph.pcg import PCG
from repro.core.config import ICPConfig
from repro.core.effects import SummaryEffects
from repro.ir.lattice import BOTTOM, Const, LatticeValue, meet_all
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols
from repro.summary.alias import AliasInfo
from repro.summary.modref import ModRefInfo

FormalKey = Tuple[str, str]


@dataclass
class IterativeResult:
    """The interprocedural optimistic fixpoint."""

    entry_formals: Dict[FormalKey, LatticeValue] = field(default_factory=dict)
    entry_globals: Dict[FormalKey, LatticeValue] = field(default_factory=dict)
    intra: Dict[str, IntraResult] = field(default_factory=dict)
    fs_reachable: Set[str] = field(default_factory=set)
    #: Total intraprocedural analyses performed (>= reachable procedures).
    analyses_performed: int = 0

    def entry_formal(self, proc: str, formal: str) -> LatticeValue:
        return self.entry_formals.get((proc, formal), BOTTOM)

    def entry_global(self, proc: str, name: str) -> LatticeValue:
        return self.entry_globals.get((proc, name), BOTTOM)

    def constant_formals(self) -> List[FormalKey]:
        return sorted(k for k, v in self.entry_formals.items() if v.is_const)


def iterative_flow_sensitive_icp(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    aliases: Optional[AliasInfo] = None,
    config: Optional[ICPConfig] = None,
    engine: Optional[IntraEngine] = None,
    effects: Optional[CallEffects] = None,
    max_analyses: Optional[int] = None,
) -> IterativeResult:
    """Iterate flow-sensitive analyses over the PCG to the fixpoint.

    :param max_analyses: safety valve (default ``8 * |procs| + 8``); the
        lattice guarantees convergence far below it.
    """
    config = config or ICPConfig()
    engine = engine or make_engine(config.engine)
    effects = effects or SummaryEffects(modref, aliases)
    proc_map = program.procedure_map()
    limit = max_analyses or (8 * len(pcg.nodes) + 8)

    result = IterativeResult()
    result.fs_reachable.add(pcg.entry)
    analyzed: Set[str] = set()
    # Priority worklist in reverse-postorder position: callers are analyzed
    # before callees whenever possible, so an acyclic PCG converges in
    # exactly one analysis per procedure (matching the one-pass method).
    worklist: List[Tuple[int, str]] = [(pcg.rpo_position(pcg.entry), pcg.entry)]
    queued: Set[str] = {pcg.entry}

    while worklist:
        _, proc_name = heapq.heappop(worklist)
        queued.discard(proc_name)
        entry_env = _entry_env(
            proc_name, program, symbols[proc_name], pcg, modref, config,
            result, analyzed,
        )
        intra = engine.analyze(
            proc_map[proc_name], symbols[proc_name], entry_env, effects
        )
        result.analyses_performed += 1
        if result.analyses_performed > limit:
            raise RuntimeError(
                "iterative ICP failed to converge within the safety limit"
            )
        previous = result.intra.get(proc_name)
        result.intra[proc_name] = intra
        analyzed.add(proc_name)
        # Liveness gating: only callees of *executable* call sites become
        # reachable; a dead caller must not seed constants into its callees.
        for callee in sorted(_changed_callees(proc_name, previous, intra, pcg)):
            if callee not in queued:
                heapq.heappush(worklist, (pcg.rpo_position(callee), callee))
                queued.add(callee)

    # Recompute the final entry environments from the stabilized records.
    for proc_name in pcg.rpo:
        _entry_env(
            proc_name, program, symbols[proc_name], pcg, modref, config,
            result, analyzed, record=True,
        )
    return result


def _changed_callees(
    proc_name: str,
    previous: Optional[IntraResult],
    current: IntraResult,
    pcg: PCG,
) -> Set[str]:
    """Callees of *executable* sites whose records changed in this analysis."""
    changed: Set[str] = set()
    for edge in pcg.edges_out_of(proc_name):
        key = (proc_name, edge.site.index)
        new_values = current.call_sites.get(key)
        if new_values is None or not new_values.executable:
            continue  # unreachable call site: contributes nothing downstream
        old_values = previous.call_sites.get(key) if previous else None
        if (
            old_values is None
            or old_values.executable != new_values.executable
            or old_values.arg_values != new_values.arg_values
            or old_values.global_values != new_values.global_values
        ):
            changed.add(edge.callee)
    return changed


def _entry_env(
    proc_name: str,
    program: ast.Program,
    proc_symbols: ProcedureSymbols,
    pcg: PCG,
    modref: ModRefInfo,
    config: ICPConfig,
    result: IterativeResult,
    analyzed: Set[str],
    record: bool = False,
) -> Dict[str, LatticeValue]:
    env: Dict[str, LatticeValue] = {}
    if proc_name == pcg.entry:
        result.fs_reachable.add(proc_name)
        for name, value in program.initial_globals().items():
            env[name] = Const(value) if config.admit_value(value) else BOTTOM
        if record:
            for name, value in env.items():
                result.entry_globals[(proc_name, name)] = value
        return env

    contributing = []
    for edge in pcg.edges_into(proc_name):
        if edge.caller not in analyzed:
            continue  # optimistic: unanalyzed caller contributes nothing
        site_values = result.intra[edge.caller].site_values(edge.site)
        if not site_values.executable:
            continue
        contributing.append(site_values)
    if contributing and record:
        result.fs_reachable.add(proc_name)

    for index, formal in enumerate(proc_symbols.formals):
        value = meet_all(
            config.admit(sv.arg_values[index]) for sv in contributing
        )
        if record:
            stored = BOTTOM if value.is_top else value
            result.entry_formals[(proc_name, formal)] = stored
        env[formal] = value
    for name in sorted(modref.ref_globals(proc_name)):
        value = meet_all(
            config.admit(sv.global_values.get(name, BOTTOM))
            for sv in contributing
        )
        if record:
            stored = BOTTOM if value.is_top else value
            result.entry_globals[(proc_name, name)] = stored
        env[name] = value
    return env
