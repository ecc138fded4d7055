"""Interprocedural MOD and REF summaries (the Figure 2 phase 4).

Flow-insensitive side-effect computation in the Banning / Cooper–Kennedy
tradition, solved by fixpoint iteration over the PCG (which handles
recursion):

- ``MOD(p)`` — globals and formals of ``p`` that executing ``p`` may modify,
  directly or through any call, closed under may-alias pairs.
- ``REF(p)`` — globals and formals of ``p`` that executing ``p`` may
  reference.  Argument variables at ``p``'s call sites count as referenced in
  ``p`` (they are textually visible there), so only *globals* need to flow
  transitively up the call chain.

Per-call-site *effects* bind a callee summary back through the argument list:
``callsite_mod`` returns every caller variable (including locals) the call may
modify; ``callsite_ref`` every variable it may read.  Missing procedures
(``allow_missing``) are maximally conservative: they may modify and read every
global and every bare-variable argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from repro.callgraph.pcg import PCG
from repro.core.collector import collector_paused
from repro.lang import ast
from repro.lang.symbols import CallSite, ProcedureSymbols
from repro.summary.alias import AliasInfo


@dataclass
class ModRefInfo:
    """MOD/REF summaries plus per-call-site effect binding."""

    program: ast.Program
    symbols: Dict[str, ProcedureSymbols]
    aliases: AliasInfo
    mod: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    ref: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    _globals: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------
    # Summary queries.
    # ------------------------------------------------------------------

    def mod_of(self, proc: str) -> FrozenSet[str]:
        """Visible variables ``proc`` may modify (all globals if unknown)."""
        if proc in self.mod:
            return self.mod[proc]
        return self._globals

    def ref_of(self, proc: str) -> FrozenSet[str]:
        if proc in self.ref:
            return self.ref[proc]
        return self._globals

    def mod_globals(self, proc: str) -> FrozenSet[str]:
        return frozenset(g for g in self.mod_of(proc) if g in self._globals)

    def ref_globals(self, proc: str) -> FrozenSet[str]:
        """Globals ``proc`` may reference, directly or transitively."""
        return frozenset(g for g in self.ref_of(proc) if g in self._globals)

    def formal_modified(self, proc: str, formal: str) -> bool:
        """May ``proc`` modify ``formal`` (directly or via a call/alias)?"""
        return formal in self.mod_of(proc)

    # ------------------------------------------------------------------
    # Call-site effect binding.
    # ------------------------------------------------------------------

    def callsite_mod(self, site: CallSite) -> Set[str]:
        """Caller variables (any kind) the call may modify."""
        if site.callee not in self.symbols:
            modified = set(self._globals)
            modified.update(
                arg.name for arg in site.args if isinstance(arg, ast.Var)
            )
            return self._alias_close(site.caller, modified)
        callee_mod = self.mod_of(site.callee)
        formals = self.symbols[site.callee].formals
        modified = {g for g in callee_mod if g in self._globals}
        for i, arg in enumerate(site.args):
            if isinstance(arg, ast.Var) and formals[i] in callee_mod:
                modified.add(arg.name)
        return self._alias_close(site.caller, modified)

    def callsite_ref(self, site: CallSite) -> Set[str]:
        """Caller variables the call may read.

        Variables in compound argument expressions are always read (the
        temporary is computed at the call); bare-variable arguments are read
        only when the bound formal is in the callee's REF.
        """
        if site.callee not in self.symbols:
            referenced = set(self._globals)
            for arg in site.args:
                referenced.update(ast.expr_variables(arg))
            return referenced
        callee_ref = self.ref_of(site.callee)
        formals = self.symbols[site.callee].formals
        referenced = {g for g in callee_ref if g in self._globals}
        for i, arg in enumerate(site.args):
            if isinstance(arg, ast.Var):
                if formals[i] in callee_ref:
                    referenced.add(arg.name)
            else:
                referenced.update(ast.expr_variables(arg))
        return referenced

    def _alias_close(self, proc: str, names: Set[str]) -> Set[str]:
        if not self.aliases.any_aliases(proc):
            return names
        closed = set(names)
        for name in names:
            closed.update(self.aliases.partners(proc, name))
        return closed


def changed_modref_procs(old: ModRefInfo, new: ModRefInfo) -> Set[str]:
    """Procedures whose MOD or REF summary differs between two solutions.

    Input to incremental dirty-region computation: callers consult callee
    MOD/REF at every call site (effect binding) and enumerate their own
    ``ref_globals`` at entry, so either set changing invalidates the
    procedure itself and every caller of it.
    """
    return {
        proc
        for proc in set(old.mod) | set(new.mod) | set(old.ref) | set(new.ref)
        if old.mod.get(proc) != new.mod.get(proc)
        or old.ref.get(proc) != new.ref.get(proc)
    }


@collector_paused
def compute_modref(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    aliases: Optional[AliasInfo] = None,
) -> ModRefInfo:
    """Solve the MOD/REF fixpoint over the reachable procedures of ``pcg``."""
    if aliases is None:
        aliases = AliasInfo(pairs={proc: set() for proc in pcg.nodes})
    globals_set = frozenset(program.global_names)
    info = ModRefInfo(
        program=program, symbols=symbols, aliases=aliases, _globals=globals_set
    )

    mod: Dict[str, Set[str]] = {}
    ref: Dict[str, Set[str]] = {}
    for proc in pcg.nodes:
        mod[proc] = set(symbols[proc].imod_visible)
        ref[proc] = set(symbols[proc].iref_visible)

    # Reverse topological (callees first) converges fastest; iterate to a
    # fixpoint to handle recursion.
    order = list(reversed(pcg.rpo))
    changed = True
    while changed:
        changed = False
        for proc in order:
            new_mod = set(mod[proc])
            new_ref = set(ref[proc])
            for edge in pcg.edges_out_of(proc):
                callee = edge.callee
                callee_formals = symbols[callee].formals
                callee_mod = mod[callee] if callee in mod else globals_set
                callee_ref = ref[callee] if callee in ref else globals_set
                new_mod.update(g for g in callee_mod if g in globals_set)
                new_ref.update(g for g in callee_ref if g in globals_set)
                for i, arg in enumerate(edge.site.args):
                    if not isinstance(arg, ast.Var):
                        continue
                    kind = symbols[proc].kind_of(arg.name)
                    if kind == "local":
                        continue
                    if callee_formals[i] in callee_mod:
                        new_mod.add(arg.name)
                    if callee_formals[i] in callee_ref:
                        new_ref.add(arg.name)
            # Calls to missing procedures: worst case.
            for site in symbols[proc].call_sites:
                if site.callee in symbols:
                    continue
                new_mod.update(globals_set)
                new_ref.update(globals_set)
                for arg in site.args:
                    if isinstance(arg, ast.Var):
                        if symbols[proc].kind_of(arg.name) != "local":
                            new_mod.add(arg.name)
            # Close under alias pairs (modifying one name modifies partners).
            for pair in aliases.pairs_of(proc):
                a, b = pair
                if a in new_mod or b in new_mod:
                    new_mod.update(pair)
                if a in new_ref or b in new_ref:
                    new_ref.update(pair)
            if new_mod != mod[proc] or new_ref != ref[proc]:
                mod[proc] = new_mod
                ref[proc] = new_ref
                changed = True

    info.mod = {proc: frozenset(names) for proc, names in mod.items()}
    info.ref = {proc: frozenset(names) for proc, names in ref.items()}
    return info
