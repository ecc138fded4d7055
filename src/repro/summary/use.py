"""Flow-sensitive interprocedural USE computation (paper Section 3.2).

``USE(p)`` is the set of visible variables (globals and formals) that ``p``
may read *before* writing — its upward-exposed uses.  The paper computes this
with the same single-traversal scheme as the flow-sensitive ICP, mirrored:

    "We use this same method to compute procedure USE information in one
     reverse topological traversal of the PCG, where REF information is
     used for back edges."

Processing order is leaves-first (reversed RPO); a call site whose callee has
not been processed yet (a back/fallback edge in the reverse direction) uses
the callee's REF summary — conservative, since USE ⊆ REF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from repro.analysis.liveness import upward_exposed
from repro.callgraph.pcg import PCG
from repro.core.collector import collector_paused
from repro.ir.builder import build_cfg
from repro.lang import ast
from repro.lang.symbols import CallSite, ProcedureSymbols
from repro.summary.modref import ModRefInfo


@dataclass
class UseInfo:
    """Flow-sensitive USE summaries per procedure."""

    use: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: Edges (call sites) that fell back to REF during the reverse traversal.
    fallback_sites: Set[CallSite] = field(default_factory=set)
    #: Procedures whose summary was carried over by an incremental traversal.
    reused: int = field(default=0, compare=False)

    def use_of(self, proc: str) -> FrozenSet[str]:
        return self.use.get(proc, frozenset())

    def use_globals(self, proc: str, globals_set: FrozenSet[str]) -> FrozenSet[str]:
        return frozenset(g for g in self.use_of(proc) if g in globals_set)


@dataclass(frozen=True)
class UseReuse:
    """Previous USE solution plus the seed procedures that must recompute.

    ``seeds`` over-approximates the procedures whose own body or REF-fallback
    inputs changed; change-driven propagation during the reversed-RPO sweep
    handles the rest (a caller recomputes exactly when some later-RPO
    callee's freshly computed USE differs from its previous value).
    """

    previous: UseInfo
    seeds: FrozenSet[str]


@collector_paused
def compute_use(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    reuse: Optional[UseReuse] = None,
) -> UseInfo:
    """One reverse topological traversal computing USE with REF fallback.

    With ``reuse`` the traversal recomputes only the seeds and the callers
    of procedures whose USE changed; every other procedure carries its
    previous summary (and its share of the fallback-site set) over.  A
    procedure is recomputed when it is a seed, was never summarized, or
    some later-RPO callee's USE just changed.  The traversal fills
    ``info.use`` in reversed RPO, so reused and recomputed runs render
    identically.
    """
    globals_set = frozenset(program.global_names)
    proc_map = program.procedure_map()
    previous = reuse.previous if reuse is not None else UseInfo()
    seeds = reuse.seeds if reuse is not None else frozenset()
    info = UseInfo()
    for proc_name in reversed(pcg.rpo):
        position = pcg.rpo_position(proc_name)
        dirty = proc_name in seeds or proc_name not in previous.use
        if not dirty:
            for site in symbols[proc_name].call_sites:
                callee = site.callee
                if callee not in symbols or pcg.rpo_position(callee) <= position:
                    continue  # REF fallback: its changes arrive via seeds
                if info.use.get(callee) != previous.use.get(callee):
                    dirty = True
                    break
        if not dirty:
            info.use[proc_name] = previous.use[proc_name]
            info.fallback_sites.update(
                site
                for site in previous.fallback_sites
                if site.caller == proc_name
            )
            info.reused += 1
            continue

        proc_symbols = symbols[proc_name]

        def call_uses(site: CallSite) -> Set[str]:
            return _bind_call_uses(site, symbols, modref, info, globals_set)

        build = build_cfg(proc_map[proc_name], proc_symbols)
        exposed = upward_exposed(build.cfg, call_uses)
        visible = exposed & (globals_set | proc_symbols.formal_set)
        info.use[proc_name] = frozenset(visible)
    return info


def bound_call_uses(
    site: CallSite,
    symbols: Dict[str, ProcedureSymbols],
    modref: ModRefInfo,
    info: UseInfo,
    globals_set: FrozenSet[str],
) -> Set[str]:
    """Caller variables one call may read, binding the *final* USE solution.

    Read-only variant of the traversal-internal :func:`_bind_call_uses`: a
    callee without a USE summary falls back to its REF set without recording
    a fallback site on ``info``.  Client analyses (the diagnostics engine's
    liveness-based checks) use this to model call read effects.
    """
    if site.callee in info.use:
        return _bind_call_uses(site, symbols, modref, info, globals_set)
    shadow = UseInfo(use=info.use)
    return _bind_call_uses(site, symbols, modref, shadow, globals_set)


def _bind_call_uses(
    site: CallSite,
    symbols: Dict[str, ProcedureSymbols],
    modref: ModRefInfo,
    info: UseInfo,
    globals_set: FrozenSet[str],
) -> Set[str]:
    """Caller variables read by one call, given callee USE (or REF fallback)."""
    if site.callee not in symbols:
        used = set(globals_set)
        for arg in site.args:
            used.update(ast.expr_variables(arg))
        return used
    if site.callee in info.use:
        callee_uses: FrozenSet[str] = info.use[site.callee]
    else:
        callee_uses = modref.ref_of(site.callee)
        info.fallback_sites.add(site)
    formals = symbols[site.callee].formals
    used = {g for g in callee_uses if g in globals_set}
    for i, arg in enumerate(site.args):
        if isinstance(arg, ast.Var):
            if formals[i] in callee_uses:
                used.add(arg.name)
        else:
            used.update(ast.expr_variables(arg))
    return used
