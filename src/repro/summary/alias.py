"""Reference-parameter alias analysis (the Figure 2 "Interprocedural Aliasing"
phase).

With Fortran by-reference binding, two names in a procedure may denote the
same storage:

- two formals, when some call path passes the same variable (or already
  aliased variables) to both (``call p(x, x)``);
- a formal and a global, when some call path passes the global (or a formal
  aliased to it) as the argument (``call p(g)``).

Alias pairs are introduced at call sites and propagated forward over the PCG
to a fixpoint (Cooper/Banning-style pair propagation).  The MOD/REF phase
closes its sets under these pairs, and the SSA builder treats an assignment
to an aliased name as a may-definition of its partners — that is all the
constant propagators need to stay sound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.callgraph.pcg import PCG
from repro.core.collector import collector_paused
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols

#: An unordered alias pair, stored with names sorted.
AliasPair = Tuple[str, str]


def make_pair(a: str, b: str) -> AliasPair:
    return (a, b) if a <= b else (b, a)


@dataclass
class AliasInfo:
    """May-alias pairs per procedure, over formals and globals."""

    pairs: Dict[str, Set[AliasPair]] = field(default_factory=dict)

    def pairs_of(self, proc: str) -> Set[AliasPair]:
        return self.pairs.get(proc, set())

    def partners(self, proc: str, name: str) -> Set[str]:
        """Names that may share storage with ``name`` inside ``proc``."""
        result: Set[str] = set()
        for a, b in self.pairs.get(proc, ()):
            if a == name:
                result.add(b)
            elif b == name:
                result.add(a)
        return result

    def may_alias(self, proc: str, a: str, b: str) -> bool:
        return make_pair(a, b) in self.pairs.get(proc, set())

    def any_aliases(self, proc: str) -> bool:
        return bool(self.pairs.get(proc))


def changed_alias_procs(old: AliasInfo, new: AliasInfo) -> Set[str]:
    """Procedures whose may-alias pair set differs between two solutions.

    Input to incremental dirty-region computation: the SSA builder and the
    MOD/REF closure both consume per-procedure pairs, so a pair-set change
    invalidates that procedure's intraprocedural analysis.
    """
    return {
        proc
        for proc in set(old.pairs) | set(new.pairs)
        if old.pairs_of(proc) != new.pairs_of(proc)
    }


@collector_paused
def compute_aliases(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
) -> AliasInfo:
    """Propagate alias pairs forward over the PCG to a fixpoint."""
    globals_set = program.global_set()
    info = AliasInfo(pairs={proc: set() for proc in pcg.nodes})
    worklist = deque(pcg.rpo)
    queued = set(worklist)
    proc_map = program.procedure_map()

    while worklist:
        caller = worklist.popleft()
        queued.discard(caller)
        caller_pairs = info.pairs[caller]
        for edge in pcg.edges_out_of(caller):
            callee = edge.callee
            callee_proc = proc_map[callee]
            introduced = _pairs_at_call(
                edge.site.args, callee_proc.formals, caller_pairs, globals_set
            )
            target = info.pairs[callee]
            new_pairs = introduced - target
            if new_pairs:
                target.update(new_pairs)
                if callee not in queued:
                    worklist.append(callee)
                    queued.add(callee)
    return info


def _pairs_at_call(
    args: List[ast.Expr],
    formals: List[str],
    caller_pairs: Set[AliasPair],
    globals_set: FrozenSet[str],
) -> Set[AliasPair]:
    """Alias pairs induced in the callee by one call site."""
    introduced: Set[AliasPair] = set()
    bare: List[Tuple[int, str]] = [
        (i, arg.name)
        for i, arg in enumerate(args)
        if isinstance(arg, ast.Var)
    ]
    # Formal/formal pairs: same variable (or aliased variables) twice.
    for pos_a in range(len(bare)):
        i, var_a = bare[pos_a]
        for pos_b in range(pos_a + 1, len(bare)):
            j, var_b = bare[pos_b]
            if var_a == var_b or make_pair(var_a, var_b) in caller_pairs:
                introduced.add(make_pair(formals[i], formals[j]))
    # Formal/global pairs: a global (or something aliased to one) as argument.
    for i, var in bare:
        if var in globals_set:
            introduced.add(make_pair(formals[i], var))
        for a, b in caller_pairs:
            partner = b if a == var else (a if b == var else None)
            if partner is not None and partner in globals_set:
                introduced.add(make_pair(formals[i], partner))
    return introduced
