"""Per-procedure symbol classification.

Every analysis needs to know, for a given procedure, which names are formals,
which are globals, and which are locals, plus the *immediately* assigned and
referenced variable sets (the IMOD/IREF of the MOD/REF literature, restricted
to variables visible here).  This module computes those once per procedure:
:func:`collect_symbols` reuses a previous collection's entry for every
procedure that is still the very same AST object under the same globals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Set

from repro.core.collector import collector_paused
from repro.lang import ast


@dataclass(frozen=True)
class CallSite:
    """A syntactic call site inside a procedure.

    ``index`` numbers call sites within their procedure in pre-order; the pair
    ``(caller, index)`` identifies a call site program-wide.
    """

    caller: str
    index: int
    callee: str
    stmt: ast.Stmt = field(compare=False, repr=False)

    @property
    def args(self) -> List[ast.Expr]:
        """The argument expressions of this call."""
        return self.stmt.args  # type: ignore[union-attr]

    @property
    def is_value_call(self) -> bool:
        """True for ``x = f(...)``, false for ``call f(...);``."""
        return isinstance(self.stmt, ast.CallAssign)

    def __str__(self) -> str:
        return f"{self.caller}#{self.index}->{self.callee}"


@dataclass
class ProcedureSymbols:
    """Symbol information for one procedure.

    Nothing changes a collected entry (or the procedure it was collected
    from) in place, so the derived sets are computed once, on first use.
    """

    name: str
    formals: List[str]
    globals_in_scope: FrozenSet[str]
    locals: FrozenSet[str]
    assigned: FrozenSet[str]           # variables with a direct assignment
    referenced: FrozenSet[str]         # variables read by some expression
    call_sites: List[CallSite]
    has_value_return: bool
    #: Names used with subscript syntax (arrays) / in scalar contexts.
    array_names: FrozenSet[str] = frozenset()
    scalar_names: FrozenSet[str] = frozenset()
    #: The procedure these symbols were collected from.
    procedure: Optional[ast.Procedure] = field(
        default=None, compare=False, repr=False
    )

    @cached_property
    def formal_set(self) -> FrozenSet[str]:
        return frozenset(self.formals)

    def kind_of(self, name: str) -> str:
        """Classify ``name`` as 'formal', 'global', or 'local'."""
        if name in self.formal_set:
            return "formal"
        if name in self.globals_in_scope:
            return "global"
        return "local"

    @cached_property
    def imod_visible(self) -> FrozenSet[str]:
        """Directly assigned variables visible to callers (globals + formals)."""
        return frozenset(
            name for name in self.assigned if self.kind_of(name) != "local"
        )

    @cached_property
    def iref_visible(self) -> FrozenSet[str]:
        """Directly referenced variables visible to callers (globals + formals)."""
        return frozenset(
            name for name in self.referenced if self.kind_of(name) != "local"
        )


@collector_paused
def collect_symbols(
    program: ast.Program,
    previous: Optional[Mapping[str, ProcedureSymbols]] = None,
) -> Dict[str, ProcedureSymbols]:
    """Compute :class:`ProcedureSymbols` for every procedure in ``program``.

    An entry of ``previous`` (an earlier collection) is reused when it was
    collected from the identical ``ast.Procedure`` object under equal
    globals; every other procedure is walked afresh.
    """
    globals_in_scope = frozenset(program.global_names)
    previous = previous or {}
    result: Dict[str, ProcedureSymbols] = {}
    for proc in program.procedures:
        symbols = previous.get(proc.name)
        if (
            symbols is None
            or symbols.procedure is not proc
            or symbols.globals_in_scope != globals_in_scope
        ):
            symbols = _collect_one(proc, globals_in_scope)
        result[proc.name] = symbols
    return result


def _collect_one(
    proc: ast.Procedure, globals_in_scope: FrozenSet[str]
) -> ProcedureSymbols:
    assigned: Set[str] = set()
    referenced: Set[str] = set()
    array_names: Set[str] = set()
    scalar_names: Set[str] = set()
    call_sites: List[CallSite] = []
    has_value_return = False
    for stmt in ast.walk_statements(proc.body):
        if isinstance(stmt, ast.Assign):
            assigned.add(stmt.target)
            scalar_names.add(stmt.target)
        elif isinstance(stmt, ast.AssignIndex):
            assigned.add(stmt.target)
            array_names.add(stmt.target)
        elif isinstance(stmt, ast.CallAssign):
            assigned.add(stmt.target)
            scalar_names.add(stmt.target)
            call_sites.append(CallSite(proc.name, len(call_sites), stmt.callee, stmt))
        elif isinstance(stmt, ast.CallStmt):
            call_sites.append(CallSite(proc.name, len(call_sites), stmt.callee, stmt))
        elif isinstance(stmt, ast.Return) and stmt.expr is not None:
            has_value_return = True
        is_call = isinstance(stmt, (ast.CallStmt, ast.CallAssign))
        for expr in ast.walk_expressions(stmt):
            referenced.update(ast.expr_variables(expr))
            # Bare-variable call arguments are usage-ambiguous (they may
            # pass a whole array by reference); everything else classifies.
            if not (is_call and isinstance(expr, ast.Var)):
                _classify_usage(expr, array_names, scalar_names)
    formal_set = set(proc.formals)
    locals_ = frozenset(
        name
        for name in assigned | referenced
        if name not in formal_set and name not in globals_in_scope
    )
    return ProcedureSymbols(
        name=proc.name,
        formals=list(proc.formals),
        globals_in_scope=globals_in_scope,
        locals=locals_,
        assigned=frozenset(assigned),
        referenced=frozenset(referenced),
        call_sites=call_sites,
        has_value_return=has_value_return,
        array_names=frozenset(array_names),
        scalar_names=frozenset(scalar_names),
        procedure=proc,
    )


def _classify_usage(
    expr: ast.Expr, array_names: Set[str], scalar_names: Set[str]
) -> None:
    """Mark each name's usage style (subscripted vs scalar) within ``expr``."""
    if isinstance(expr, ast.Var):
        scalar_names.add(expr.name)
    elif isinstance(expr, ast.Index):
        array_names.add(expr.name)
        _classify_usage(expr.index, array_names, scalar_names)
    elif isinstance(expr, ast.Unary):
        _classify_usage(expr.operand, array_names, scalar_names)
    elif isinstance(expr, ast.Binary):
        _classify_usage(expr.left, array_names, scalar_names)
        _classify_usage(expr.right, array_names, scalar_names)
