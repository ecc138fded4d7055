"""Flow-insensitive interprocedural constant propagation (paper Figure 3).

Two halves, exactly as the pseudocode:

**Globals.**  Collect the constants assigned in ``init`` blocks (Fortran
BLOCK DATA); discard any that are modified anywhere in the program (the MOD
set of the main procedure, which is transitive); the survivors are constant
for the entire program and are propagated to every procedure that references
them.

**Formal parameters.**  An optimistic one-pass forward traversal of the PCG:
every formal starts at TOP; at each call site each argument is met into the
corresponding formal — an immediate (literal) constant, a program-constant
global, or an unmodified formal of the caller that is currently constant
(recording the dependency in ``fp_bind``); anything else meets BOTTOM.  A
worklist then re-lowers *pass-through* formals whose source was later lowered
to BOTTOM, following the recorded ``fp_bind`` pairs.

The single pass plus the lowering worklist reaches the sound fixpoint: in an
acyclic PCG the forward traversal sees final caller values; in a cyclic PCG a
formal whose caller has not been processed is simply not "currently marked as
constant", so the argument conservatively meets BOTTOM.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.callgraph.pcg import PCG
from repro.core.collector import collector_paused
from repro.core.config import ICPConfig
from repro.ir.lattice import BOTTOM, TOP, Const, LatticeValue, meet
from repro.lang import ast
from repro.lang.symbols import CallSite, ProcedureSymbols
from repro.sched.cache import value_token
from repro.summary.modref import ModRefInfo

FormalKey = Tuple[str, str]  # (procedure, formal name)


@dataclass
class FIResult:
    """The flow-insensitive solution."""

    #: Program-wide constant globals (block-data constants never modified).
    global_constants: Dict[str, object] = field(default_factory=dict)
    #: Per-formal lattice value.
    formal_values: Dict[FormalKey, LatticeValue] = field(default_factory=dict)
    #: Recorded pass-through dependencies (source formal -> dependent formals).
    fp_bind: Dict[FormalKey, Set[FormalKey]] = field(default_factory=dict)
    #: Block-data constant candidates considered (paper Table 1, global FI column).
    global_candidates: Dict[str, object] = field(default_factory=dict)
    #: Per-argument flow-insensitive status: (caller, site index, arg pos) -> value.
    arg_values: Dict[Tuple[str, int, int], LatticeValue] = field(default_factory=dict)

    def formal_value(self, proc: str, formal: str) -> LatticeValue:
        return self.formal_values.get((proc, formal), BOTTOM)

    def is_global_constant(self, name: str) -> bool:
        return name in self.global_constants

    def arg_value(self, site: CallSite, index: int) -> LatticeValue:
        """Final FI status of one argument (used for FS back-edge fallback)."""
        return self.arg_values.get((site.caller, site.index, index), BOTTOM)

    def constant_formals(self) -> List[FormalKey]:
        return sorted(k for k, v in self.formal_values.items() if v.is_const)

    @cached_property
    def fallback_snapshot(self) -> str:
        """Type-sensitive rendering of the facts the FS fallback consumes.

        Fallback edges read :meth:`arg_value` and ``global_constants``;
        both are tokenized with the payload type baked in, because
        ``Const(2) == Const(2.0)`` under plain dataclass equality while the
        two propagate differently.  Rendered on first use: nothing changes
        a result after :func:`flow_insensitive_icp` returns it.
        """
        parts = [
            f"g:{name}={type(value).__name__}:{value!r}"
            for name, value in sorted(self.global_constants.items())
        ]
        parts.extend(
            f"a:{caller}:{site}:{pos}={value_token(value)}"
            for (caller, site, pos), value in sorted(self.arg_values.items())
        )
        return "\n".join(parts)

    def entry_env(self, proc: str, symbols: ProcedureSymbols) -> Dict[str, LatticeValue]:
        """Entry lattice environment of ``proc`` under the FI solution."""
        env: Dict[str, LatticeValue] = {}
        for formal in symbols.formals:
            env[formal] = self.formal_value(proc, formal)
        for name, value in self.global_constants.items():
            env[name] = Const(value)
        return env


@collector_paused
def flow_insensitive_icp(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    config: Optional[ICPConfig] = None,
) -> FIResult:
    """Run the Figure 3 algorithm and return its solution."""
    config = config or ICPConfig()
    result = FIResult()
    _process_globals(program, pcg, modref, config, result)
    _process_formals(program, symbols, pcg, modref, config, result)
    _finalize_arg_values(symbols, pcg, modref, config, result)
    return result


# ----------------------------------------------------------------------
# Globals (first half of Figure 3).
# ----------------------------------------------------------------------


def _process_globals(
    program: ast.Program,
    pcg: PCG,
    modref: ModRefInfo,
    config: ICPConfig,
    result: FIResult,
) -> None:
    initial = program.initial_globals()
    candidates = {
        name: value for name, value in initial.items() if config.admit_value(value)
    }
    result.global_candidates = dict(candidates)
    modified = modref.mod_globals(pcg.entry)
    if pcg.missing_callees:
        # A missing procedure may modify any global.
        modified = frozenset(program.global_names)
    result.global_constants = {
        name: value for name, value in candidates.items() if name not in modified
    }


# ----------------------------------------------------------------------
# Formal parameters (second half of Figure 3).
# ----------------------------------------------------------------------


class _FormalSolver:
    """The meet/worklist machinery of Figure 3."""

    def __init__(self, result: FIResult):
        self._result = result
        self.values = result.formal_values
        self.worklist: Deque[FormalKey] = deque()

    def ensure(self, key: FormalKey) -> None:
        self.values.setdefault(key, TOP)

    def meet(self, key: FormalKey, new_value: LatticeValue) -> None:
        """``procedure meet`` of Figure 3."""
        orig = self.values.get(key, TOP)
        merged = meet(orig, new_value)
        self.values[key] = merged
        if not orig.is_bottom and merged.is_bottom:
            for dependent in self._result.fp_bind.get(key, ()):
                self.worklist.append(dependent)

    def drain(self) -> None:
        """Lower pass-through formals whose source was lowered (Figure 3 tail)."""
        while self.worklist:
            key = self.worklist.popleft()
            if self.values.get(key, TOP).is_bottom:
                continue
            self.values[key] = BOTTOM
            for dependent in self._result.fp_bind.get(key, ()):
                self.worklist.append(dependent)


def _process_formals(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    config: ICPConfig,
    result: FIResult,
) -> None:
    solver = _FormalSolver(result)
    for proc in pcg.nodes:
        for formal in symbols[proc].formals:
            solver.ensure((proc, formal))

    for proc in pcg.rpo:
        for edge in pcg.edges_out_of(proc):
            site = edge.site
            callee_formals = symbols[edge.callee].formals
            for index, arg in enumerate(site.args):
                key = (edge.callee, callee_formals[index])
                value = _argument_status(
                    arg, proc, solver, modref, config, result, dependent=key
                )
                solver.meet(key, value)
    solver.drain()


def _argument_status(
    arg: ast.Expr,
    caller: str,
    solver: _FormalSolver,
    modref: ModRefInfo,
    config: ICPConfig,
    result: FIResult,
    dependent: Optional[FormalKey] = None,
) -> LatticeValue:
    """Classify one argument per Figure 3's three-way cascade.

    Returns the lattice value met into the callee formal.  When the argument
    is a pass-through formal, the binding is recorded in ``fp_bind`` so the
    worklist can re-lower dependents.
    """
    literal = ast.literal_value(arg)
    if literal is not None:
        if config.admit_value(literal):
            return Const(literal)
        return BOTTOM
    if isinstance(arg, ast.Var):
        name = arg.name
        if name in result.global_constants:
            return Const(result.global_constants[name])
        source = (caller, name)
        if source in solver.values:
            source_value = solver.values[source]
            if source_value.is_const and not modref.formal_modified(caller, name):
                if dependent is not None:
                    _record_bind(result, source, dependent)
                return source_value
    return BOTTOM


def _record_bind(result: FIResult, source: FormalKey, dependent: FormalKey) -> None:
    result.fp_bind.setdefault(source, set()).add(dependent)


def _finalize_arg_values(
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    config: ICPConfig,
    result: FIResult,
) -> None:
    """Record the final FI status of every argument at every call site.

    Recomputed after the fixpoint so that pass-through arguments reflect the
    final (post-worklist) value of their source formal.
    """
    for proc in pcg.nodes:
        for site in symbols[proc].call_sites:
            for index, arg in enumerate(site.args):
                value = _final_arg_value(arg, proc, modref, config, result)
                result.arg_values[(proc, site.index, index)] = value


def _final_arg_value(
    arg: ast.Expr,
    caller: str,
    modref: ModRefInfo,
    config: ICPConfig,
    result: FIResult,
) -> LatticeValue:
    literal = ast.literal_value(arg)
    if literal is not None:
        if config.admit_value(literal):
            return Const(literal)
        return BOTTOM
    if isinstance(arg, ast.Var):
        name = arg.name
        if name in result.global_constants:
            return Const(result.global_constants[name])
        value = result.formal_values.get((caller, name))
        if (
            value is not None
            and value.is_const
            and not modref.formal_modified(caller, name)
        ):
            return value
    return BOTTOM
