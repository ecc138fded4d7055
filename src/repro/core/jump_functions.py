"""Jump-function interprocedural constant propagation baselines.

Reimplements the comparison systems of the paper's Section 5 from their
sources (Callahan–Cooper–Kennedy–Torczon, SIGPLAN '86; Grove–Torczon, PLDI
'93).  A *jump function* ``J(s, i)`` summarizes the value of argument ``i`` at
call site ``s`` as a function of the caller's formal parameters.  Four
implementations, in increasing precision/cost:

- **LITERAL** — constant iff the argument is an immediate literal.
- **INTRA** (intraprocedural constant) — the argument's value from a
  flow-sensitive intraprocedural propagation with formals unknown.
- **PASS-THROUGH** — INTRA, plus the identity function when the argument is
  an unmodified formal on every path.
- **POLYNOMIAL** — a polynomial over the caller's formals (built by a dense
  symbolic propagation; merges of unequal polynomials, division, remainder,
  comparisons and calls all degrade to non-polynomial).

The interprocedural phase is an optimistic worklist over the call graph that
evaluates each jump function under the current formal values.  Unlike the
original (which "does not handle call graph cycles" per the paper), the
worklist simply iterates to the fixpoint, so cyclic programs are safe.

None of these evaluate branch feasibility under entry constants — that is
exactly the precision the paper's flow-sensitive method adds (Figure 1).
Return jump functions are not built ("No Return" configuration), matching the
results the paper compares against in Table 5.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.callgraph.pcg import PCG
from repro.core.config import ICPConfig
from repro.ir.builder import build_cfg
from repro.ir.cfg import ArrayStoreInstr, AssignInstr, CallInstr, Ret
from repro.ir.eval import EvalError, apply_binary, apply_unary
from repro.ir.lattice import BOTTOM, TOP, Const, LatticeValue, meet
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols

Value = Union[int, float]

# ----------------------------------------------------------------------
# Polynomials over formal parameters.
# ----------------------------------------------------------------------

#: A monomial: sorted ((var, power), ...); the empty tuple is the constant term.
Monomial = Tuple[Tuple[str, int], ...]

CONST_MONO: Monomial = ()


@dataclass(frozen=True)
class Poly:
    """A multivariate polynomial with int/float coefficients.

    Stored as a normalized (zero-coefficient-free, sorted) tuple of
    (monomial, coefficient) pairs so instances are hashable and comparable.
    """

    terms: Tuple[Tuple[Monomial, Value], ...]

    @staticmethod
    def constant(value: Value) -> "Poly":
        if value == 0 and not isinstance(value, float):
            return Poly(())
        return Poly(((CONST_MONO, value),))

    @staticmethod
    def variable(name: str) -> "Poly":
        return Poly(((((name, 1),), 1),))

    @staticmethod
    def _normalize(table: Dict[Monomial, Value]) -> "Poly":
        # Integer zero coefficients vanish; float zeros are *kept* so that a
        # polynomial that is float-typed at runtime never masquerades as the
        # integer constant 0 (the lattice is type-sensitive).
        items = tuple(
            sorted(
                (m, c)
                for m, c in table.items()
                if not (c == 0 and isinstance(c, int))
            )
        )
        return Poly(items)

    # -- queries ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return all(m == CONST_MONO for m, _ in self.terms)

    @property
    def constant_value(self) -> Value:
        for mono, coeff in self.terms:
            if mono == CONST_MONO:
                return coeff
        return 0

    @property
    def is_identity(self) -> bool:
        """True iff the polynomial is exactly one formal: ``f``."""
        return (
            len(self.terms) == 1
            and self.terms[0][1] == 1
            and not isinstance(self.terms[0][1], float)
            and len(self.terms[0][0]) == 1
            and self.terms[0][0][0][1] == 1
        )

    @property
    def identity_var(self) -> str:
        return self.terms[0][0][0][0]

    def variables(self) -> Set[str]:
        names: Set[str] = set()
        for mono, _ in self.terms:
            for var, _power in mono:
                names.add(var)
        return names

    # -- arithmetic -------------------------------------------------------

    def add(self, other: "Poly") -> "Poly":
        table: Dict[Monomial, Value] = dict(self.terms)
        for mono, coeff in other.terms:
            table[mono] = table.get(mono, 0) + coeff
        return Poly._normalize(table)

    def neg(self) -> "Poly":
        return Poly(tuple((m, -c) for m, c in self.terms))

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def mul(self, other: "Poly") -> "Poly":
        table: Dict[Monomial, Value] = {}
        for mono_a, coeff_a in self.terms:
            for mono_b, coeff_b in other.terms:
                mono = _merge_monomials(mono_a, mono_b)
                table[mono] = table.get(mono, 0) + coeff_a * coeff_b
        return Poly._normalize(table)

    def evaluate(self, env: Dict[str, Value]) -> Value:
        """Evaluate under concrete formal values (may raise EvalError)."""
        total: Value = 0
        for mono, coeff in self.terms:
            term: Value = coeff
            for var, power in mono:
                for _ in range(power):
                    term = apply_binary("*", term, env[var])
            total = apply_binary("+", total, term)
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = [str(coeff)] if (coeff != 1 or not mono) else []
            for var, power in mono:
                factors.append(var if power == 1 else f"{var}^{power}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    powers: Dict[str, int] = {}
    for var, power in a:
        powers[var] = powers.get(var, 0) + power
    for var, power in b:
        powers[var] = powers.get(var, 0) + power
    return tuple(sorted(powers.items()))


# ----------------------------------------------------------------------
# Symbolic lattice: TOP / polynomial / BOTTOM.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymValue:
    """TOP (unexecuted), an exact polynomial, or BOTTOM (not polynomial).

    A polynomial value also records what decides its runtime type, which
    the polynomial alone loses when terms cancel: ``2.0 * 0`` runs to the
    float ``0.0`` and ``f - f`` to ``0.0`` for a float ``f``, yet both
    normalize to the integer polynomial ``0``.  The value is a float iff
    ``float_typed`` holds or one of the ``type_vars`` formals is a float
    (``+``, ``-`` and ``*`` promote on any float operand).
    """

    tag: int  # 0 = TOP, 1 = poly, 2 = BOTTOM
    poly: Optional[Poly] = None
    float_typed: bool = False
    type_vars: FrozenSet[str] = frozenset()

    @property
    def is_top(self) -> bool:
        return self.tag == 0

    @property
    def is_poly(self) -> bool:
        return self.tag == 1

    @property
    def is_bottom(self) -> bool:
        return self.tag == 2

    def __str__(self) -> str:
        if self.is_top:
            return "STOP"
        if self.is_bottom:
            return "SBOTTOM"
        return f"S({self.poly})"

    @property
    def constant(self) -> Optional[Value]:
        """The runtime constant, or None if it depends on a formal's value or type."""
        if self.type_vars or not self.poly.is_constant:
            return None
        return self.evaluate({})

    def evaluate(self, env: Dict[str, Value]) -> Value:
        """The runtime value under concrete formal values (may raise EvalError)."""
        value = self.poly.evaluate(env)
        if not isinstance(value, float) and (
            self.float_typed
            or any(isinstance(env[var], float) for var in self.type_vars)
        ):
            value = apply_binary("+", value, 0.0)  # promote as the runtime does
        return value


STOP = SymValue(0)
SBOTTOM = SymValue(2)


def spoly(
    poly: Poly,
    float_typed: bool = False,
    type_vars: Optional[FrozenSet[str]] = None,
) -> SymValue:
    """A polynomial value; its own float coefficients and variables count."""
    float_typed = float_typed or any(isinstance(c, float) for _, c in poly.terms)
    if type_vars is None:
        type_vars = frozenset(poly.variables())
    return SymValue(1, poly, float_typed, type_vars)


def sym_meet(a: SymValue, b: SymValue) -> SymValue:
    if a.is_top:
        return b
    if b.is_top:
        return a
    if a == b:
        return a
    return SBOTTOM


def sym_eval(expr: ast.Expr, env: Dict[str, SymValue]) -> SymValue:
    """Symbolically evaluate an expression to a polynomial (or BOTTOM)."""
    if isinstance(expr, ast.IntLit):
        return spoly(Poly.constant(expr.value))
    if isinstance(expr, ast.FloatLit):
        return spoly(Poly.constant(expr.value))
    if isinstance(expr, ast.Var):
        return env.get(expr.name, SBOTTOM)
    if isinstance(expr, ast.Index):
        return SBOTTOM  # array elements are never polynomial
    if isinstance(expr, ast.Unary):
        operand = sym_eval(expr.operand, env)
        if not operand.is_poly:
            return operand if operand.is_top else SBOTTOM
        if expr.op == "-":
            return spoly(operand.poly.neg(), operand.float_typed, operand.type_vars)
        return _fold_unary(expr.op, operand)
    if isinstance(expr, ast.Binary):
        left = sym_eval(expr.left, env)
        right = sym_eval(expr.right, env)
        if left.is_top or right.is_top:
            return STOP
        if not (left.is_poly and right.is_poly):
            return SBOTTOM
        float_typed = left.float_typed or right.float_typed
        type_vars = left.type_vars | right.type_vars
        if expr.op == "+":
            return spoly(left.poly.add(right.poly), float_typed, type_vars)
        if expr.op == "-":
            return spoly(left.poly.sub(right.poly), float_typed, type_vars)
        if expr.op == "*":
            return spoly(left.poly.mul(right.poly), float_typed, type_vars)
        # Division, remainder, comparisons, logicals: fold only when both
        # sides are constants (truncating division does not distribute).
        try:
            lhs, rhs = left.constant, right.constant
            if lhs is None or rhs is None:
                return SBOTTOM
            return spoly(Poly.constant(apply_binary(expr.op, lhs, rhs)))
        except EvalError:
            return SBOTTOM
    raise TypeError(f"unknown expression node {expr!r}")


def _fold_unary(op: str, operand: SymValue) -> SymValue:
    try:
        value = operand.constant
    except EvalError:
        return SBOTTOM
    if value is None:
        return SBOTTOM
    return spoly(Poly.constant(apply_unary(op, value)))


# ----------------------------------------------------------------------
# Jump function construction (dense symbolic analysis per procedure).
# ----------------------------------------------------------------------


class JumpFunctionKind(enum.Enum):
    """The four jump-function implementations compared in the paper."""

    LITERAL = "literal"
    INTRA = "intra"
    PASS_THROUGH = "pass-through"
    POLYNOMIAL = "polynomial"


@dataclass
class JumpFunction:
    """The symbolic summary of one argument at one call site."""

    symbolic: SymValue

    def evaluate(
        self,
        kind: JumpFunctionKind,
        formal_values: Dict[str, LatticeValue],
        config: ICPConfig,
    ) -> LatticeValue:
        """Evaluate under the caller's current formal lattice values."""
        sym = self.symbolic
        if sym.is_top:
            return TOP
        if sym.is_bottom:
            return BOTTOM
        poly = sym.poly
        if sym.type_vars and kind is JumpFunctionKind.PASS_THROUGH:
            if (
                poly.is_identity
                and not sym.float_typed
                and sym.type_vars == {poly.identity_var}
            ):
                return config.admit(formal_values.get(poly.identity_var, BOTTOM))
            return BOTTOM
        # A constant, or POLYNOMIAL: substitute constant formal values.
        env: Dict[str, Value] = {}
        for var in sym.type_vars:
            value = formal_values.get(var, BOTTOM)
            if value.is_top:
                return TOP
            if not value.is_const:
                return BOTTOM
            env[var] = value.const_value
        try:
            return config.admit(Const(sym.evaluate(env)))
        except EvalError:
            return BOTTOM


@dataclass
class JumpFunctionResult:
    """The interprocedural solution for one jump-function kind."""

    kind: JumpFunctionKind
    formal_values: Dict[Tuple[str, str], LatticeValue] = field(default_factory=dict)

    def formal_value(self, proc: str, formal: str) -> LatticeValue:
        return self.formal_values.get((proc, formal), BOTTOM)

    def constant_formals(self) -> List[Tuple[str, str]]:
        return sorted(k for k, v in self.formal_values.items() if v.is_const)

    def entry_env(
        self, proc: str, symbols: ProcedureSymbols
    ) -> Dict[str, LatticeValue]:
        env: Dict[str, LatticeValue] = {}
        for formal in symbols.formals:
            value = self.formal_value(proc, formal)
            env[formal] = BOTTOM if value.is_top else value
        return env


def build_jump_functions(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    kind: JumpFunctionKind,
    call_mods,
    assign_aliases=None,
) -> Dict[Tuple[str, int, int], JumpFunction]:
    """Build J(s, i) for every call site of every reachable procedure.

    :param call_mods: callable mapping a call site to the caller variables it
        may modify (from MOD/REF; needed so calls kill symbolic values).
    :param assign_aliases: callable ``(proc, target) -> partners`` giving the
        may-alias partners a store to ``target`` also invalidates.
    """
    if assign_aliases is None:
        assign_aliases = lambda _proc, _target: ()  # noqa: E731
    proc_map = program.procedure_map()
    table: Dict[Tuple[str, int, int], JumpFunction] = {}
    for proc_name in pcg.nodes:
        proc = proc_map[proc_name]
        if kind is JumpFunctionKind.LITERAL:
            for site in symbols[proc_name].call_sites:
                for index, arg in enumerate(site.args):
                    literal = ast.literal_value(arg)
                    sym = (
                        spoly(Poly.constant(literal))
                        if literal is not None
                        else SBOTTOM
                    )
                    table[(proc_name, site.index, index)] = JumpFunction(sym)
            continue
        identity_formals = kind is not JumpFunctionKind.INTRA
        site_args = _symbolic_call_args(
            proc, symbols[proc_name], identity_formals, call_mods, assign_aliases
        )
        for (site_index, arg_index), sym in site_args.items():
            table[(proc_name, site_index, arg_index)] = JumpFunction(sym)
    return table


def _symbolic_call_args(
    proc: ast.Procedure,
    proc_symbols: ProcedureSymbols,
    identity_formals: bool,
    call_mods,
    assign_aliases,
) -> Dict[Tuple[int, int], SymValue]:
    """Dense forward symbolic analysis; returns arg values per call site.

    All CFG edges are treated as executable (jump functions do not evaluate
    branch feasibility — the precision gap shown in the paper's Figure 1).
    """
    build = build_cfg(proc, proc_symbols)
    cfg = build.cfg
    rpo = cfg.reachable_ids()
    reachable = set(rpo)

    variables: Set[str] = set(proc_symbols.formals)
    variables.update(proc_symbols.assigned)
    variables.update(proc_symbols.referenced)

    def initial_env() -> Dict[str, SymValue]:
        env: Dict[str, SymValue] = {}
        for var in variables:
            if var in proc_symbols.formal_set and identity_formals:
                env[var] = spoly(Poly.variable(var))
            else:
                env[var] = SBOTTOM
        return env

    in_envs: Dict[int, Dict[str, SymValue]] = {
        block_id: {var: STOP for var in variables} for block_id in rpo
    }
    in_envs[cfg.entry_id] = initial_env()

    def transfer(block_id: int, env: Dict[str, SymValue]) -> Dict[str, SymValue]:
        env = dict(env)
        for instr in cfg.blocks[block_id].instrs:
            env = transfer_one(
                instr, env, call_mods, proc_symbols.name, assign_aliases
            )
        return env

    changed = True
    while changed:
        changed = False
        for block_id in rpo:
            if block_id == cfg.entry_id:
                continue
            preds = [p for p in cfg.blocks[block_id].preds if p in reachable]
            if not preds:
                continue
            merged: Dict[str, SymValue] = {}
            pred_outs = [transfer(p, in_envs[p]) for p in preds]
            for var in variables:
                value = STOP
                for out in pred_outs:
                    value = sym_meet(value, out.get(var, SBOTTOM))
                merged[var] = value
            if merged != in_envs[block_id]:
                in_envs[block_id] = merged
                changed = True

    results: Dict[Tuple[int, int], SymValue] = {}
    for block_id in rpo:
        env = dict(in_envs[block_id])
        for instr in cfg.blocks[block_id].instrs:
            if isinstance(instr, CallInstr):
                for index, arg in enumerate(instr.args):
                    results[(instr.site.index, index)] = sym_eval(arg, env)
            if isinstance(instr, (AssignInstr, ArrayStoreInstr, CallInstr)):
                env = transfer_one(
                    instr, env, call_mods, proc_symbols.name, assign_aliases
                )
    # Call sites in unreachable blocks (code after return).
    for instr in cfg.call_instrs():
        for index in range(len(instr.args)):
            results.setdefault((instr.site.index, index), STOP)
    return results


def transfer_one(
    instr, env: Dict[str, SymValue], call_mods, proc_name: str, assign_aliases
) -> Dict[str, SymValue]:
    """Apply one instruction's symbolic transfer function."""
    env = dict(env)

    def kill_partners(target: str) -> None:
        for partner in assign_aliases(proc_name, target):
            if partner != target and partner in env:
                env[partner] = SBOTTOM

    if isinstance(instr, AssignInstr):
        env[instr.target] = sym_eval(instr.expr, env)
        kill_partners(instr.target)
    elif isinstance(instr, ArrayStoreInstr):
        env[instr.target] = SBOTTOM
        kill_partners(instr.target)
    elif isinstance(instr, CallInstr):
        for var in call_mods(instr.site):
            if var in env:
                env[var] = SBOTTOM
        if instr.target is not None:
            env[instr.target] = SBOTTOM
            kill_partners(instr.target)
    return env


# ----------------------------------------------------------------------
# Interprocedural propagation over jump functions.
# ----------------------------------------------------------------------


def jump_function_icp(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    kind: JumpFunctionKind,
    call_mods,
    config: Optional[ICPConfig] = None,
    assign_aliases=None,
) -> JumpFunctionResult:
    """Solve interprocedural constants with jump functions of ``kind``.

    Optimistic worklist: all formals start TOP; each call edge's jump
    functions are (re)evaluated whenever the caller's formal values change;
    results are met into the callee's formals.  Remaining TOPs (procedures
    with no evaluated incoming edge) are reported as BOTTOM.
    """
    config = config or ICPConfig()
    functions = build_jump_functions(
        program, symbols, pcg, kind, call_mods, assign_aliases
    )
    result = JumpFunctionResult(kind=kind)
    values = result.formal_values
    for proc in pcg.nodes:
        for formal in symbols[proc].formals:
            values[(proc, formal)] = TOP

    worklist = deque(pcg.edges)
    queued = set(pcg.edges)
    while worklist:
        edge = worklist.popleft()
        queued.discard(edge)
        caller_values = {
            formal: values[(edge.caller, formal)]
            for formal in symbols[edge.caller].formals
        }
        callee_formals = symbols[edge.callee].formals
        for index in range(len(edge.site.args)):
            function = functions[(edge.caller, edge.site.index, index)]
            value = function.evaluate(kind, caller_values, config)
            key = (edge.callee, callee_formals[index])
            merged = meet(values[key], value)
            if merged != values[key]:
                values[key] = merged
                for out_edge in pcg.edges_out_of(edge.callee):
                    if out_edge not in queued:
                        worklist.append(out_edge)
                        queued.add(out_edge)

    for key, value in list(values.items()):
        if value.is_top:
            values[key] = BOTTOM
    return result
