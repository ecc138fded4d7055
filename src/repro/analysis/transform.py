"""The backward-walk transformation: materialize constants in the program.

This is the second half of the paper's interprocedural constant propagation
("the transformation of a program representation to reflect these constants",
Section 2).  Each procedure is rewritten from one SCC engine run under its
interprocedural entry constants: constant uses are substituted, constant
expressions folded, and branches decided by constants pruned.  That run is
the one the pipeline already made when it provably had the same inputs
(``details``); any other procedure is analyzed here.

The number of *substitutions* (variable uses replaced by a constant) is the
metric of the paper's Table 5 (following Grove & Torczon / Metzger & Stroud).

By-reference safety: a bare-variable argument that the callee may modify is
never replaced by a literal — doing so would silently switch the binding from
by-reference to by-value.  Semantic preservation is property-tested against
the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.analysis.base import CallEffects
from repro.analysis.scc import SCCDetail, SCCEngine
from repro.core.collector import collector_paused
from repro.ir.cfg import Branch, CallInstr
from repro.ir.eval import EvalError, apply_binary, apply_unary, evaluate_expr
from repro.ir.lattice import TOP, LatticeValue
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols
from repro.obs import NULL_OBS, Observability


@dataclass
class TransformResult:
    """A transformed program plus per-procedure counters."""

    program: ast.Program
    substitutions: Dict[str, int] = field(default_factory=dict)
    folds: Dict[str, int] = field(default_factory=dict)
    pruned_branches: Dict[str, int] = field(default_factory=dict)

    @property
    def total_substitutions(self) -> int:
        return sum(self.substitutions.values())

    @property
    def total_folds(self) -> int:
        return sum(self.folds.values())

    @property
    def total_pruned(self) -> int:
        return sum(self.pruned_branches.values())


@collector_paused
def transform_program(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    entry_envs: Dict[str, Dict[str, LatticeValue]],
    effects: CallEffects,
    *,
    prune_dead_branches: bool = True,
    fold_constants: bool = True,
    insert_entry_assignments: bool = False,
    details: Optional[Mapping[str, object]] = None,
    obs: Observability = NULL_OBS,
) -> TransformResult:
    """Substitute, fold, and prune every procedure of ``program``.

    :param entry_envs: per-procedure entry lattice environment, as produced by
        an interprocedural constant propagation method (may be empty — then
        only intraprocedurally evident constants are materialized).
    :param details: per-procedure engine details the caller computed with
        exactly ``entry_envs`` and ``effects``.  A detail stands in for the
        procedure's engine run only if it is an :class:`SCCDetail` lowered
        from that very procedure object: its statement maps are keyed by
        ``id(stmt)``.  Every other procedure runs the SCC engine, recorded
        in ``obs`` under the pass label ``transform``.
    """
    # Imported here: repro.sched imports this package.
    from repro.sched.scheduler import serial_engine_run

    details = details or {}
    engine = SCCEngine()
    result = TransformResult(program=program)
    new_procs: List[ast.Procedure] = []
    for proc in program.procedures:
        detail = details.get(proc.name)
        if not (isinstance(detail, SCCDetail) and detail.build.proc is proc):
            intra, _ = serial_engine_run(
                obs, engine, "transform", proc, symbols[proc.name],
                entry_envs.get(proc.name, {}), effects,
            )
            detail = intra.detail
        transformer = _ProcTransformer(
            proc,
            detail,
            effects,
            prune=prune_dead_branches,
            fold=fold_constants,
        )
        new_body = transformer.run()
        if insert_entry_assignments:
            new_body = _with_entry_assignments(
                new_body, entry_envs.get(proc.name, {}), symbols[proc.name]
            )
        new_procs.append(ast.Procedure(proc.name, list(proc.formals), new_body, proc.pos))
        result.substitutions[proc.name] = transformer.substitutions
        result.folds[proc.name] = transformer.folds
        result.pruned_branches[proc.name] = transformer.pruned
    result.program = ast.Program(
        list(program.global_names),
        [ast.GlobalInit(e.name, e.value, e.pos) for e in program.inits],
        new_procs,
    )
    return result


def constant_to_expr(value) -> ast.Expr:
    """Build the AST literal for a constant value (sign-wrapped if negative)."""
    if isinstance(value, float):
        if value < 0 or (value == 0.0 and str(value).startswith("-")):
            return ast.Unary("-", ast.FloatLit(-value))
        return ast.FloatLit(value)
    if value < 0:
        return ast.Unary("-", ast.IntLit(-value))
    return ast.IntLit(value)


def _with_entry_assignments(
    body: ast.Block,
    entry_env: Dict[str, LatticeValue],
    symbols: ProcedureSymbols,
) -> ast.Block:
    """Prepend ``v = c;`` for each referenced entry constant (paper Section 3).

    The paper's propagation "is equivalent to adding an assignment statement
    for each constant variable at the beginning of the procedure ... only for
    those variables that are referenced in that procedure."
    """
    prefix: List[ast.Stmt] = []
    for var in sorted(entry_env):
        value = entry_env[var]
        if value.is_const and var in symbols.referenced:
            prefix.append(ast.Assign(var, constant_to_expr(value.const_value)))
    if not prefix:
        return body
    return ast.Block(prefix + list(body.stmts), body.pos)


class _ProcTransformer:
    def __init__(
        self,
        proc: ast.Procedure,
        detail: SCCDetail,
        effects: CallEffects,
        *,
        prune: bool,
        fold: bool,
    ):
        self._proc = proc
        self._effects = effects
        self._prune = prune
        self._fold = fold
        self.substitutions = 0
        self.folds = 0
        self.pruned = 0

        self._instr_of_stmt = detail.build.instr_of_stmt
        self._values = detail.values
        self._reached = detail.reached_blocks
        self._block_of_instr: Dict[int, int] = {}
        for block in detail.build.cfg.blocks:
            for instr in block.instrs:
                self._block_of_instr[id(instr)] = block.id
            if block.terminator is not None:
                self._block_of_instr[id(block.terminator)] = block.id

    # ------------------------------------------------------------------

    def run(self) -> ast.Block:
        return self._rebuild_block(self._proc.body)

    def _rebuild_block(self, block: ast.Block) -> ast.Block:
        stmts: List[ast.Stmt] = []
        for stmt in block.stmts:
            stmts.extend(self._rebuild_stmt(stmt))
        return ast.Block(stmts, block.pos)

    def _rebuild_stmt(self, stmt: ast.Stmt) -> List[ast.Stmt]:
        if isinstance(stmt, ast.Block):
            return [self._rebuild_block(stmt)]
        if isinstance(stmt, ast.Assign):
            node = self._node_for(stmt)
            expr = self._substitute(stmt.expr, node)
            return [ast.Assign(stmt.target, expr, stmt.pos)]
        if isinstance(stmt, ast.AssignIndex):
            node = self._node_for(stmt)
            index = self._substitute(stmt.index, node)
            expr = self._substitute(stmt.expr, node)
            return [ast.AssignIndex(stmt.target, index, expr, stmt.pos)]
        if isinstance(stmt, ast.CallStmt):
            node = self._node_for(stmt)
            args = self._rebuild_args(stmt.args, node)
            return [ast.CallStmt(stmt.callee, args, stmt.pos)]
        if isinstance(stmt, ast.CallAssign):
            node = self._node_for(stmt)
            args = self._rebuild_args(stmt.args, node)
            return [ast.CallAssign(stmt.target, stmt.callee, args, stmt.pos)]
        if isinstance(stmt, ast.Print):
            node = self._node_for(stmt)
            return [ast.Print(self._substitute(stmt.expr, node), stmt.pos)]
        if isinstance(stmt, ast.Return):
            node = self._node_for(stmt)
            if stmt.expr is None:
                return [ast.Return(None, stmt.pos)]
            return [ast.Return(self._substitute(stmt.expr, node), stmt.pos)]
        if isinstance(stmt, ast.If):
            return self._rebuild_if(stmt)
        if isinstance(stmt, ast.While):
            return self._rebuild_while(stmt)
        raise TypeError(f"unknown statement node: {stmt!r}")

    def _rebuild_if(self, stmt: ast.If) -> List[ast.Stmt]:
        branch = self._node_for(stmt)
        cond_value = self._branch_value(branch)
        if self._prune and cond_value is not None and cond_value.is_const:
            self.pruned += 1
            if cond_value.const_value != 0:
                return list(self._rebuild_block(stmt.then_block).stmts)
            if stmt.else_block is not None:
                return list(self._rebuild_block(stmt.else_block).stmts)
            return []
        cond = self._substitute(stmt.cond, branch)
        then_block = self._rebuild_block(stmt.then_block)
        else_block = (
            self._rebuild_block(stmt.else_block)
            if stmt.else_block is not None
            else None
        )
        return [ast.If(cond, then_block, else_block, stmt.pos)]

    def _rebuild_while(self, stmt: ast.While) -> List[ast.Stmt]:
        branch = self._node_for(stmt)
        cond_value = self._branch_value(branch)
        if (
            self._prune
            and cond_value is not None
            and cond_value.is_const
            and cond_value.const_value == 0
        ):
            # The loop guard is false on first evaluation; the body never runs.
            self.pruned += 1
            return []
        cond = self._substitute(stmt.cond, branch)
        return [ast.While(cond, self._rebuild_block(stmt.body), stmt.pos)]

    # ------------------------------------------------------------------

    def _node_for(self, stmt: ast.Stmt):
        return self._instr_of_stmt.get(id(stmt))

    def _is_executed(self, node) -> bool:
        if node is None or node.uses is None:
            return False
        return self._block_of_instr.get(id(node)) in self._reached

    def _branch_value(self, branch) -> Optional[LatticeValue]:
        """Lattice value of a Branch condition, or None if never executed."""
        if not isinstance(branch, Branch) or not self._is_executed(branch):
            return None
        return evaluate_expr(branch.cond, self._safe_lookup(branch.uses))

    def _safe_lookup(self, uses):
        def lookup(var: str) -> LatticeValue:
            name = uses.get(var)
            if name is None:
                return TOP
            return self._values.get(name, TOP)

        return lookup

    def _rebuild_args(self, args: List[ast.Expr], node) -> List[ast.Expr]:
        if not isinstance(node, CallInstr) or not self._is_executed(node):
            return list(args)
        modified = self._effects.modified_vars(node.site)
        rebuilt: List[ast.Expr] = []
        for arg in args:
            if isinstance(arg, ast.Var) and arg.name in modified:
                # By-reference argument the callee may write: must stay a
                # variable, or the store target would vanish.
                rebuilt.append(arg)
            else:
                rebuilt.append(self._substitute(arg, node))
        return rebuilt

    def _substitute(self, expr: ast.Expr, node) -> ast.Expr:
        if node is None or node.uses is None or not self._is_executed(node):
            return expr
        new_expr = self._subst_expr(expr, node.uses)
        if self._fold:
            new_expr = self._fold_expr(new_expr)
        return new_expr

    def _subst_expr(self, expr: ast.Expr, uses) -> ast.Expr:
        if isinstance(expr, ast.Var):
            name = uses.get(expr.name)
            if name is None:
                return expr
            value = self._values.get(name)
            if value is not None and value.is_const:
                self.substitutions += 1
                return constant_to_expr(value.const_value)
            return expr
        if isinstance(expr, ast.Unary):
            return ast.Unary(expr.op, self._subst_expr(expr.operand, uses), expr.pos)
        if isinstance(expr, ast.Binary):
            return ast.Binary(
                expr.op,
                self._subst_expr(expr.left, uses),
                self._subst_expr(expr.right, uses),
                expr.pos,
            )
        if isinstance(expr, ast.Index):
            # The element value is never constant; the index may be.
            return ast.Index(expr.name, self._subst_expr(expr.index, uses), expr.pos)
        return expr

    def _fold_expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.Unary):
            operand = self._fold_expr(expr.operand)
            value = ast.literal_value(operand)
            # Do not fold unary minus over a bare literal: `-5` is already
            # in simplest form (and re-folding would loop on negatives).
            if value is not None and expr.op == "not":
                self.folds += 1
                return constant_to_expr(apply_unary("not", value))
            return ast.Unary(expr.op, operand, expr.pos)
        if isinstance(expr, ast.Binary):
            left = self._fold_expr(expr.left)
            right = self._fold_expr(expr.right)
            lval = ast.literal_value(left)
            rval = ast.literal_value(right)
            if lval is not None and rval is not None:
                try:
                    folded = apply_binary(expr.op, lval, rval)
                except EvalError:
                    return ast.Binary(expr.op, left, right, expr.pos)
                self.folds += 1
                return constant_to_expr(folded)
            return ast.Binary(expr.op, left, right, expr.pos)
        if isinstance(expr, ast.Index):
            return ast.Index(expr.name, self._fold_expr(expr.index), expr.pos)
        return expr
