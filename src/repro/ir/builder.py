"""Lowering from the MiniF AST to the basic-block CFG.

The builder keeps AST expression objects by reference (never copies them) and
records, for every lowered statement, the instruction or terminator it became
(:attr:`CFGBuildResult.instr_of_stmt`) so the transformation pass can map SSA
facts back onto source statements.  Those maps are keyed by ``id(stmt)``, so
they hold only for the procedure object they were built from, which
:attr:`CFGBuildResult.proc` keeps.

Statements following a ``return`` in the same block become an unreachable
block with no predecessors; they stay in the CFG (the transform pass leaves
them untouched) but no analysis visits them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.ir.cfg import (
    ArrayStoreInstr,
    AssignInstr,
    Branch,
    CallInstr,
    CFG,
    Jump,
    PrintInstr,
    Ret,
    Terminator,
)
from repro.lang import ast
from repro.lang.symbols import CallSite, ProcedureSymbols


@dataclass
class CFGBuildResult:
    """A lowered procedure: the CFG plus statement-to-IR back maps."""

    cfg: CFG
    #: The procedure lowered; ``instr_of_stmt`` is keyed by its statements.
    proc: ast.Procedure
    #: id(stmt) -> the Instr or Terminator carrying that statement's expression.
    instr_of_stmt: Dict[int, Union[AssignInstr, CallInstr, PrintInstr, Ret, Branch]] = (
        field(default_factory=dict)
    )
    #: Call sites in source (pre-order) order, matching ProcedureSymbols.
    call_sites: List[CallSite] = field(default_factory=list)


def build_cfg(proc: ast.Procedure, symbols: ProcedureSymbols) -> CFGBuildResult:
    """Lower ``proc`` to a CFG, using ``symbols`` to identify call sites."""
    builder = _Builder(proc, symbols)
    return builder.build()


class _Builder:
    def __init__(self, proc: ast.Procedure, symbols: ProcedureSymbols):
        self._proc = proc
        self._site_of_stmt: Dict[int, CallSite] = {
            id(site.stmt): site for site in symbols.call_sites
        }
        self._result = CFGBuildResult(cfg=CFG(proc.name), proc=proc)
        self._cfg = self._result.cfg
        self._current: Optional[int] = self._cfg.entry_id

    def build(self) -> CFGBuildResult:
        self._lower_block(self._proc.body)
        if self._current is not None:
            self._terminate(Ret(None))
        self._cfg.seal()
        return self._result

    # ------------------------------------------------------------------

    def _emit(self, instr) -> None:
        if self._current is None:
            # Code after a return: park it in a fresh unreachable block.
            self._current = self._cfg.new_block().id
        self._cfg.blocks[self._current].instrs.append(instr)

    def _terminate(self, term: Terminator) -> None:
        assert self._current is not None
        self._cfg.blocks[self._current].terminator = term
        self._current = None

    def _start_block(self) -> int:
        block = self._cfg.new_block()
        self._current = block.id
        return block.id

    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.Assign):
            instr = AssignInstr(stmt.target, stmt.expr, stmt)
            self._result.instr_of_stmt[id(stmt)] = instr
            self._emit(instr)
        elif isinstance(stmt, ast.AssignIndex):
            instr = ArrayStoreInstr(stmt.target, stmt.index, stmt.expr, stmt)
            self._result.instr_of_stmt[id(stmt)] = instr
            self._emit(instr)
        elif isinstance(stmt, (ast.CallStmt, ast.CallAssign)):
            site = self._site_of_stmt[id(stmt)]
            target = stmt.target if isinstance(stmt, ast.CallAssign) else None
            instr = CallInstr(site, target, stmt.callee, stmt.args, stmt)
            self._result.instr_of_stmt[id(stmt)] = instr
            self._result.call_sites.append(site)
            self._emit(instr)
        elif isinstance(stmt, ast.Print):
            instr = PrintInstr(stmt.expr, stmt)
            self._result.instr_of_stmt[id(stmt)] = instr
            self._emit(instr)
        elif isinstance(stmt, ast.Return):
            if self._current is None:
                self._start_block()
            term = Ret(stmt.expr, stmt)
            self._result.instr_of_stmt[id(stmt)] = term
            self._terminate(term)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        else:
            raise TypeError(f"unknown statement node: {stmt!r}")

    def _lower_if(self, stmt: ast.If) -> None:
        if self._current is None:
            self._start_block()
        cond_block = self._current
        then_entry = self._cfg.new_block().id
        else_entry = self._cfg.new_block().id if stmt.else_block is not None else None

        self._current = then_entry
        self._lower_block(stmt.then_block)
        then_exit = self._current  # None if the then-arm returned.

        else_exit: Optional[int] = None
        if stmt.else_block is not None:
            self._current = else_entry
            self._lower_block(stmt.else_block)
            else_exit = self._current

        join = self._cfg.new_block().id
        false_target = else_entry if else_entry is not None else join
        term = Branch(stmt.cond, then_entry, false_target, stmt)
        self._result.instr_of_stmt[id(stmt)] = term
        self._cfg.blocks[cond_block].terminator = term

        if then_exit is not None:
            self._cfg.blocks[then_exit].terminator = Jump(join)
        if stmt.else_block is not None and else_exit is not None:
            self._cfg.blocks[else_exit].terminator = Jump(join)
        self._current = join

    def _lower_while(self, stmt: ast.While) -> None:
        if self._current is None:
            self._start_block()
        pre_block = self._current
        header = self._cfg.new_block().id
        self._cfg.blocks[pre_block].terminator = Jump(header)

        body_entry = self._cfg.new_block().id
        exit_block = self._cfg.new_block().id
        term = Branch(stmt.cond, body_entry, exit_block, stmt)
        self._result.instr_of_stmt[id(stmt)] = term
        self._cfg.blocks[header].terminator = term

        self._current = body_entry
        self._lower_block(stmt.body)
        if self._current is not None:
            self._cfg.blocks[self._current].terminator = Jump(header)
        self._current = exit_block
