"""A tree-walking interpreter implementing MiniF's dynamic semantics.

The interpreter is the ground truth against which every analysis is tested:

- *by-reference* parameter passing: a bare-variable argument shares its
  :class:`Cell` with the callee's formal; a compound expression passes a
  fresh cell (Fortran temporary);
- globals live in one shared frame, initialized from ``init`` blocks;
- reading an uninitialized variable is a runtime error;
- a step budget, a call-depth limit, and the evaluator's integer-magnitude
  cap (``repro.ir.eval.MAX_INT_BITS``) bound execution of generated
  programs — the last one bounds the *cost of each step*: without it a
  repeated-multiplication loop exhausts no budget yet never finishes.

The :class:`Recorder` trace hook observes the concrete value of every formal
and every global at each procedure entry, and of every argument at each call,
which lets tests check every constant claimed by an analysis against every
value that actually occurred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import InterpreterError, StepLimitExceeded
from repro.ir.eval import EvalError, apply_binary, apply_unary, truthy
from repro.lang import ast

Value = Union[int, float]

#: Sentinel stored by the Recorder when a slot held more than one value.
MULTIPLE = object()


class Cell:
    """A mutable storage location (one variable binding)."""

    __slots__ = ("value", "initialized")

    def __init__(self, value: Optional[Value] = None):
        self.initialized = value is not None
        self.value: Value = value if value is not None else 0

    def read(self, name: str) -> Value:
        if not self.initialized:
            raise InterpreterError(f"read of uninitialized variable {name!r}")
        return self.value

    def write(self, value: Value) -> None:
        self.value = value
        self.initialized = True


class _ReturnSignal(Exception):
    def __init__(self, value: Optional[Value]):
        self.value = value


@dataclass
class ExecutionResult:
    """What a program run produced."""

    outputs: List[Value]
    steps: int


class Recorder:
    """Trace hook recording observed values for soundness checking.

    ``entry_values[(proc, var)]`` is the single value observed at every entry
    of ``proc`` for formal-or-global ``var``, or :data:`MULTIPLE` if runs
    disagreed.  ``call_args[(caller, site_index, arg_pos)]`` likewise for
    argument values, and ``call_globals[(caller, site_index, global)]`` for
    global values at call sites.
    """

    def __init__(self) -> None:
        self.entry_values: Dict[Tuple[str, str], object] = {}
        self.call_args: Dict[Tuple[str, int, int], object] = {}
        self.call_globals: Dict[Tuple[str, int, str], object] = {}
        self.entry_counts: Dict[str, int] = {}
        #: Executions of each call site, keyed (caller, site_index) — lets
        #: the soundness sanitizer catch claimed-unreachable sites that ran.
        self.call_counts: Dict[Tuple[str, int], int] = {}

    @staticmethod
    def _note(table: dict, key, value) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return  # arrays (dict-valued cells) are never recorded
        if key not in table:
            table[key] = value
        elif table[key] is not MULTIPLE:
            previous = table[key]
            same = type(previous) is type(value) and previous == value
            if not same:
                table[key] = MULTIPLE

    def on_entry(
        self, proc: str, formals: Dict[str, Optional[Value]], global_frame: Dict[str, Cell]
    ) -> None:
        self.entry_counts[proc] = self.entry_counts.get(proc, 0) + 1
        for var, value in formals.items():
            if value is not None:
                self._note(self.entry_values, (proc, var), value)
        for var, cell in global_frame.items():
            if cell.initialized:
                self._note(self.entry_values, (proc, var), cell.value)

    def on_call(
        self,
        caller: str,
        site_index: int,
        arg_values: List[Optional[Value]],
        global_frame: Dict[str, Cell],
    ) -> None:
        key = (caller, site_index)
        self.call_counts[key] = self.call_counts.get(key, 0) + 1
        for pos, value in enumerate(arg_values):
            if value is not None:
                self._note(self.call_args, (caller, site_index, pos), value)
        for var, cell in global_frame.items():
            if cell.initialized:
                self._note(self.call_globals, (caller, site_index, var), cell.value)


class Interpreter:
    """Executes a MiniF program from ``main``."""

    def __init__(
        self,
        program: ast.Program,
        max_steps: int = 1_000_000,
        max_depth: int = 200,
        recorder: Optional[Recorder] = None,
    ):
        self._program = program
        self._procs = program.procedure_map()
        self._globals: Dict[str, Cell] = {name: Cell() for name in program.global_names}
        for entry in program.inits:
            self._globals[entry.name].write(entry.value)
        self._max_steps = max_steps
        self._max_depth = max_depth
        self._steps = 0
        self._depth = 0
        self._recorder = recorder
        self.outputs: List[Value] = []

    # ------------------------------------------------------------------

    def run(self, entry: str = "main") -> ExecutionResult:
        """Execute from ``entry`` and return the observable outputs."""
        if entry not in self._procs:
            raise InterpreterError(f"no procedure named {entry!r}")
        try:
            self._invoke(self._procs[entry], [])
        except RecursionError:
            # A call takes a few Python frames per level of nesting in its
            # body, so Python's stack can run out below ``max_depth``.
            raise StepLimitExceeded(
                f"calls nested too deeply for Python's stack "
                f"(call depth limit {self._max_depth})"
            ) from None
        return ExecutionResult(outputs=self.outputs, steps=self._steps)

    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self._max_steps:
            raise StepLimitExceeded(f"exceeded {self._max_steps} steps")

    def _invoke(self, proc: ast.Procedure, arg_cells: List[Cell]) -> Optional[Value]:
        if len(arg_cells) != len(proc.formals):
            raise InterpreterError(
                f"{proc.name!r} called with {len(arg_cells)} argument(s), "
                f"expected {len(proc.formals)}"
            )
        self._depth += 1
        if self._depth > self._max_depth:
            self._depth -= 1
            raise StepLimitExceeded(f"call depth exceeded {self._max_depth}")
        frame: Dict[str, Cell] = dict(zip(proc.formals, arg_cells))
        if self._recorder is not None:
            formal_values = {
                name: (cell.value if cell.initialized else None)
                for name, cell in frame.items()
            }
            self._recorder.on_entry(proc.name, formal_values, self._globals)
        try:
            self._exec_block(proc.body, frame, proc.name)
            return None
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self._depth -= 1

    # ------------------------------------------------------------------

    def _cell(self, name: str, frame: Dict[str, Cell]) -> Cell:
        cell = frame.get(name)
        if cell is not None:
            return cell
        cell = self._globals.get(name)
        if cell is not None:
            return cell
        cell = Cell()
        frame[name] = cell
        return cell

    def _eval(self, expr: ast.Expr, frame: Dict[str, Cell]) -> Value:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.Var):
            value = self._cell(expr.name, frame).read(expr.name)
            if isinstance(value, dict):
                raise InterpreterError(
                    f"array {expr.name!r} used in a scalar context"
                )
            return value
        if isinstance(expr, ast.Index):
            return self._read_element(expr.name, expr.index, frame)
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand, frame)
            return apply_unary(expr.op, operand)
        if isinstance(expr, ast.Binary):
            left = self._eval(expr.left, frame)
            # `and`/`or` short-circuit left-to-right (matching the abstract
            # evaluator's left-operand refinement).
            if expr.op == "and" and not truthy(left):
                return 0
            if expr.op == "or" and truthy(left):
                return 1
            right = self._eval(expr.right, frame)
            try:
                return apply_binary(expr.op, left, right)
            except EvalError as error:
                raise InterpreterError(str(error)) from error
        raise InterpreterError(f"unknown expression node {expr!r}")

    def _exec_block(self, block: ast.Block, frame: Dict[str, Cell], proc: str) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt, frame, proc)

    def _exec_stmt(self, stmt: ast.Stmt, frame: Dict[str, Cell], proc: str) -> None:
        self._tick()
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, frame, proc)
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.expr, frame)
            self._cell(stmt.target, frame).write(value)
        elif isinstance(stmt, ast.AssignIndex):
            self._write_element(stmt.target, stmt.index, stmt.expr, frame)
        elif isinstance(stmt, ast.CallStmt):
            self._exec_call(stmt.callee, stmt.args, frame, proc, stmt)
        elif isinstance(stmt, ast.CallAssign):
            result = self._exec_call(stmt.callee, stmt.args, frame, proc, stmt)
            if result is None:
                raise InterpreterError(
                    f"{stmt.callee!r} returned no value in value position"
                )
            self._cell(stmt.target, frame).write(result)
        elif isinstance(stmt, ast.Print):
            self.outputs.append(self._eval(stmt.expr, frame))
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.expr, frame) if stmt.expr is not None else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.If):
            if truthy(self._eval(stmt.cond, frame)):
                self._exec_block(stmt.then_block, frame, proc)
            elif stmt.else_block is not None:
                self._exec_block(stmt.else_block, frame, proc)
        elif isinstance(stmt, ast.While):
            while True:
                self._tick()
                if not truthy(self._eval(stmt.cond, frame)):
                    break
                self._exec_block(stmt.body, frame, proc)
        else:
            raise InterpreterError(f"unknown statement node {stmt!r}")

    def _eval_index(self, name: str, index_expr: ast.Expr, frame) -> int:
        index = self._eval(index_expr, frame)
        if isinstance(index, float) or isinstance(index, dict):
            raise InterpreterError(
                f"array index for {name!r} must be an integer, got {index!r}"
            )
        return index

    def _read_element(self, name: str, index_expr: ast.Expr, frame) -> Value:
        cell = self._cell(name, frame)
        store = cell.read(name)
        if not isinstance(store, dict):
            raise InterpreterError(f"scalar {name!r} used as an array")
        index = self._eval_index(name, index_expr, frame)
        if index not in store:
            raise InterpreterError(
                f"read of uninitialized element {name}[{index}]"
            )
        return store[index]

    def _write_element(
        self, name: str, index_expr: ast.Expr, value_expr: ast.Expr, frame
    ) -> None:
        index = self._eval_index(name, index_expr, frame)
        value = self._eval(value_expr, frame)
        cell = self._cell(name, frame)
        if not cell.initialized:
            cell.write({})
        if not isinstance(cell.value, dict):
            raise InterpreterError(f"scalar {name!r} used as an array")
        cell.value[index] = value

    def _exec_call(
        self,
        callee: str,
        args: List[ast.Expr],
        frame: Dict[str, Cell],
        caller: str,
        stmt: ast.Stmt,
    ) -> Optional[Value]:
        target = self._procs.get(callee)
        if target is None:
            raise InterpreterError(f"call to missing procedure {callee!r}")
        arg_cells: List[Cell] = []
        for arg in args:
            if isinstance(arg, ast.Var):
                arg_cells.append(self._cell(arg.name, frame))
            else:
                arg_cells.append(Cell(self._eval(arg, frame)))
        if self._recorder is not None:
            site_index = self._site_index(caller, stmt)
            arg_values = [
                cell.value if cell.initialized else None for cell in arg_cells
            ]
            self._recorder.on_call(caller, site_index, arg_values, self._globals)
        return self._invoke(target, arg_cells)

    def _site_index(self, caller: str, stmt: ast.Stmt) -> int:
        cache = getattr(self, "_site_cache", None)
        if cache is None:
            cache = {}
            for proc in self._program.procedures:
                index = 0
                for node in ast.walk_statements(proc.body):
                    if isinstance(node, (ast.CallStmt, ast.CallAssign)):
                        cache[id(node)] = index
                        index += 1
            self._site_cache = cache
        return cache[id(stmt)]


def run_program(
    program: ast.Program,
    max_steps: int = 1_000_000,
    max_depth: int = 200,
    recorder: Optional[Recorder] = None,
) -> ExecutionResult:
    """Execute ``program`` from ``main`` and return its outputs."""
    return Interpreter(
        program, max_steps=max_steps, max_depth=max_depth, recorder=recorder
    ).run()
