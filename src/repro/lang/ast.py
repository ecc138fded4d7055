"""Abstract syntax tree for MiniF.

Nodes are plain dataclasses.  Source positions are carried for diagnostics but
excluded from equality so that structural comparisons (e.g. the pretty-print /
re-parse round-trip property) ignore them.

Expression nodes are side-effect free by construction: procedure calls appear
only in the statement forms :class:`CallStmt` and :class:`CallAssign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Union

from repro.errors import SourcePos

#: Concrete scalar values manipulated by MiniF programs.
Value = Union[int, float]


def _pos_field() -> Optional[SourcePos]:
    return None


# ----------------------------------------------------------------------
# Operators.
# ----------------------------------------------------------------------

#: MiniF's operators, one precedence level per string, loosest first.
#: ``not`` is a prefix operator whose operand may be a comparison; the
#: others are binary and left-associative, except that comparisons do not
#: chain (``a < b < c`` is an error).
_LEVELS = ("or", "and", "not", "== != < <= > >=", "+ -", "* / %")

#: Operator spelling -> precedence, 1 the loosest; the parser and the
#: printer both read it.
PRECEDENCE: Dict[str, int] = {
    op: level for level, ops in enumerate(_LEVELS, 1) for op in ops.split()
}

#: The comparisons' shared level.
COMPARISON_PRECEDENCE = PRECEDENCE["=="]

#: Prefix ``-`` binds tighter than every operator in the table.
NEGATION_PRECEDENCE = max(PRECEDENCE.values()) + 1


# ----------------------------------------------------------------------
# Expressions.
# ----------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expression nodes."""


@dataclass
class IntLit(Expr):
    """An integer literal."""

    value: int
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class FloatLit(Expr):
    """A floating-point literal."""

    value: float
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Var(Expr):
    """A reference to a local, formal, or global variable."""

    name: str
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Unary(Expr):
    """A unary operation; ``op`` is ``-`` or ``not``."""

    op: str
    operand: Expr
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Binary(Expr):
    """A binary operation over arithmetic, comparison, or logical operators."""

    op: str
    left: Expr
    right: Expr
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Index(Expr):
    """An array element read, ``name[index]``.

    Arrays are the paper's acknowledged blind spot ("We only propagate
    scalar variables"): every analysis treats an element read as BOTTOM and
    an element store as a may-definition of the whole array.
    """

    name: str
    index: Expr
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


# ----------------------------------------------------------------------
# Statements.
# ----------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statement nodes."""


@dataclass
class Block(Stmt):
    """A ``{ ... }`` sequence of statements."""

    stmts: List[Stmt]
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Assign(Stmt):
    """``target = expr;`` — the expression contains no calls."""

    target: str
    expr: Expr
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class AssignIndex(Stmt):
    """``target[index] = expr;`` — an array element store."""

    target: str
    index: Expr
    expr: Expr
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class CallStmt(Stmt):
    """``call p(args);`` — a procedure call for its effects."""

    callee: str
    args: List[Expr]
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class CallAssign(Stmt):
    """``target = f(args);`` — a call whose return value is captured."""

    target: str
    callee: str
    args: List[Expr]
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class If(Stmt):
    """``if (cond) then_block [else else_block]``."""

    cond: Expr
    then_block: Block
    else_block: Optional[Block] = None
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class While(Stmt):
    """``while (cond) body``."""

    cond: Expr
    body: Block
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Return(Stmt):
    """``return [expr];``."""

    expr: Optional[Expr] = None
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Print(Stmt):
    """``print(expr);`` — the observable output of a program."""

    expr: Expr
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


# ----------------------------------------------------------------------
# Top-level declarations.
# ----------------------------------------------------------------------


@dataclass
class GlobalInit:
    """One ``g = literal;`` entry of an ``init`` block (Fortran BLOCK DATA)."""

    name: str
    value: Value
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Procedure:
    """A procedure declaration with by-reference formal parameters."""

    name: str
    formals: List[str]
    body: Block
    pos: Optional[SourcePos] = field(default_factory=_pos_field, compare=False)


@dataclass
class Program:
    """A whole MiniF program.

    ``global_names`` preserves declaration order; ``inits`` preserves the
    order of ``init`` block entries (later entries win, as in the validator).
    """

    global_names: List[str]
    inits: List[GlobalInit]
    procedures: List[Procedure]

    def procedure(self, name: str) -> Procedure:
        """Return the procedure named ``name`` (raises ``KeyError`` if absent)."""
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(name)

    def procedure_map(self) -> Dict[str, Procedure]:
        """Return a name -> procedure mapping."""
        return {proc.name: proc for proc in self.procedures}

    def global_set(self) -> Set[str]:
        """Return the set of declared global variable names."""
        return set(self.global_names)

    def initial_globals(self) -> Dict[str, Value]:
        """Return the effective initial constant for each initialized global."""
        values: Dict[str, Value] = {}
        for entry in self.inits:
            values[entry.name] = entry.value
        return values


# ----------------------------------------------------------------------
# Traversal helpers.
# ----------------------------------------------------------------------


def walk_statements(stmt: Stmt) -> Iterator[Stmt]:
    """Yield ``stmt`` and every statement nested inside it, pre-order."""
    yield stmt
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from walk_statements(child)
    elif isinstance(stmt, If):
        yield from walk_statements(stmt.then_block)
        if stmt.else_block is not None:
            yield from walk_statements(stmt.else_block)
    elif isinstance(stmt, While):
        yield from walk_statements(stmt.body)


def walk_expressions(stmt: Stmt) -> Iterator[Expr]:
    """Yield every expression appearing directly in ``stmt`` (not nested stmts)."""
    if isinstance(stmt, Assign):
        yield stmt.expr
    elif isinstance(stmt, AssignIndex):
        yield stmt.index
        yield stmt.expr
    elif isinstance(stmt, (CallStmt, CallAssign)):
        yield from stmt.args
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
    elif isinstance(stmt, Return):
        if stmt.expr is not None:
            yield stmt.expr
    elif isinstance(stmt, Print):
        yield stmt.expr


def expr_variables(expr: Expr) -> Set[str]:
    """Return the set of variable names read by ``expr``."""
    names: Set[str] = set()
    _collect_variables(expr, names)
    return names


def _collect_variables(expr: Expr, names: Set[str]) -> None:
    if isinstance(expr, Var):
        names.add(expr.name)
    elif isinstance(expr, Unary):
        _collect_variables(expr.operand, names)
    elif isinstance(expr, Binary):
        _collect_variables(expr.left, names)
        _collect_variables(expr.right, names)
    elif isinstance(expr, Index):
        names.add(expr.name)
        _collect_variables(expr.index, names)


def literal_value(expr: Expr) -> Optional[Value]:
    """Return the constant value of a (possibly sign-wrapped) literal, else None.

    Recognizes ``IntLit``, ``FloatLit``, and a unary minus applied to either,
    which is how negative immediate arguments appear in source.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, FloatLit):
        return expr.value
    if isinstance(expr, Unary) and expr.op == "-":
        inner = literal_value(expr.operand)
        if inner is not None:
            return -inner
    return None
