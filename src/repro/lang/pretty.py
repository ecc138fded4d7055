"""Pretty-printer (unparser) for MiniF ASTs.

``parse_program(pretty_program(ast))`` reproduces an equal AST (positions are
excluded from AST equality), which is asserted by a property test.  The
printer inserts parentheses exactly where precedence requires them.
"""

from __future__ import annotations

from typing import List

from repro.lang import ast


def _float_repr(value: float) -> str:
    """Render a float so it re-lexes as a FLOAT token (always has '.' or 'e')."""
    text = repr(value)
    if "." in text or "e" in text or "E" in text:
        if text.startswith("-"):
            return text
        return text
    return text + ".0"


def pretty_expr(expr: ast.Expr) -> str:
    """Render an expression with minimal parentheses."""
    return _expr(expr, 0)


def _expr(expr: ast.Expr, parent_prec: int) -> str:
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.FloatLit):
        return _float_repr(expr.value)
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Index):
        return f"{expr.name}[{_expr(expr.index, 0)}]"
    if isinstance(expr, ast.Unary):
        if expr.op == "not":
            prec = ast.PRECEDENCE["not"]
            text = f"not {_expr(expr.operand, prec)}"
        else:
            prec = ast.NEGATION_PRECEDENCE
            text = f"-{_expr(expr.operand, prec)}"
        if prec < parent_prec:
            return f"({text})"
        return text
    if isinstance(expr, ast.Binary):
        prec = ast.PRECEDENCE[expr.op]
        # Right operand of a same-precedence left-associative operator, and
        # any comparison operand, needs parens to survive a round-trip.
        if prec == ast.COMPARISON_PRECEDENCE:
            left = _expr(expr.left, prec + 1)
        else:
            left = _expr(expr.left, prec)
        right = _expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node: {expr!r}")


def pretty_stmt(stmt: ast.Stmt, indent: int = 0) -> str:
    """Render a statement (with trailing newline) at the given indent level."""
    lines: List[str] = []
    _stmt(stmt, indent, lines)
    return "".join(line + "\n" for line in lines)


def _stmt(stmt: ast.Stmt, indent: int, lines: List[str]) -> None:
    pad = "    " * indent
    if isinstance(stmt, ast.Block):
        lines.append(pad + "{")
        for child in stmt.stmts:
            _stmt(child, indent + 1, lines)
        lines.append(pad + "}")
    elif isinstance(stmt, ast.Assign):
        lines.append(f"{pad}{stmt.target} = {pretty_expr(stmt.expr)};")
    elif isinstance(stmt, ast.AssignIndex):
        lines.append(
            f"{pad}{stmt.target}[{pretty_expr(stmt.index)}] = "
            f"{pretty_expr(stmt.expr)};"
        )
    elif isinstance(stmt, ast.CallStmt):
        args = ", ".join(pretty_expr(arg) for arg in stmt.args)
        lines.append(f"{pad}call {stmt.callee}({args});")
    elif isinstance(stmt, ast.CallAssign):
        args = ", ".join(pretty_expr(arg) for arg in stmt.args)
        lines.append(f"{pad}{stmt.target} = {stmt.callee}({args});")
    elif isinstance(stmt, ast.If):
        lines.append(f"{pad}if ({pretty_expr(stmt.cond)})")
        _stmt(stmt.then_block, indent, lines)
        if stmt.else_block is not None:
            lines.append(pad + "else")
            _stmt(stmt.else_block, indent, lines)
    elif isinstance(stmt, ast.While):
        lines.append(f"{pad}while ({pretty_expr(stmt.cond)})")
        _stmt(stmt.body, indent, lines)
    elif isinstance(stmt, ast.Return):
        if stmt.expr is None:
            lines.append(pad + "return;")
        else:
            lines.append(f"{pad}return {pretty_expr(stmt.expr)};")
    elif isinstance(stmt, ast.Print):
        lines.append(f"{pad}print({pretty_expr(stmt.expr)});")
    else:
        raise TypeError(f"unknown statement node: {stmt!r}")


def pretty_program(program: ast.Program) -> str:
    """Render a complete program as re-parseable MiniF source."""
    parts: List[str] = []
    if program.global_names:
        parts.append("global " + ", ".join(program.global_names) + ";")
    if program.inits:
        parts.append("init {")
        for entry in program.inits:
            if isinstance(entry.value, float):
                parts.append(f"    {entry.name} = {_float_repr(entry.value)};")
            else:
                parts.append(f"    {entry.name} = {entry.value};")
        parts.append("}")
    for proc in program.procedures:
        formals = ", ".join(proc.formals)
        parts.append("")
        parts.append(f"proc {proc.name}({formals})")
        parts.append(pretty_stmt(proc.body).rstrip("\n"))
    return "\n".join(parts) + "\n"
