"""The validator that walked procedure bodies itself, kept as a test oracle.

This is ``repro.lang.validate`` as it was before validation read the
symbols ``collect_symbols`` produces; only its imports and docstrings
changed.
``tests/lang/test_validate_differential.py`` checks that both accept the
same programs and reject the others with the same error class, message and
position.

Semantic validation of MiniF programs.

Checks performed (each violation raises :class:`ValidationError`):

- global, procedure, and formal parameter names are unique;
- formal parameters do not shadow globals (name spaces stay disjoint, which
  lets every analysis classify a name as global purely by set membership);
- ``init`` block entries name declared globals;
- every call names a known procedure with matching arity (unless
  ``allow_missing`` is set, which models the paper's "missing procedure"
  provision — such calls are later treated maximally conservatively);
- a procedure invoked in value position (``x = f(...)``) contains at least
  one ``return expr;``;
- within a procedure no name is used both with subscripts (``a[i]``) and in
  a scalar context — bare-variable call arguments are exempt (they may pass
  a whole array by reference, exactly as Fortran does);
- if ``require_main`` is set, a zero-argument ``main`` procedure exists.
"""

from __future__ import annotations

from typing import Set

from repro.errors import ValidationError
from repro.lang import ast
from repro.lang.symbols import _collect_one


def validate_program(
    program: ast.Program,
    require_main: bool = True,
    allow_missing: bool = False,
) -> None:
    """Validate ``program``; raise :class:`ValidationError` on the first fault."""
    _check_globals(program)
    proc_names = _check_procedure_names(program)
    _check_inits(program)
    value_callees: Set[str] = set()
    for proc in program.procedures:
        _check_formals(program, proc)
        _check_body(program, proc, proc_names, allow_missing, value_callees)
        _check_usage_consistency(proc)
    _check_value_callees(program, value_callees)
    if require_main:
        _check_main(program)


def _check_usage_consistency(proc: ast.Procedure) -> None:
    symbols = _collect_one(proc, frozenset())
    mixed = symbols.array_names & symbols.scalar_names
    if mixed:
        name = sorted(mixed)[0]
        raise ValidationError(
            f"{name!r} is used both as an array and as a scalar in "
            f"{proc.name!r}",
            proc.pos,
        )


def _check_globals(program: ast.Program) -> None:
    seen: Set[str] = set()
    for name in program.global_names:
        if name in seen:
            raise ValidationError(f"duplicate global declaration: {name!r}")
        seen.add(name)


def _check_procedure_names(program: ast.Program) -> Set[str]:
    names: Set[str] = set()
    for proc in program.procedures:
        if proc.name in names:
            raise ValidationError(f"duplicate procedure: {proc.name!r}", proc.pos)
        if proc.name in program.global_set():
            raise ValidationError(
                f"procedure {proc.name!r} shadows a global variable", proc.pos
            )
        names.add(proc.name)
    return names


def _check_inits(program: ast.Program) -> None:
    global_names = program.global_set()
    for entry in program.inits:
        if entry.name not in global_names:
            raise ValidationError(
                f"init block initializes undeclared global {entry.name!r}", entry.pos
            )


def _check_formals(program: ast.Program, proc: ast.Procedure) -> None:
    seen: Set[str] = set()
    for formal in proc.formals:
        if formal in seen:
            raise ValidationError(
                f"duplicate formal {formal!r} in procedure {proc.name!r}", proc.pos
            )
        if formal in program.global_set():
            raise ValidationError(
                f"formal {formal!r} of {proc.name!r} shadows a global", proc.pos
            )
        seen.add(formal)


def _check_body(
    program: ast.Program,
    proc: ast.Procedure,
    proc_names: Set[str],
    allow_missing: bool,
    value_callees: Set[str],
) -> None:
    for stmt in ast.walk_statements(proc.body):
        if isinstance(stmt, (ast.CallStmt, ast.CallAssign)):
            _check_call(program, proc, stmt, proc_names, allow_missing)
            if isinstance(stmt, ast.CallAssign) and stmt.callee in proc_names:
                value_callees.add(stmt.callee)


def _check_call(
    program: ast.Program,
    proc: ast.Procedure,
    stmt: ast.Stmt,
    proc_names: Set[str],
    allow_missing: bool,
) -> None:
    callee = stmt.callee  # type: ignore[union-attr]
    args = stmt.args  # type: ignore[union-attr]
    if callee not in proc_names:
        if allow_missing:
            return
        raise ValidationError(
            f"call to unknown procedure {callee!r} in {proc.name!r}", stmt.pos
        )
    target = program.procedure(callee)
    if len(args) != len(target.formals):
        raise ValidationError(
            f"call to {callee!r} in {proc.name!r} passes {len(args)} argument(s); "
            f"{callee!r} declares {len(target.formals)} formal(s)",
            stmt.pos,
        )


def _check_value_callees(program: ast.Program, value_callees: Set[str]) -> None:
    for name in sorted(value_callees):
        proc = program.procedure(name)
        has_value_return = any(
            isinstance(stmt, ast.Return) and stmt.expr is not None
            for stmt in ast.walk_statements(proc.body)
        )
        if not has_value_return:
            raise ValidationError(
                f"procedure {name!r} is used in value position but never "
                "returns a value",
                proc.pos,
            )


def _check_main(program: ast.Program) -> None:
    try:
        main = program.procedure("main")
    except KeyError:
        raise ValidationError("program has no 'main' procedure") from None
    if main.formals:
        raise ValidationError("'main' must take no parameters", main.pos)
