"""Semantic validation of MiniF programs.

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

The per-procedure checks read the procedure's
:class:`~repro.lang.symbols.ProcedureSymbols` (call sites in pre-order,
``has_value_return``, array and scalar names), so validation never walks a
procedure body itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.collector import collector_paused
from repro.errors import ValidationError
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols, collect_symbols


@collector_paused
def validate_program(
    program: ast.Program,
    require_main: bool = True,
    allow_missing: bool = False,
    symbols: Optional[Dict[str, ProcedureSymbols]] = None,
) -> None:
    """Validate ``program``; raise :class:`ValidationError` on the first fault.

    ``symbols`` is ``collect_symbols(program)`` when the caller already
    has it; otherwise it is collected here.
    """
    if symbols is None:
        symbols = collect_symbols(program)
    global_names = program.global_set()
    _check_globals(program)
    arity = _check_procedure_names(program, global_names)
    _check_inits(program, global_names)
    value_callees: Set[str] = set()
    for proc in program.procedures:
        proc_symbols = symbols[proc.name]
        _check_formals(proc, global_names)
        _check_calls(proc_symbols, arity, allow_missing, value_callees)
        _check_usage_consistency(proc, proc_symbols)
    _check_value_callees(program, symbols, value_callees)
    if require_main:
        _check_main(program)


def _check_globals(program: ast.Program) -> None:
    seen: Set[str] = set()
    for name in program.global_names:
        if name in seen:
            raise ValidationError(f"duplicate global declaration: {name!r}")
        seen.add(name)


def _check_procedure_names(
    program: ast.Program, global_names: Set[str]
) -> Dict[str, int]:
    """Check procedure names; return each procedure's formal count."""
    arity: Dict[str, int] = {}
    for proc in program.procedures:
        if proc.name in arity:
            raise ValidationError(f"duplicate procedure: {proc.name!r}", proc.pos)
        if proc.name in global_names:
            raise ValidationError(
                f"procedure {proc.name!r} shadows a global variable", proc.pos
            )
        arity[proc.name] = len(proc.formals)
    return arity


def _check_inits(program: ast.Program, global_names: Set[str]) -> None:
    for entry in program.inits:
        if entry.name not in global_names:
            raise ValidationError(
                f"init block initializes undeclared global {entry.name!r}", entry.pos
            )


def _check_formals(proc: ast.Procedure, global_names: Set[str]) -> None:
    seen: Set[str] = set()
    for formal in proc.formals:
        if formal in seen:
            raise ValidationError(
                f"duplicate formal {formal!r} in procedure {proc.name!r}", proc.pos
            )
        if formal in global_names:
            raise ValidationError(
                f"formal {formal!r} of {proc.name!r} shadows a global", proc.pos
            )
        seen.add(formal)


def _check_calls(
    symbols: ProcedureSymbols,
    arity: Dict[str, int],
    allow_missing: bool,
    value_callees: Set[str],
) -> None:
    for site in symbols.call_sites:
        callee = site.callee
        formals = arity.get(callee)
        if formals is None:
            if allow_missing:
                continue
            raise ValidationError(
                f"call to unknown procedure {callee!r} in {symbols.name!r}",
                site.stmt.pos,
            )
        if len(site.args) != formals:
            raise ValidationError(
                f"call to {callee!r} in {symbols.name!r} passes "
                f"{len(site.args)} argument(s); {callee!r} declares "
                f"{formals} formal(s)",
                site.stmt.pos,
            )
        if site.is_value_call:
            value_callees.add(callee)


def _check_usage_consistency(
    proc: ast.Procedure, symbols: ProcedureSymbols
) -> None:
    mixed = symbols.array_names & symbols.scalar_names
    if mixed:
        name = sorted(mixed)[0]
        raise ValidationError(
            f"{name!r} is used both as an array and as a scalar in "
            f"{proc.name!r}",
            proc.pos,
        )


def _check_value_callees(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    value_callees: Set[str],
) -> None:
    for name in sorted(value_callees):
        if not symbols[name].has_value_return:
            raise ValidationError(
                f"procedure {name!r} is used in value position but never "
                "returns a value",
                program.procedure(name).pos,
            )


def _check_main(program: ast.Program) -> None:
    try:
        main = program.procedure("main")
    except KeyError:
        raise ValidationError("program has no 'main' procedure") from None
    if main.formals:
        raise ValidationError("'main' must take no parameters", main.pos)
