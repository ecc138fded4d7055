"""Deterministic single-procedure mutations for incremental workloads.

Feeds the differential test suite and perfbench's edit-session workload:
each mutation clones one procedure, perturbs one or more numeric literals
(and optionally flips an additive operator), and renders the result back to
MiniF source — exactly the shape of edit :meth:`AnalysisSession.update`
accepts.  Mutations are analysis-safe by construction: they never touch
divisors or introduce zeros, so constant folding stays total and the edited
program remains valid without re-checking.
"""

from __future__ import annotations

import random
from typing import List

from repro.lang import ast
from repro.lang.clone import clone_procedure
from repro.lang.pretty import pretty_stmt


def render_procedure(proc: ast.Procedure) -> str:
    """Procedure source text as :meth:`AnalysisSession.update` expects it."""
    header = f"proc {proc.name}({', '.join(proc.formals)})"
    return header + "\n" + pretty_stmt(proc.body)


def _literal_sites(stmt: ast.Stmt) -> List[ast.Expr]:
    """Every literal in ``stmt`` that can be perturbed safely, in pre-order.

    Divisor/modulus operands are excluded so a perturbation can never turn a
    folding division into one by zero elsewhere (we also never *produce*
    zero, but skipping divisors keeps the rule local and obvious).
    """
    sites: List[ast.Expr] = []
    _visit_stmt(stmt, sites)
    return sites


# Module-level, not closures: a self-recursive closure is a reference
# cycle (function -> cell -> function) that only the cyclic collector frees.
def _visit_expr(expr: ast.Expr, sites: List[ast.Expr]) -> None:
    if isinstance(expr, (ast.IntLit, ast.FloatLit)):
        sites.append(expr)
    elif isinstance(expr, ast.Unary):
        _visit_expr(expr.operand, sites)
    elif isinstance(expr, ast.Binary):
        _visit_expr(expr.left, sites)
        if expr.op not in ("/", "%"):
            _visit_expr(expr.right, sites)
    elif isinstance(expr, ast.Index):
        _visit_expr(expr.index, sites)


def _visit_stmt(node: ast.Stmt, sites: List[ast.Expr]) -> None:
    if isinstance(node, ast.Block):
        for child in node.stmts:
            _visit_stmt(child, sites)
    elif isinstance(node, ast.Assign):
        _visit_expr(node.expr, sites)
    elif isinstance(node, ast.AssignIndex):
        _visit_expr(node.index, sites)
        _visit_expr(node.expr, sites)
    elif isinstance(node, (ast.CallStmt, ast.CallAssign)):
        for arg in node.args:
            _visit_expr(arg, sites)
    elif isinstance(node, ast.If):
        _visit_expr(node.cond, sites)
        _visit_stmt(node.then_block, sites)
        if node.else_block is not None:
            _visit_stmt(node.else_block, sites)
    elif isinstance(node, ast.While):
        _visit_expr(node.cond, sites)
        _visit_stmt(node.body, sites)
    elif isinstance(node, (ast.Return, ast.Print)):
        if getattr(node, "expr", None) is not None:
            _visit_expr(node.expr, sites)


def mutate_procedure(proc: ast.Procedure, seed: int) -> ast.Procedure:
    """A perturbed deep copy of ``proc`` (the original is untouched).

    Deterministic in ``(proc, seed)``.  Bumps 1–3 literals; literal-free
    procedures get returned as an unmodified clone (callers treat the
    resulting no-op update as such).
    """
    rng = random.Random(seed)
    clone = clone_procedure(proc)
    sites = _literal_sites(clone.body)
    if not sites:
        return clone
    for site in rng.sample(sites, k=min(len(sites), rng.randint(1, 3))):
        if isinstance(site, ast.IntLit):
            bumped = site.value + rng.choice((1, 2, 3))
            site.value = bumped if bumped != 0 else 1
        else:
            bumped = site.value + rng.choice((0.5, 1.5, 2.5))
            site.value = bumped if bumped != 0.0 else 0.5
    return clone


def mutated_source(proc: ast.Procedure, seed: int) -> str:
    """Source text of a mutated copy of ``proc``."""
    return render_procedure(mutate_procedure(proc, seed))
