"""Seeded random MiniF program generator.

Produces *closed* (no inputs) programs whose control flow is bounded:

- the call graph is a DAG by construction (procedure ``i`` only calls
  procedures with larger indices), unless ``allow_recursion`` appends a
  guarded counter-recursion pair;
- every ``while`` loop is a dedicated bounded counter that the loop body is
  forbidden to touch;
- every variable is provably initialized before use (conditional arms only
  promote variables assigned in *both* arms);
- division and remainder only occur with non-zero literal divisors.

Two things are *not* guaranteed:

- **Running cleanly, or quickly.** Arithmetic is unconstrained, so a
  program can overflow a float (the interpreter raises "floating-point
  overflow") or an integer, and nested bounded loops times call fan-out
  can run for more steps than a caller's budget.  With
  ``GeneratorConfig(n_procs=10)`` and ``PYTHONHASHSEED=0``, 3 of seeds
  0–59 raise floating-point overflow and 5 exceed 200 000 interpreter
  steps.  Oracles that execute generated programs must treat a runtime
  error or a step-limit hit as "no observation", not as a failure.
- **The same program for a seed in every process.** Generation iterates
  sets of names, so the text for a given seed depends on
  ``PYTHONHASHSEED``.  Fix it when a corpus must be reproducible across
  processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.lang import ast


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape parameters for random program generation."""

    n_procs: int = 5
    n_globals: int = 3
    n_init_globals: int = 2
    max_formals: int = 4
    max_stmts: int = 7
    max_block_depth: int = 2
    max_expr_depth: int = 3
    p_if: float = 0.20
    p_while: float = 0.10
    p_call: float = 0.30
    p_print: float = 0.15
    p_global_target: float = 0.25
    p_float: float = 0.20
    p_literal_arg: float = 0.45
    p_bare_var_arg: float = 0.35
    p_array_block: float = 0.08
    allow_value_calls: bool = True
    allow_recursion: bool = False


_INT_POOL = (-7, -2, -1, 0, 1, 2, 3, 4, 5, 8, 10, 100)
_FLOAT_POOL = (-2.5, -1.0, 0.0, 0.5, 1.0, 1.5, 2.5, 4.0)
_ARITH_OPS = ("+", "-", "*")
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


class _Names:
    """Distinct, collision-free name spaces."""

    @staticmethod
    def proc(index: int) -> str:
        return "main" if index == 0 else f"p{index}"

    @staticmethod
    def formal(index: int) -> str:
        return f"f{index}"

    @staticmethod
    def local(index: int) -> str:
        return f"v{index}"

    @staticmethod
    def glob(index: int) -> str:
        return f"g{index}"


@dataclass
class _ProcPlan:
    index: int
    name: str
    formals: List[str]
    is_function: bool  # may be used in value position (has `return expr`)


@dataclass
class _Ctx:
    """Generation context inside one procedure."""

    initialized: Set[str]
    protected: Set[str] = field(default_factory=set)  # loop counters
    local_counter: List[int] = field(default_factory=lambda: [0])

    def fresh_local(self) -> str:
        self.local_counter[0] += 1
        return _Names.local(self.local_counter[0])

    def snapshot(self) -> "_Ctx":
        return _Ctx(
            initialized=set(self.initialized),
            protected=set(self.protected),
            local_counter=self.local_counter,  # shared on purpose
        )


class _Generator:
    def __init__(self, rng: random.Random, config: GeneratorConfig):
        self._rng = rng
        self._config = config
        self._globals = [_Names.glob(i + 1) for i in range(config.n_globals)]
        self._init_globals = self._globals[: config.n_init_globals]
        self._plans: List[_ProcPlan] = []

    # ------------------------------------------------------------------

    def generate(self) -> ast.Program:
        rng = self._rng
        config = self._config
        for index in range(config.n_procs):
            n_formals = 0 if index == 0 else rng.randint(0, config.max_formals)
            is_function = (
                config.allow_value_calls and index > 0 and rng.random() < 0.4
            )
            self._plans.append(
                _ProcPlan(
                    index=index,
                    name=_Names.proc(index),
                    formals=[_Names.formal(i + 1) for i in range(n_formals)],
                    is_function=is_function,
                )
            )

        inits = [
            ast.GlobalInit(name, self._literal_value())
            for name in self._init_globals
        ]
        procedures = [self._gen_procedure(plan) for plan in self._plans]
        if config.allow_recursion:
            procedures.extend(self._recursive_pair())
            call = ast.CallStmt("rec_a", [ast.IntLit(rng.randint(2, 6)), ast.IntLit(3)])
            procedures[0].body.stmts.append(call)
        return ast.Program(list(self._globals), inits, procedures)

    # ------------------------------------------------------------------

    def _literal_value(self) -> ast.Value:
        if self._rng.random() < self._config.p_float:
            return self._rng.choice(_FLOAT_POOL)
        return self._rng.choice(_INT_POOL)

    def _literal_expr(self) -> ast.Expr:
        value = self._literal_value()
        if isinstance(value, float):
            if value < 0:
                return ast.Unary("-", ast.FloatLit(-value))
            return ast.FloatLit(value)
        if value < 0:
            return ast.Unary("-", ast.IntLit(-value))
        return ast.IntLit(value)

    def _gen_procedure(self, plan: _ProcPlan) -> ast.Procedure:
        ctx = _Ctx(initialized=set(plan.formals) | set(self._init_globals))
        stmts = self._gen_stmts(plan, ctx, depth=0)
        if plan.index == 0:
            # main always observes something, so output comparison is useful.
            expr = self._gen_expr(ctx, 1) if ctx.initialized else ast.IntLit(0)
            stmts.append(ast.Print(expr))
        if plan.is_function:
            stmts.append(ast.Return(self._gen_expr(ctx, 2)))
        return ast.Procedure(plan.name, list(plan.formals), ast.Block(stmts))

    def _gen_stmts(self, plan: _ProcPlan, ctx: _Ctx, depth: int) -> List[ast.Stmt]:
        rng = self._rng
        config = self._config
        count = rng.randint(1, config.max_stmts)
        stmts: List[ast.Stmt] = []
        for _ in range(count):
            roll = rng.random()
            if roll < config.p_if and depth < config.max_block_depth:
                stmts.append(self._gen_if(plan, ctx, depth))
            elif roll < config.p_if + config.p_while and depth < config.max_block_depth:
                stmts.extend(self._gen_while(plan, ctx, depth))
            elif roll < config.p_if + config.p_while + config.p_call:
                call = self._gen_call(plan, ctx)
                if call is not None:
                    stmts.append(call)
                else:
                    stmts.append(self._gen_assign(ctx))
            elif (
                roll < config.p_if + config.p_while + config.p_call + config.p_print
                and ctx.initialized
            ):
                stmts.append(ast.Print(self._gen_expr(ctx, config.max_expr_depth)))
            elif (
                roll
                < config.p_if
                + config.p_while
                + config.p_call
                + config.p_print
                + config.p_array_block
            ):
                stmts.extend(self._gen_array_block(plan, ctx))
            else:
                stmts.append(self._gen_assign(ctx))
        return stmts

    def _gen_array_block(self, plan: _ProcPlan, ctx: _Ctx) -> List[ast.Stmt]:
        """A paired store/load on a per-procedure array (def-before-use)."""
        array = f"r{plan.index}"
        index = self._rng.randint(0, 4)
        store = ast.AssignIndex(
            array, ast.IntLit(index), self._gen_expr(ctx, 2)
        )
        local = ctx.fresh_local()
        load = ast.Assign(local, ast.Index(array, ast.IntLit(index)))
        ctx.initialized.add(local)
        return [store, load]

    def _gen_assign(self, ctx: _Ctx) -> ast.Assign:
        target = self._pick_target(ctx)
        expr = self._gen_expr(ctx, self._config.max_expr_depth)
        ctx.initialized.add(target)
        return ast.Assign(target, expr)

    def _pick_target(self, ctx: _Ctx) -> str:
        rng = self._rng
        candidates: List[str] = []
        if rng.random() < self._config.p_global_target:
            candidates = [g for g in self._globals if g not in ctx.protected]
        if not candidates:
            reusable = [
                v
                for v in ctx.initialized
                if v.startswith("v") and v not in ctx.protected
            ]
            if reusable and rng.random() < 0.5:
                candidates = reusable
            else:
                candidates = [ctx.fresh_local()]
        return rng.choice(candidates)

    def _gen_if(self, plan: _ProcPlan, ctx: _Ctx, depth: int) -> ast.If:
        cond = self._gen_cond(ctx)
        then_ctx = ctx.snapshot()
        else_ctx = ctx.snapshot()
        then_block = ast.Block(self._gen_stmts(plan, then_ctx, depth + 1))
        has_else = self._rng.random() < 0.6
        else_block: Optional[ast.Block] = None
        if has_else:
            else_block = ast.Block(self._gen_stmts(plan, else_ctx, depth + 1))
            ctx.initialized |= then_ctx.initialized & else_ctx.initialized
        # Without an else, only pre-existing facts survive.
        return ast.If(cond, then_block, else_block)

    def _gen_while(self, plan: _ProcPlan, ctx: _Ctx, depth: int) -> List[ast.Stmt]:
        counter = ctx.fresh_local()
        bound = self._rng.randint(1, 3)
        ctx.initialized.add(counter)
        ctx.protected.add(counter)
        body_ctx = ctx.snapshot()
        body = self._gen_stmts(plan, body_ctx, depth + 1)
        body.append(ast.Assign(counter, ast.Binary("-", ast.Var(counter), ast.IntLit(1))))
        ctx.protected.discard(counter)
        loop = ast.While(ast.Binary(">", ast.Var(counter), ast.IntLit(0)), ast.Block(body))
        return [ast.Assign(counter, ast.IntLit(bound)), loop]

    def _gen_call(self, plan: _ProcPlan, ctx: _Ctx) -> Optional[ast.Stmt]:
        rng = self._rng
        callees = [p for p in self._plans if p.index > plan.index]
        if not callees:
            return None
        callee = rng.choice(callees)
        args: List[ast.Expr] = []
        for _ in callee.formals:
            roll = rng.random()
            if roll < self._config.p_literal_arg or not ctx.initialized:
                args.append(self._literal_expr())
            elif roll < self._config.p_literal_arg + self._config.p_bare_var_arg:
                # Loop counters must never escape by reference: a callee
                # store through the formal would break loop termination.
                passable = sorted(ctx.initialized - ctx.protected)
                if passable:
                    args.append(ast.Var(rng.choice(passable)))
                else:
                    args.append(self._literal_expr())
            else:
                args.append(self._gen_expr(ctx, 2))
        if callee.is_function and rng.random() < 0.5:
            target = self._pick_target(ctx)
            ctx.initialized.add(target)
            return ast.CallAssign(target, callee.name, args)
        return ast.CallStmt(callee.name, args)

    def _gen_cond(self, ctx: _Ctx) -> ast.Expr:
        left = self._gen_expr(ctx, 2)
        right = self._gen_expr(ctx, 1)
        comparison = ast.Binary(self._rng.choice(_CMP_OPS), left, right)
        roll = self._rng.random()
        if roll < 0.12:
            other = ast.Binary(
                self._rng.choice(_CMP_OPS),
                self._gen_expr(ctx, 1),
                self._gen_expr(ctx, 1),
            )
            op = self._rng.choice(("and", "or"))
            return ast.Binary(op, comparison, other)
        if roll < 0.18:
            return ast.Unary("not", comparison)
        return comparison

    def _gen_expr(self, ctx: _Ctx, depth: int) -> ast.Expr:
        rng = self._rng
        if depth <= 0 or rng.random() < 0.4:
            if ctx.initialized and rng.random() < 0.6:
                return ast.Var(rng.choice(sorted(ctx.initialized)))
            return self._literal_expr()
        roll = rng.random()
        if roll < 0.75:
            op = rng.choice(_ARITH_OPS)
            return ast.Binary(
                op, self._gen_expr(ctx, depth - 1), self._gen_expr(ctx, depth - 1)
            )
        if roll < 0.85:
            # A non-zero literal divisor rules out division by zero.
            divisor = rng.choice([2, 3, 4, 5, 2.0])
            op = rng.choice(["/", "%"]) if isinstance(divisor, int) else "/"
            divisor_expr = (
                ast.IntLit(divisor) if isinstance(divisor, int) else ast.FloatLit(divisor)
            )
            return ast.Binary(op, self._gen_expr(ctx, depth - 1), divisor_expr)
        if roll < 0.93:
            return ast.Unary("-", self._gen_expr(ctx, depth - 1))
        return self._gen_cond(ctx)

    def _recursive_pair(self) -> List[ast.Procedure]:
        """A guaranteed-terminating mutually recursive pair (adds PCG cycle)."""
        body_a = ast.Block(
            [
                ast.If(
                    ast.Binary(">", ast.Var("n"), ast.IntLit(0)),
                    ast.Block(
                        [
                            ast.CallStmt(
                                "rec_b",
                                [
                                    ast.Binary("-", ast.Var("n"), ast.IntLit(1)),
                                    ast.Var("k"),
                                ],
                            )
                        ]
                    ),
                    ast.Block([ast.Print(ast.Var("k"))]),
                )
            ]
        )
        body_b = ast.Block(
            [
                ast.If(
                    ast.Binary(">", ast.Var("n"), ast.IntLit(0)),
                    ast.Block(
                        [
                            ast.CallStmt(
                                "rec_a",
                                [
                                    ast.Binary("-", ast.Var("n"), ast.IntLit(1)),
                                    ast.Var("k"),
                                ],
                            )
                        ]
                    ),
                    ast.Block([ast.Print(ast.Binary("+", ast.Var("k"), ast.IntLit(1)))]),
                )
            ]
        )
        return [
            ast.Procedure("rec_a", ["n", "k"], body_a),
            ast.Procedure("rec_b", ["n", "k"], body_b),
        ]


def generate_program(
    seed: int, config: Optional[GeneratorConfig] = None
) -> ast.Program:
    """Generate a deterministic random program from ``seed``."""
    rng = random.Random(seed)
    return _Generator(rng, config or GeneratorConfig()).generate()
