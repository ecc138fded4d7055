"""Wegman–Zadeck Sparse Conditional Constant propagation (TOPLAS 13(2), 1991).

This is the paper's default intraprocedural method (Section 3): an optimistic
SSA-based propagator that simultaneously discovers constants and unreachable
code.  Two worklists are maintained:

- a *flow* worklist of CFG edges whose executability was just established, and
- an *SSA* worklist of names whose lattice value just lowered.

Phi functions meet only over executable incoming edges; conditional branches
with a constant condition enable only the taken edge, so code that is dead
under the (interprocedurally supplied) entry constants contributes nothing —
this is exactly the mechanism that finds ``f2`` in the paper's Figure 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.analysis.base import (
    CallEffects,
    CallSiteValues,
    IntraEngine,
    IntraResult,
    entry_value,
    site_key,
)
from repro.ir.builder import CFGBuildResult, build_cfg
from repro.ir.cfg import ArrayStoreInstr, AssignInstr, Branch, CallInstr, Jump, Ret
from repro.ir.eval import evaluate_expr
from repro.ir.lattice import BOTTOM, TOP, LatticeValue, meet, meet_all
from repro.ir.ssa import PhiNode, SSAFunction, SSAName, build_ssa
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols

Edge = Tuple[Optional[int], int]  # (pred block id or None for entry, succ id)


@dataclass
class SCCDetail:
    """Engine internals exposed for the transformation pass and tests."""

    build: CFGBuildResult
    ssa: SSAFunction
    values: Dict[SSAName, LatticeValue]
    reached_blocks: Set[int]
    executable_edges: Set[Edge]
    #: Worklist visit counters of the solver run (flow edges processed,
    #: SSA names revisited, ...) — consumed by the observability layer.
    visits: Dict[str, int] = field(default_factory=dict)

    def value_of(self, name: SSAName) -> LatticeValue:
        return self.values.get(name, TOP)

    @property
    def ssa_size(self) -> int:
        """Number of SSA names the solver assigned a lattice cell."""
        return len(self.values)


class SCCEngine(IntraEngine):
    """The Sparse Conditional Constant engine."""

    name = "scc"

    def __init__(self, optimistic_uninitialized: bool = False):
        self._optimistic_uninitialized = optimistic_uninitialized

    def analyze(
        self,
        proc: ast.Procedure,
        symbols: ProcedureSymbols,
        entry_env: Dict[str, LatticeValue],
        effects: CallEffects,
        record_exit_vars: Optional[Set[str]] = None,
    ) -> IntraResult:
        build = build_cfg(proc, symbols)
        cfg = build.cfg
        record_globals: Set[str] = set()
        for instr in cfg.call_instrs():
            record_globals.update(effects.recorded_globals(instr.site))
        ssa = build_ssa(
            cfg,
            call_defs=lambda instr: effects.modified_vars(instr.site),
            record_globals=record_globals,
            assign_extra_defs=lambda target: effects.assign_extra_defs(
                proc.name, target
            ),
            record_at_returns=record_exit_vars,
        )
        solver = _Solver(
            ssa, symbols, entry_env, effects, self._optimistic_uninitialized
        )
        solver.run()
        detail = SCCDetail(
            build=build,
            ssa=ssa,
            values=solver.values,
            reached_blocks=solver.reached_blocks,
            executable_edges=solver.executable_edges,
            visits={
                "flow_edges": solver.flow_edge_visits,
                "ssa_names": solver.ssa_name_visits,
                "blocks_reached": len(solver.reached_blocks),
                "lattice_cells": len(solver.values),
            },
        )
        exit_values = None
        if record_exit_vars is not None:
            exit_values = solver.exit_values(record_exit_vars)
        return IntraResult(
            proc_name=proc.name,
            engine=self.name,
            call_sites=solver.collect_call_sites(),
            return_value=solver.return_value(),
            detail=detail,
            exit_values=exit_values,
        )


class _Solver:
    def __init__(
        self,
        ssa: SSAFunction,
        symbols: ProcedureSymbols,
        entry_env: Dict[str, LatticeValue],
        effects: CallEffects,
        optimistic_uninitialized: bool,
    ):
        self._ssa = ssa
        self._cfg = ssa.cfg
        self._effects = effects
        self.values: Dict[SSAName, LatticeValue] = {
            name: entry_value(entry_env, symbols, var, optimistic_uninitialized)
            for var, name in ssa.entry_defs.items()
        }
        self.executable_edges: Set[Edge] = set()
        self.reached_blocks: Set[int] = set()
        self.flow_edge_visits = 0
        self.ssa_name_visits = 0
        self._flow: Deque[Edge] = deque()
        self._ssa_work: Deque[SSAName] = deque()

    # ------------------------------------------------------------------

    def run(self) -> None:
        self._flow.append((None, self._cfg.entry_id))
        while self._flow or self._ssa_work:
            while self._flow:
                self._process_flow_edge(self._flow.popleft())
            while self._ssa_work:
                self._process_ssa_name(self._ssa_work.popleft())

    def _process_flow_edge(self, edge: Edge) -> None:
        self.flow_edge_visits += 1
        if edge in self.executable_edges:
            return
        self.executable_edges.add(edge)
        dest = edge[1]
        for phi in self._ssa.phis.get(dest, ()):
            self._visit_phi(phi)
        if dest in self.reached_blocks:
            return
        self.reached_blocks.add(dest)
        block = self._cfg.blocks[dest]
        for instr in block.instrs:
            self._visit_instr(instr)
        self._visit_terminator(dest)

    def _process_ssa_name(self, name: SSAName) -> None:
        self.ssa_name_visits += 1
        for kind, block_id, node in self._ssa.uses_of.get(name, ()):
            if block_id not in self.reached_blocks:
                continue
            if kind == "phi":
                self._visit_phi(node)
            elif kind == "instr":
                self._visit_instr(node)
            else:  # terminator
                self._visit_terminator(block_id)

    # ------------------------------------------------------------------

    def _value(self, name: SSAName) -> LatticeValue:
        return self.values.get(name, TOP)

    def _set_value(self, name: SSAName, new_value: LatticeValue) -> None:
        old = self._value(name)
        merged = meet(old, new_value)
        if merged != old:
            self.values[name] = merged
            self._ssa_work.append(name)

    def _lookup_for(self, uses: Dict[str, SSAName]):
        return lambda var: self._value(uses[var])

    def _visit_phi(self, phi: PhiNode) -> None:
        incoming = [
            self._value(name)
            for pred_id, name in phi.args.items()
            if (pred_id, phi.block_id) in self.executable_edges
        ]
        self._set_value(phi.target, meet_all(incoming))

    def _visit_instr(self, instr) -> None:
        if isinstance(instr, AssignInstr):
            assert instr.uses is not None and instr.defs is not None
            result = evaluate_expr(instr.expr, self._lookup_for(instr.uses))
            for var, name in instr.defs.items():
                if var == instr.target:
                    self._set_value(name, result)
                else:  # may-alias partner: value unknown after the store
                    self._set_value(name, BOTTOM)
        elif isinstance(instr, ArrayStoreInstr):
            # Arrays are never propagated: every definition is BOTTOM.
            assert instr.defs is not None
            for name in instr.defs.values():
                self._set_value(name, BOTTOM)
        elif isinstance(instr, CallInstr):
            assert instr.defs is not None
            for var, name in instr.defs.items():
                if instr.target is not None and var == instr.target:
                    self._set_value(name, self._effects.return_value(instr.site))
                else:
                    # Default BOTTOM; the exit-value extension may know the
                    # callee's constant exit value for this variable.
                    self._set_value(
                        name, self._effects.modified_value(instr.site, var)
                    )
        # PrintInstr has no dataflow effect.

    def _visit_terminator(self, block_id: int) -> None:
        term = self._cfg.blocks[block_id].terminator
        if isinstance(term, Jump):
            self._flow.append((block_id, term.target))
        elif isinstance(term, Branch):
            assert term.uses is not None
            cond = evaluate_expr(term.cond, self._lookup_for(term.uses))
            if cond.is_top:
                return
            if cond.is_bottom:
                self._flow.append((block_id, term.true_target))
                self._flow.append((block_id, term.false_target))
            elif cond.const_value != 0:
                self._flow.append((block_id, term.true_target))
            else:
                self._flow.append((block_id, term.false_target))
        # Ret contributes to return_value() after the fixpoint.

    # ------------------------------------------------------------------
    # Post-fixpoint queries.
    # ------------------------------------------------------------------

    def return_value(self) -> LatticeValue:
        contributions: List[LatticeValue] = []
        for block_id in self.reached_blocks:
            term = self._cfg.blocks[block_id].terminator
            if not isinstance(term, Ret):
                continue
            if term.expr is None:
                contributions.append(BOTTOM)
            else:
                assert term.uses is not None
                contributions.append(
                    evaluate_expr(term.expr, self._lookup_for(term.uses))
                )
        return meet_all(contributions)

    def exit_values(self, record_vars: Set[str]) -> Dict[str, LatticeValue]:
        """Meet of each variable's reaching value over executable returns.

        A variable whose value is the same constant at every executable
        return point has that constant as its *exit value* — the quantity
        the Section 3.2 extension propagates back to call sites.  TOP (no
        executable return: the procedure never returns) demotes to BOTTOM.
        """
        values: Dict[str, LatticeValue] = {var: TOP for var in record_vars}
        for block_id in self.reached_blocks:
            term = self._cfg.blocks[block_id].terminator
            if not isinstance(term, Ret) or term.reaching is None:
                continue
            for var in record_vars:
                name = term.reaching.get(var)
                if name is None:
                    values[var] = BOTTOM
                    continue
                values[var] = meet(values[var], self._value(name))
        return {
            var: (BOTTOM if value.is_top else value)
            for var, value in values.items()
        }

    def collect_call_sites(self) -> Dict[Tuple[str, int], CallSiteValues]:
        result: Dict[Tuple[str, int], CallSiteValues] = {}
        for block in self._cfg.blocks:
            for instr in block.instrs:
                if not isinstance(instr, CallInstr):
                    continue
                executable = block.id in self.reached_blocks
                if executable:
                    assert instr.uses is not None
                    lookup = self._lookup_for(instr.uses)
                    arg_values = [evaluate_expr(arg, lookup) for arg in instr.args]
                    global_values = {
                        g: self._value(name)
                        for g, name in (instr.reaching_globals or {}).items()
                        if g in self._effects.recorded_globals(instr.site)
                    }
                else:
                    arg_values = [TOP for _ in instr.args]
                    global_values = {}
                result[site_key(instr.site)] = CallSiteValues(
                    site=instr.site,
                    executable=executable,
                    arg_values=arg_values,
                    global_values=global_values,
                )
        return result
