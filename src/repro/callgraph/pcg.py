"""The Program Call Graph (PCG).

Nodes are the procedures reachable from ``main``; there is one edge per call
site.  The graph provides:

- a deterministic DFS and its reverse postorder (the paper's "forward
  topological traversal"; exact topological order when the PCG is acyclic);
- DFS back edges (edges to a procedure on the DFS stack) — their ratio to all
  edges is the paper's "flow-insensitiveness" measure of Section 3.2;
- *fallback* edges: edges whose caller is not analyzed before its callee in
  the forward traversal.  These are exactly the edges for which the
  flow-sensitive ICP substitutes the flow-insensitive solution.  For an
  acyclic PCG the fallback set is empty; back edges are always fallback edges;
  mutual recursion adds cross edges within a cycle that are fallback but not
  DFS-back.
- Tarjan strongly connected components (for cycle diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.collector import collector_paused
from repro.lang import ast
from repro.lang.symbols import CallSite, ProcedureSymbols


@dataclass(frozen=True)
class CallEdge:
    """One call-site edge of the PCG."""

    site: CallSite

    @property
    def caller(self) -> str:
        return self.site.caller

    @property
    def callee(self) -> str:
        return self.site.callee

    def __str__(self) -> str:
        return str(self.site)


class PCG:
    """The program call graph over procedures reachable from the entry."""

    def __init__(
        self,
        program: ast.Program,
        symbols: Dict[str, ProcedureSymbols],
        entry: str = "main",
    ):
        self.program = program
        self.entry = entry
        self._symbols = symbols
        known = set(program.procedure_map())
        if entry not in known:
            raise ValueError(f"entry procedure {entry!r} not found")

        self.nodes: List[str] = []          # reachable procs, DFS preorder
        self.edges: List[CallEdge] = []     # edges between reachable known procs
        self.missing_callees: Set[str] = set()
        self._edges_out: Dict[str, List[CallEdge]] = {}
        self._edges_in: Dict[str, List[CallEdge]] = {}
        self.back_edges: Set[CallEdge] = set()

        self._build(known)
        self.rpo: List[str] = self._reverse_postorder()
        self._rpo_index = {name: i for i, name in enumerate(self.rpo)}
        self.fallback_edges: FrozenSet[CallEdge] = frozenset(
            edge
            for edge in self.edges
            if self._rpo_index[edge.caller] >= self._rpo_index[edge.callee]
        )
        self.sccs: List[List[str]] = self._tarjan_sccs()

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _build(self, known: Set[str]) -> None:
        visited: Set[str] = set()
        on_stack: Set[str] = set()
        # Frames: (proc, iterator index over its call sites).
        stack: List[Tuple[str, int]] = []

        def push(proc: str) -> None:
            visited.add(proc)
            on_stack.add(proc)
            self.nodes.append(proc)
            self._edges_out.setdefault(proc, [])
            self._edges_in.setdefault(proc, [])
            stack.append((proc, 0))

        push(self.entry)
        while stack:
            proc, index = stack[-1]
            sites = self._symbols[proc].call_sites
            if index >= len(sites):
                stack.pop()
                on_stack.discard(proc)
                continue
            stack[-1] = (proc, index + 1)
            site = sites[index]
            if site.callee not in known:
                self.missing_callees.add(site.callee)
                continue
            edge = CallEdge(site)
            self.edges.append(edge)
            self._edges_out[proc].append(edge)
            self._edges_in.setdefault(site.callee, []).append(edge)
            if site.callee in on_stack:
                self.back_edges.add(edge)
            elif site.callee not in visited:
                push(site.callee)

    def _reverse_postorder(self) -> List[str]:
        visited: Set[str] = set()
        postorder: List[str] = []
        stack: List[Tuple[str, int]] = [(self.entry, 0)]
        visited.add(self.entry)
        while stack:
            proc, index = stack[-1]
            out = self._edges_out.get(proc, [])
            if index < len(out):
                stack[-1] = (proc, index + 1)
                callee = out[index].callee
                if callee not in visited:
                    visited.add(callee)
                    stack.append((callee, 0))
            else:
                stack.pop()
                postorder.append(proc)
        postorder.reverse()
        return postorder

    def _tarjan_sccs(self) -> List[List[str]]:
        index_of: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        scc_stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        for root in self.nodes:
            if root in index_of:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_index = work[-1]
                if edge_index == 0:
                    index_of[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    scc_stack.append(node)
                    on_stack.add(node)
                out = self._edges_out.get(node, [])
                advanced = False
                while edge_index < len(out):
                    callee = out[edge_index].callee
                    edge_index += 1
                    if callee not in index_of:
                        work[-1] = (node, edge_index)
                        work.append((callee, 0))
                        advanced = True
                        break
                    if callee in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[callee])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == index_of[node]:
                    component: List[str] = []
                    while True:
                        member = scc_stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return sccs

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    @property
    def reachable(self) -> FrozenSet[str]:
        return frozenset(self.nodes)

    def edges_into(self, proc: str) -> List[CallEdge]:
        return self._edges_in.get(proc, [])

    def edges_out_of(self, proc: str) -> List[CallEdge]:
        return self._edges_out.get(proc, [])

    @property
    def has_cycles(self) -> bool:
        return bool(self.back_edges)

    @property
    def back_edge_ratio(self) -> float:
        """The paper's flow-insensitiveness measure: |back| / |edges|."""
        if not self.edges:
            return 0.0
        return len(self.back_edges) / len(self.edges)

    def is_fallback(self, edge: CallEdge) -> bool:
        """True when the forward FS traversal must use the FI solution."""
        return edge in self.fallback_edges

    def rpo_position(self, proc: str) -> int:
        return self._rpo_index[proc]

    @cached_property
    def edge_keys(self) -> Dict[str, Tuple[Tuple, Tuple]]:
        """Each node's (incoming, outgoing) edge key, as :func:`diff_pcg`
        compares them; rendered once, since a built graph never changes."""
        return {
            proc: (_incoming_key(self, proc), _outgoing_key(self, proc))
            for proc in self.nodes
        }

    def __str__(self) -> str:
        lines = [f"PCG entry={self.entry} nodes={len(self.nodes)} edges={len(self.edges)}"]
        for edge in self.edges:
            marker = " [back]" if edge in self.back_edges else ""
            lines.append(f"  {edge}{marker}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PCGDelta:
    """Structural difference between two PCGs over the same entry.

    Edge keys embed the fallback classification on both sides: RPO (and with
    it the fallback/rev-fallback status of an edge) is a *global* property of
    the graph, so a local edit elsewhere can silently flip an untouched
    procedure's edges between "analyzed caller" and "FI fallback".  Such
    flips change the procedure's entry environment (or reverse-traversal
    summary source) and must surface as a difference here.
    """

    #: Procedures reachable in the new PCG but not the old.
    new_procs: FrozenSet[str]
    #: Procedures reachable in the old PCG but not the new.
    dropped_procs: FrozenSet[str]
    #: Procedures (in both) whose incoming edge list — callers, site indices,
    #: or per-edge fallback flags — changed.
    incoming_changed: FrozenSet[str]
    #: Procedures (in both) whose outgoing edge list — callees, site indices,
    #: or per-edge reverse-fallback flags — changed.
    outgoing_changed: FrozenSet[str]

    @property
    def empty(self) -> bool:
        return not (
            self.new_procs
            or self.dropped_procs
            or self.incoming_changed
            or self.outgoing_changed
        )


def _incoming_key(pcg: PCG, proc: str) -> Tuple:
    return tuple(
        (edge.caller, edge.site.index, edge.callee, edge in pcg.fallback_edges)
        for edge in pcg.edges_into(proc)
    )


def _outgoing_key(pcg: PCG, proc: str) -> Tuple:
    position = pcg.rpo_position(proc)
    return tuple(
        (edge.site.index, edge.callee, pcg.rpo_position(edge.callee) <= position)
        for edge in pcg.edges_out_of(proc)
    )


def diff_pcg(old: PCG, new: PCG) -> PCGDelta:
    """Diff two PCGs procedure by procedure (incremental re-analysis input)."""
    old_keys, new_keys = old.edge_keys, new.edge_keys
    common = old_keys.keys() & new_keys.keys()
    return PCGDelta(
        new_procs=frozenset(new_keys.keys() - old_keys.keys()),
        dropped_procs=frozenset(old_keys.keys() - new_keys.keys()),
        incoming_changed=frozenset(
            proc for proc in common if old_keys[proc][0] != new_keys[proc][0]
        ),
        outgoing_changed=frozenset(
            proc for proc in common if old_keys[proc][1] != new_keys[proc][1]
        ),
    )


@collector_paused
def build_pcg(
    program: ast.Program,
    symbols: Optional[Dict[str, ProcedureSymbols]] = None,
    entry: str = "main",
) -> PCG:
    """Build the PCG of ``program`` (computing symbols if not supplied)."""
    if symbols is None:
        from repro.lang.symbols import collect_symbols

        symbols = collect_symbols(program)
    return PCG(program, symbols, entry)
