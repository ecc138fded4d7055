"""The paper's evaluation metrics (Section 4).

Two headline metrics, designed to count *interprocedurally propagated
constant values* rather than intraprocedural substitutions:

- **Call-site constant candidates** (Tables 1 and 3): how many arguments are
  known constant at their call site, and how many (call site, global) pairs
  carry a known-constant global into a procedure that references it.
- **Interprocedurally propagated constants** (Tables 2 and 4): how many
  formal parameters and how many (procedure, global) pairs are constant *at
  procedure entry* and referenced in the procedure.

Each constant is counted once per procedure regardless of how many times it
is referenced inside, exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.callgraph.pcg import PCG
from repro.core.config import ICPConfig
from repro.core.flow_insensitive import FIResult
from repro.core.flow_sensitive import FSResult
from repro.lang import ast
from repro.lang.symbols import ProcedureSymbols
from repro.summary.modref import ModRefInfo


@dataclass
class CallSiteCandidates:
    """One row of the paper's Table 1 / Table 3."""

    name: str
    total_args: int = 0
    imm_args: int = 0
    fi_args: int = 0
    fs_args: int = 0
    fi_global_candidates: int = 0
    fs_globals_at_sites: int = 0
    vis_globals_at_sites: int = 0

    @property
    def imm_pct(self) -> float:
        return _pct(self.imm_args, self.total_args)

    @property
    def fi_pct(self) -> float:
        return _pct(self.fi_args, self.total_args)

    @property
    def fs_pct(self) -> float:
        return _pct(self.fs_args, self.total_args)


@dataclass
class PropagatedConstants:
    """One row of the paper's Table 2 / Table 4."""

    name: str
    total_formals: int = 0
    fi_formals: int = 0
    fs_formals: int = 0
    num_procs: int = 0
    fi_globals: int = 0
    fs_globals: int = 0

    @property
    def fi_pct(self) -> float:
        return _pct(self.fi_formals, self.total_formals)

    @property
    def fs_pct(self) -> float:
        return _pct(self.fs_formals, self.total_formals)


def _pct(part: int, whole: int) -> float:
    """Percentage with a consistent zero-denominator guard.

    Every ``*_pct`` property funnels through here: an empty denominator
    (0 or None — e.g. a benchmark with no call-site arguments or no formal
    parameters) yields 0.0 rather than raising ``ZeroDivisionError``.
    """
    if not whole:
        return 0.0
    return 100.0 * part / whole


def absorb_pipeline_metrics(registry, result) -> None:
    """Fold one run's scattered counters into a unified metrics registry.

    The scheduler and the flow-sensitive pass record *live* counters
    (``cache.hits``, ``sched.tasks_run``, ``engine.task_seconds``,
    ``scc.*`` visit totals) while the pipeline runs; this absorbs the
    remaining after-the-fact state — scheduler and cache summaries, PCG
    shape, phase timings — so one registry snapshot covers everything
    ``--cache-stats`` and ``--timings`` used to print piecemeal.
    """
    sched = result.sched
    if sched is not None:
        registry.gauge("sched.tasks_total").set(sched.tasks_total)
        registry.gauge("sched.analysis_seconds").set(sched.analysis_seconds)
        if sched.cache is not None:
            registry.gauge("cache.hit_rate").set(sched.cache.hit_rate)
            registry.gauge("cache.invalidations").set(sched.cache.invalidations)
            registry.gauge("cache.entries").set(sched.cache.entries)
    registry.gauge("pcg.procedures").set(len(result.pcg.nodes))
    registry.gauge("pcg.edges").set(len(result.pcg.edges))
    registry.gauge("pcg.back_edges").set(len(result.pcg.back_edges))
    registry.gauge("fs.intra_seconds").set(result.fs.intra_seconds)
    registry.gauge("fs.fallback_edges").set(len(result.fs.fallback_edges))
    for phase, seconds in result.timings.items():
        registry.gauge(f"phase.{phase}.seconds").set(seconds)
    # Runs with the metrics registry off during analysis still get
    # SCC visit totals: sum them from the per-procedure engine details.
    if not registry.snapshot()["counters"]:
        totals: Dict[str, int] = {}
        for intra in result.fs.intra.values():
            visits = getattr(intra.detail, "visits", None)
            if visits:
                for key, value in visits.items():
                    totals[key] = totals.get(key, 0) + value
        for key, value in totals.items():
            registry.counter(f"scc.{key}").inc(value)


def call_site_candidates(
    name: str,
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    fi: FIResult,
    fs: FSResult,
    config: Optional[ICPConfig] = None,
) -> CallSiteCandidates:
    """Compute the Table 1 metric for one program.

    - ``total_args``/``imm_args`` are syntactic counts over call sites in
      reachable procedures.
    - ``fi_args`` counts arguments whose flow-insensitive status is constant.
    - ``fs_args`` counts arguments whose flow-sensitive value at an executable
      call site is constant.
    - ``fi_global_candidates`` is the number of block-data-initialized globals
      (the FI algorithm's candidate pool).
    - ``fs_globals_at_sites`` counts (call site, global) pairs where the
      global is constant at the site and in the callee's REF set;
      ``vis_globals_at_sites`` is the subset also referenced (visible) in the
      *calling* procedure — the difference is the paper's "invisible global
      constants passed at a call site".
    """
    config = config or ICPConfig()
    row = CallSiteCandidates(name=name)
    row.fi_global_candidates = len(fi.global_candidates)

    for proc_name in pcg.nodes:
        proc_symbols = symbols[proc_name]
        fs_intra = fs.intra.get(proc_name)
        caller_live = proc_name in fs.fs_reachable
        for site in proc_symbols.call_sites:
            row.total_args += len(site.args)
            for index, arg in enumerate(site.args):
                if ast.literal_value(arg) is not None:
                    row.imm_args += 1
                if fi.arg_value(site, index).is_const:
                    row.fi_args += 1
            if fs_intra is None or not caller_live:
                continue
            site_values = fs_intra.call_sites.get((proc_name, site.index))
            if site_values is None or not site_values.executable:
                continue
            for index in range(len(site.args)):
                if config.admit(site_values.arg_values[index]).is_const:
                    row.fs_args += 1
            for global_name, value in site_values.global_values.items():
                if config.admit(value).is_const:
                    row.fs_globals_at_sites += 1
                    if global_name in proc_symbols.referenced:
                        row.vis_globals_at_sites += 1
    return row


def propagated_constants(
    name: str,
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    pcg: PCG,
    modref: ModRefInfo,
    fi: FIResult,
    fs: FSResult,
    config: Optional[ICPConfig] = None,
) -> PropagatedConstants:
    """Compute the Table 2 metric for one program.

    A global counts for a procedure when it is constant at the procedure's
    entry *and* referenced directly in that procedure; the FI column reduces
    to block-data constants never defined elsewhere, as the paper notes.
    """
    config = config or ICPConfig()
    globals_set = program.global_set()
    row = PropagatedConstants(name=name, num_procs=len(pcg.nodes))

    for proc_name in pcg.nodes:
        proc_symbols = symbols[proc_name]
        row.total_formals += len(proc_symbols.formals)
        for formal in proc_symbols.formals:
            if fi.formal_value(proc_name, formal).is_const:
                row.fi_formals += 1
            if (
                proc_name in fs.fs_reachable
                and fs.entry_formal(proc_name, formal).is_const
            ):
                row.fs_formals += 1
        referenced_globals = proc_symbols.referenced & globals_set
        for global_name in referenced_globals:
            if global_name in fi.global_constants:
                row.fi_globals += 1
            if (
                proc_name in fs.fs_reachable
                and fs.entry_global(proc_name, global_name).is_const
            ):
                row.fs_globals += 1
    return row
