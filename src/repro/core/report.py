"""Structured text reports over a pipeline result.

Produces the detailed per-procedure view a compiler engineer wants when
debugging interprocedural constants: for each procedure, its entry constants
under each method, call-site facts, and summary information (MOD/REF/USE,
aliases).  Exposed through ``repro-icp analyze --report``.
"""

from __future__ import annotations

from typing import List

from repro.core.driver import PipelineResult
from repro.ir.lattice import LatticeValue


def _fmt(value: LatticeValue) -> str:
    if value.is_const:
        return repr(value.const_value)
    if value.is_top:
        return "<unreached>"
    return "?"


def procedure_report(result: PipelineResult, proc: str) -> str:
    """Detailed report for one procedure."""
    symbols = result.symbols[proc]
    lines = [f"procedure {proc}({', '.join(symbols.formals)})"]

    if symbols.formals:
        lines.append("  formal parameters at entry:")
        for formal in symbols.formals:
            fi = _fmt(result.fi.formal_value(proc, formal))
            fs = _fmt(result.fs.entry_formal(proc, formal))
            lines.append(f"    {formal:<12} FI: {fi:<12} FS: {fs}")

    globals_here = sorted(
        name
        for name in result.modref.ref_globals(proc)
        if name in symbols.referenced
    )
    if globals_here:
        lines.append("  referenced globals at entry:")
        for name in globals_here:
            fi = (
                repr(result.fi.global_constants[name])
                if name in result.fi.global_constants
                else "?"
            )
            fs = _fmt(result.fs.entry_global(proc, name))
            lines.append(f"    {name:<12} FI: {fi:<12} FS: {fs}")

    mod = sorted(result.modref.mod_of(proc))
    ref = sorted(result.modref.ref_of(proc))
    use = sorted(result.use.use_of(proc))
    lines.append(f"  MOD: {mod}")
    lines.append(f"  REF: {ref}")
    lines.append(f"  USE: {use}")
    pairs = sorted(result.aliases.pairs_of(proc))
    if pairs:
        lines.append(f"  may-alias: {pairs}")

    if symbols.call_sites:
        lines.append("  call sites:")
        intra = result.fs.intra.get(proc)
        for site in symbols.call_sites:
            values = "?"
            if intra is not None:
                site_values = intra.call_sites.get((proc, site.index))
                if site_values is not None:
                    if not site_values.executable:
                        values = "<unreachable>"
                    else:
                        values = ", ".join(
                            _fmt(v) for v in site_values.arg_values
                        )
            lines.append(f"    #{site.index} -> {site.callee}({values})")
    return "\n".join(lines)


def scheduling_report(result: PipelineResult) -> str:
    """Engine-run and summary-cache counters for one run."""
    sched = result.sched
    if sched is None:
        return "scheduling: (not recorded)"
    lines = [
        "scheduling:",
        f"  analyses: {sched.tasks_run} run, {sched.tasks_cached} cached, "
        f"{sched.tasks_reused} reused "
        f"({sched.analysis_seconds:.6f}s engine time)",
    ]
    if sched.cache is not None:
        cache = sched.cache
        lines.append(
            f"  summary cache: {cache.hits} hits, {cache.misses} misses, "
            f"{cache.invalidations} invalidations "
            f"(hit rate {cache.hit_rate:.0%}, {cache.entries} entries)"
        )
    return "\n".join(lines)


def observability_report(result: PipelineResult, top: int = 10) -> str:
    """Phase timings and the hot-procedure ranking of an instrumented run.

    Requires a run executed with an :class:`~repro.obs.Observability`
    context whose profiler was live (CLI ``--profile``); otherwise reports
    that nothing was recorded.
    """
    obs = result.obs
    if obs is None or not obs.profiler.enabled:
        return "observability: (profiling not enabled for this run)"
    lines = ["observability:"]
    profiler = obs.profiler
    if profiler.phases:
        lines.append(_indent(profiler.phase_report()))
    lines.append(_indent(profiler.hot_report(top)))
    return "\n".join(lines)


def _indent(text: str, by: str = "  ") -> str:
    return "\n".join(by + line for line in text.splitlines())


def analysis_report(result: PipelineResult) -> str:
    """The deterministic analysis portion of the report.

    A pure function of *what the analysis concluded* — per-procedure entry
    constants, summaries, call-site facts, constant returns — with no
    scheduling counters, cache statistics, timings, or profiling.  Two runs
    over the same program under the same configuration produce byte-identical
    text regardless of worker count, cache warmth, or incremental reuse;
    the differential suite compares sessions against cold runs with it.
    """
    parts: List[str] = [
        "=" * 64,
        "interprocedural constant propagation report",
        f"entry: {result.pcg.entry}; procedures: {len(result.pcg.nodes)}; "
        f"edges: {len(result.pcg.edges)} "
        f"(fallback ratio {result.fs.fallback_ratio(result.pcg):.2f})",
        "=" * 64,
    ]
    if result.fs.contexts is not None:
        # Tabulation facts are deterministic analysis outputs (table sizes,
        # widenings) — safe on the byte-identity surface; the section is
        # absent entirely under the default carini-hind mode.
        parts.append(result.fs.contexts.render())
        parts.append("-" * 64)
    for proc in result.pcg.rpo:
        parts.append(procedure_report(result, proc))
        parts.append("-" * 64)
    if result.returns is not None:
        constants = result.returns.constant_returns()
        parts.append(f"constant returns: { {p: _fmt(v) for p, v in constants.items()} }")
        exits = result.returns.constant_exit_values()
        if exits:
            parts.append("constant exit values:")
            for proc, table in sorted(exits.items()):
                # The table comes from a set of variables: sort, so the line
                # depends on neither PYTHONHASHSEED nor a warm store.
                rendered = {var: _fmt(v) for var, v in sorted(table.items())}
                parts.append(f"  {proc}: {rendered}")
    return "\n".join(parts)


def session_report(session) -> str:
    """Edit/reuse counters of an :class:`~repro.session.AnalysisSession`."""
    stats = session.stats
    lines = [
        "session:",
        f"  edits: {stats.edits}; analyses: {stats.analyses}",
        f"  last analysis: {stats.last_procs} procedures, "
        f"{stats.last_dirty} dirty, {stats.last_engine_runs} engine runs, "
        f"{stats.last_reused} reused, {stats.last_cached} cached "
        f"(reuse rate {stats.reuse_rate:.0%})",
        f"  lifetime: {stats.total_engine_runs} engine runs, "
        f"{stats.total_reused} reused",
    ]
    cache = session.cache.stats
    lines.append(
        f"  summary cache: {cache.hits} hits, {cache.misses} misses, "
        f"{cache.evictions} evictions ({cache.entries} entries)"
    )
    return "\n".join(lines)


def diagnostics_report(diag, path: str = None) -> str:
    """Deterministic text rendering of one diagnostics run.

    Delegates to the canonical renderer in :mod:`repro.diag.output`; the
    session-vs-cold byte-identity guarantee is stated (and tested) against
    this function's output.
    """
    from repro.diag.output import render_findings

    return render_findings(diag, path=path)


def full_report(result: PipelineResult) -> str:
    """Report every reachable procedure, in call-graph order."""
    parts: List[str] = [analysis_report(result)]
    if result.sched is not None and result.sched.cache is not None:
        parts.append(scheduling_report(result))
    if result.obs is not None and result.obs.profiler.enabled:
        parts.append(observability_report(result))
    return "\n".join(parts)


def pcg_to_dot(result: PipelineResult, name: str = "pcg") -> str:
    """Render the program call graph as Graphviz DOT.

    Edge styling encodes the paper's machinery: dashed edges are the
    back/fallback edges where the FS method substitutes the FI solution.
    """
    lines = [f"digraph {name} {{", "  node [shape=box, fontname=monospace];"]
    for proc in result.pcg.nodes:
        formals = ", ".join(result.symbols[proc].formals)
        constants = sum(
            1
            for formal in result.symbols[proc].formals
            if result.fs.entry_formal(proc, formal).is_const
        )
        label = f"{proc}({formals})\\n{constants} constant formal(s)"
        lines.append(f'  "{proc}" [label="{label}"];')
    for edge in result.pcg.edges:
        style = ' [style=dashed, label="FI fallback"]' if result.pcg.is_fallback(edge) else ""
        lines.append(f'  "{edge.caller}" -> "{edge.callee}"{style};')
    lines.append("}")
    return "\n".join(lines)
