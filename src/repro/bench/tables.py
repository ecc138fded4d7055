"""Regenerates every table of the paper's evaluation section.

Each ``tableN_rows`` function runs the full Figure 2 pipeline over the
synthetic suite and returns measured rows paired with the paper's reported
numbers; ``format_*`` helpers render them side by side.  Because the
workloads are synthetic analogs (see DESIGN.md), absolute values differ from
the paper by construction — the *shape* (which method wins, roughly by what
factor) is what the benchmark assertions check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.transform import transform_program
from repro.bench.suite import (
    GT_SUBSET,
    PAPER_TABLE5,
    SUITE,
    BenchmarkProfile,
    PaperTable1Row,
    PaperTable2Row,
    build_benchmark,
)
from repro.core.config import ICPConfig
from repro.core.driver import PipelineResult, analyze
from repro.core.effects import SummaryEffects
from repro.core.jump_functions import JumpFunctionKind, jump_function_icp
from repro.core.metrics import (
    CallSiteCandidates,
    PropagatedConstants,
    call_site_candidates,
    propagated_constants,
)
from repro.ir.lattice import Const, LatticeValue

_PIPELINE_CACHE: Dict[Tuple[str, ICPConfig], PipelineResult] = {}


def pipeline_for(
    profile: BenchmarkProfile, config: Optional[ICPConfig] = None
) -> PipelineResult:
    """Run (and cache, per profile and config) the full pipeline for one
    benchmark profile."""
    config = config or ICPConfig()
    key = (profile.name, config)
    cached = _PIPELINE_CACHE.get(key)
    if cached is not None:
        return cached
    program = build_benchmark(profile)
    result = analyze(program, config)
    _PIPELINE_CACHE[key] = result
    return result


def clear_cache() -> None:
    _PIPELINE_CACHE.clear()


# ----------------------------------------------------------------------
# Tables 1 and 3: call-site constant candidates.
# ----------------------------------------------------------------------


@dataclass
class Table1Entry:
    name: str
    measured: CallSiteCandidates
    paper: Optional[PaperTable1Row]


def _candidates_for(
    profile: BenchmarkProfile, config: ICPConfig
) -> CallSiteCandidates:
    result = pipeline_for(profile, config)
    return call_site_candidates(
        profile.name,
        result.program,
        result.symbols,
        result.pcg,
        result.modref,
        result.fi,
        result.fs,
        config,
    )


def table1_rows(config: Optional[ICPConfig] = None) -> List[Table1Entry]:
    """Table 1: call-site candidates across the full suite (floats on)."""
    config = config or ICPConfig(propagate_floats=True)
    return [
        Table1Entry(name, _candidates_for(profile, config), profile.paper_t1)
        for name, profile in SUITE.items()
    ]


def table3_rows(config: Optional[ICPConfig] = None) -> List[Table1Entry]:
    """Table 3: the Grove–Torczon subset, floating-point propagation off."""
    config = config or ICPConfig(propagate_floats=False)
    return [
        Table1Entry(
            name, _candidates_for(SUITE[name], config), SUITE[name].paper_t3
        )
        for name in GT_SUBSET
    ]


# ----------------------------------------------------------------------
# Tables 2 and 4: interprocedurally propagated constants.
# ----------------------------------------------------------------------


@dataclass
class Table2Entry:
    name: str
    measured: PropagatedConstants
    paper: Optional[PaperTable2Row]


def _propagated_for(
    profile: BenchmarkProfile, config: ICPConfig
) -> PropagatedConstants:
    result = pipeline_for(profile, config)
    return propagated_constants(
        profile.name,
        result.program,
        result.symbols,
        result.pcg,
        result.modref,
        result.fi,
        result.fs,
        config,
    )


def table2_rows(config: Optional[ICPConfig] = None) -> List[Table2Entry]:
    """Table 2: propagated constants at procedure entry (floats on)."""
    config = config or ICPConfig(propagate_floats=True)
    return [
        Table2Entry(name, _propagated_for(profile, config), profile.paper_t2)
        for name, profile in SUITE.items()
    ]


def table4_rows(config: Optional[ICPConfig] = None) -> List[Table2Entry]:
    """Table 4: the Grove–Torczon subset, floating-point propagation off."""
    config = config or ICPConfig(propagate_floats=False)
    return [
        Table2Entry(
            name, _propagated_for(SUITE[name], config), SUITE[name].paper_t4
        )
        for name in GT_SUBSET
    ]


# ----------------------------------------------------------------------
# Table 5: intraprocedural substitutions per ICP method.
# ----------------------------------------------------------------------


@dataclass
class Table5Entry:
    name: str
    polynomial: int
    fi: int
    fs: int
    paper: Optional[Tuple[int, int, int]]  # (polynomial, fi, fs)


def _main_init_env(result: PipelineResult, config: ICPConfig) -> Dict[str, LatticeValue]:
    env: Dict[str, LatticeValue] = {}
    for name, value in result.program.initial_globals().items():
        if config.admit_value(value):
            env[name] = Const(value)
    return env


def _substitutions(
    result: PipelineResult,
    entry_envs: Dict[str, Dict[str, LatticeValue]],
    config: ICPConfig,
) -> int:
    """Count constant substitutions under a given interprocedural solution.

    Every method gets the block-data initial values for ``main`` (block data
    is program text, hence intraprocedurally visible there).
    """
    envs = {proc: dict(env) for proc, env in entry_envs.items()}
    entry = result.pcg.entry
    envs.setdefault(entry, {})
    for name, value in _main_init_env(result, config).items():
        envs[entry].setdefault(name, value)
    effects = SummaryEffects(result.modref, result.aliases)
    outcome = transform_program(
        result.program, result.symbols, envs, effects, prune_dead_branches=True
    )
    return outcome.total_substitutions


def table5_rows(config: Optional[ICPConfig] = None) -> List[Table5Entry]:
    """Table 5: substitutions under POLYNOMIAL vs FI vs FS solutions."""
    config = config or ICPConfig(propagate_floats=False)
    rows: List[Table5Entry] = []
    for name in GT_SUBSET:
        profile = SUITE[name]
        result = pipeline_for(profile, config)
        poly = jump_function_icp(
            result.program,
            result.symbols,
            result.pcg,
            JumpFunctionKind.POLYNOMIAL,
            result.modref.callsite_mod,
            config,
            assign_aliases=result.aliases.partners,
        )
        poly_envs = {
            proc: poly.entry_env(proc, result.symbols[proc])
            for proc in result.pcg.nodes
        }
        fi_envs = {
            proc: result.fi.entry_env(proc, result.symbols[proc])
            for proc in result.pcg.nodes
        }
        fs_envs = {
            proc: result.fs.entry_env(proc, result.symbols[proc])
            for proc in result.pcg.nodes
        }
        rows.append(
            Table5Entry(
                name=name,
                polynomial=_substitutions(result, poly_envs, config),
                fi=_substitutions(result, fi_envs, config),
                fs=_substitutions(result, fs_envs, config),
                paper=PAPER_TABLE5.get(name),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Section 4 timing claim.
# ----------------------------------------------------------------------


@dataclass
class TimingRow:
    name: str
    base_seconds: float  # shared analysis phases (parse .. modref, use)
    fi_seconds: float
    fs_seconds: float

    @property
    def analysis_increase(self) -> float:
        """(base+fi+fs) / (base+fi) — the paper reports ~1.5."""
        fi_total = self.base_seconds + self.fi_seconds
        if fi_total == 0:
            return 1.0
        return (fi_total + self.fs_seconds) / fi_total


def timing_rows(config: Optional[ICPConfig] = None) -> List[TimingRow]:
    """Fresh (uncached) pipeline timings per benchmark."""
    config = config or ICPConfig()
    rows: List[TimingRow] = []
    for name, profile in SUITE.items():
        program = build_benchmark(profile)
        result = analyze(program, config)
        timings = result.timings
        base = sum(
            seconds
            for phase, seconds in timings.items()
            if phase not in ("icp_fi", "icp_fs")
        )
        rows.append(
            TimingRow(
                name=name,
                base_seconds=base,
                fi_seconds=timings.get("icp_fi", 0.0),
                fs_seconds=timings.get("icp_fs", 0.0),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Formatting.
# ----------------------------------------------------------------------


def format_table1(rows: List[Table1Entry], title: str) -> str:
    header = (
        f"{title}\n"
        f"{'program':<16} {'ARG':>5} {'IMM':>5} {'FI':>5} {'FS':>5} "
        f"{'gFI':>4} {'gFS':>4} {'gVIS':>5}   paper(ARG IMM FI FS | gFI gFS gVIS)"
    )
    lines = [header]
    for row in rows:
        m = row.measured
        paper = row.paper
        paper_text = (
            f"{paper.args:>5} {paper.imm:>4} {paper.fi:>4} {paper.fs:>4} | "
            f"{paper.g_fi:>3} {paper.g_fs:>3} {paper.g_vis:>4}"
            if paper
            else "-"
        )
        lines.append(
            f"{row.name:<16} {m.total_args:>5} {m.imm_args:>5} {m.fi_args:>5} "
            f"{m.fs_args:>5} {m.fi_global_candidates:>4} "
            f"{m.fs_globals_at_sites:>4} {m.vis_globals_at_sites:>5}   {paper_text}"
        )
    totals = _totals1(rows)
    lines.append(
        f"{'TOTAL':<16} {totals[0]:>5} {totals[1]:>5} {totals[2]:>5} "
        f"{totals[3]:>5} {totals[4]:>4} {totals[5]:>4} {totals[6]:>5}"
    )
    return "\n".join(lines)


def _totals1(rows: List[Table1Entry]) -> Tuple[int, ...]:
    return (
        sum(r.measured.total_args for r in rows),
        sum(r.measured.imm_args for r in rows),
        sum(r.measured.fi_args for r in rows),
        sum(r.measured.fs_args for r in rows),
        sum(r.measured.fi_global_candidates for r in rows),
        sum(r.measured.fs_globals_at_sites for r in rows),
        sum(r.measured.vis_globals_at_sites for r in rows),
    )


def format_table2(rows: List[Table2Entry], title: str) -> str:
    header = (
        f"{title}\n"
        f"{'program':<16} {'FP':>4} {'FI':>4} {'FS':>4} {'procs':>6} "
        f"{'gFI':>4} {'gFS':>4}   paper(FP FI FS procs | gFI gFS)"
    )
    lines = [header]
    for row in rows:
        m = row.measured
        paper = row.paper
        paper_text = (
            f"{paper.fp:>4} {paper.fi:>3} {paper.fs:>3} {paper.procs:>4} | "
            f"{paper.g_fi:>3} {paper.g_fs:>3}"
            if paper
            else "-"
        )
        lines.append(
            f"{row.name:<16} {m.total_formals:>4} {m.fi_formals:>4} "
            f"{m.fs_formals:>4} {m.num_procs:>6} {m.fi_globals:>4} "
            f"{m.fs_globals:>4}   {paper_text}"
        )
    lines.append(
        f"{'TOTAL':<16} {sum(r.measured.total_formals for r in rows):>4} "
        f"{sum(r.measured.fi_formals for r in rows):>4} "
        f"{sum(r.measured.fs_formals for r in rows):>4} "
        f"{sum(r.measured.num_procs for r in rows):>6} "
        f"{sum(r.measured.fi_globals for r in rows):>4} "
        f"{sum(r.measured.fs_globals for r in rows):>4}"
    )
    return "\n".join(lines)


def format_table5(rows: List[Table5Entry]) -> str:
    lines = [
        "Table 5: intraprocedural substitutions",
        f"{'program':<16} {'POLY':>6} {'FI':>6} {'FS':>6}   paper(POLY FI FS)",
    ]
    for row in rows:
        paper_text = (
            f"{row.paper[0]:>5} {row.paper[1]:>4} {row.paper[2]:>4}"
            if row.paper
            else "-"
        )
        lines.append(
            f"{row.name:<16} {row.polynomial:>6} {row.fi:>6} {row.fs:>6}   "
            f"{paper_text}"
        )
    lines.append(
        f"{'TOTAL':<16} {sum(r.polynomial for r in rows):>6} "
        f"{sum(r.fi for r in rows):>6} {sum(r.fs for r in rows):>6}   "
        f"paper: 817 532 961"
    )
    return "\n".join(lines)


def format_contexts(comparison: Dict[str, Dict[str, Dict[str, object]]]) -> str:
    """Render :func:`~repro.bench.suite.compare_context_modes` output."""
    lines = [
        "Value contexts: recursion profiles under both context modes",
        f"{'profile':<12} {'mode':<15} {'fallback':>8} {'formals':>7} "
        f"{'ctxs':>5} {'widen':>5} {'degraded':>8}",
    ]
    for name, modes in comparison.items():
        for mode, row in modes.items():
            stats = row.get("contexts") or {}
            lines.append(
                f"{name:<12} {mode:<15} {row['fallback_edges']:>8} "
                f"{row['constant_formals']:>7} "
                f"{stats.get('contexts', '-'):>5} "
                f"{stats.get('widenings', '-'):>5} "
                f"{len(stats.get('degraded_procs', [])) if stats else '-':>8}"
            )
    return "\n".join(lines)
