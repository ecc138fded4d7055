"""The diagnostics engine: options, orchestration, results.

:func:`run_diagnostics` is the one entry point: it fans a pipeline result
through the six checks (plus, on request, the ICP900 sanitizer), filters by
enabled rules / severity floor / ``noqa`` suppressions / baseline, and
returns a :class:`DiagnosticsResult` with a deterministic finding order.

The per-procedure checks are split out as :func:`procedure_findings` so the
incremental session path (:meth:`repro.api.AnalysisSession.diagnostics`) can
re-run them for *only* the procedures the last edit dirtied and splice
cached findings for the rest — the final filter/sort runs over the union, so
the rendered report is byte-identical to a cold run.

Observability: each check runs under a ``diag.<rule-name>`` tracer span and
a ``diag.check_seconds`` histogram sample; kept findings increment
``diag.findings.<RULE>`` counters on the session's MetricsRegistry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.diag import checks
from repro.diag.findings import (
    RULES,
    SEVERITIES,
    SEVERITY_ORDER,
    Finding,
)
from repro.diag.suppress import (
    SuppressionTable,
    apply_baseline,
    apply_suppressions,
)
from repro.obs import NULL_OBS, Observability

#: Per-procedure rule implementations, in rule-ID order.
_PROC_CHECKS: Tuple[Tuple[str, Callable], ...] = (
    ("ICP002", checks.check_aliasing),
    ("ICP003", checks.check_dead_stores),
    ("ICP004", checks.check_reachability),
)

#: Program-level rule implementations (beyond the structural ICP005 scan).
_PROGRAM_CHECKS: Tuple[Tuple[str, Callable], ...] = (
    ("ICP001", checks.check_use_before_init),
    ("ICP004", checks.check_dead_procedures),
    ("ICP006", checks.check_fallback_precision),
)


@dataclass(frozen=True)
class DiagOptions:
    """What to check and what to keep."""

    #: Enabled rule IDs; ``None`` enables every rule.
    rules: Optional[FrozenSet[str]] = None
    #: Weakest severity to report ("note" keeps everything).
    severity_floor: str = "note"
    #: Execute the program and cross-check constant claims (ICP900).
    sanitize: bool = False
    #: Interpreter step budget for the sanitizer.
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.severity_floor not in SEVERITIES:
            raise ValueError(
                f"unknown severity floor {self.severity_floor!r}; "
                f"expected one of {SEVERITIES}"
            )
        if self.rules is not None:
            unknown = sorted(set(self.rules) - set(RULES))
            if unknown:
                raise ValueError(
                    f"unknown rule IDs: {unknown}; known: {sorted(RULES)}"
                )
            object.__setattr__(self, "rules", frozenset(self.rules))

    @classmethod
    def from_config(cls, config) -> "DiagOptions":
        """Lift the ``diag_*`` keys of an :class:`ICPConfig`."""
        return cls(
            rules=(
                frozenset(config.diag_rules)
                if config.diag_rules is not None
                else None
            ),
            severity_floor=config.diag_severity_floor,
        )

    def admits(self, finding: Finding) -> bool:
        if self.rules is not None and finding.rule_id not in self.rules:
            return False
        return (
            SEVERITY_ORDER[finding.severity]
            >= SEVERITY_ORDER[self.severity_floor]
        )


@dataclass
class DiagnosticsResult:
    """Filtered, deterministically ordered findings for one program."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings dropped by per-line ``noqa`` directives.
    suppressed: int = 0
    #: Findings accepted by the baseline file.
    baselined: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        """Kept findings per rule ID (sorted keys, deterministic)."""
        table: Dict[str, int] = {}
        for finding in self.findings:
            table[finding.rule_id] = table.get(finding.rule_id, 0) + 1
        return dict(sorted(table.items()))

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def render(self, path: Optional[str] = None) -> str:
        from repro.diag.output import render_findings

        return render_findings(self, path=path)


def _timed_check(
    obs: Observability, rule_id: str, run: Callable[[], List[Finding]]
) -> List[Finding]:
    if not obs.enabled:
        return run()
    name = RULES[rule_id].name
    started = time.perf_counter()
    with obs.tracer.span(f"diag.{name}", cat="diag", rule=rule_id):
        found = run()
    obs.metrics.histogram("diag.check_seconds").observe(
        time.perf_counter() - started
    )
    return found


def procedure_findings(
    result,
    procs: Optional[Sequence[str]] = None,
    obs: Observability = NULL_OBS,
) -> Dict[str, List[Finding]]:
    """Per-procedure findings (ICP002/ICP003/ICP004), keyed by procedure.

    ``procs`` restricts the scan (the incremental session path passes only
    the dirty procedures); the default covers every PCG node.  Every
    requested procedure gets an entry, empty or not, so callers can cache
    negative results too.
    """
    targets = list(procs) if procs is not None else list(result.pcg.nodes)
    table: Dict[str, List[Finding]] = {name: [] for name in targets}
    for rule_id, check in _PROC_CHECKS:
        def sweep(check=check):
            found: List[Finding] = []
            for name in targets:
                found.extend(check(result, name))
            return found

        for finding in _timed_check(obs, rule_id, sweep):
            table[finding.proc].append(finding)
    return table


def program_findings(result, obs: Observability = NULL_OBS) -> List[Finding]:
    """Program-level findings: ICP001, ICP005, dead procedures, ICP006."""
    findings: List[Finding] = []
    for rule_id, check in _PROGRAM_CHECKS:
        findings.extend(_timed_check(obs, rule_id, lambda check=check: check(result)))
    findings.extend(
        _timed_check(
            obs,
            "ICP005",
            lambda: checks.check_call_signatures(
                result.program, result.symbols, result.config.allow_missing
            ),
        )
    )
    return findings


def run_diagnostics(
    result,
    options: Optional[DiagOptions] = None,
    *,
    obs: Optional[Observability] = None,
    suppressions: Optional[SuppressionTable] = None,
    baseline: FrozenSet[str] = frozenset(),
    proc_findings: Optional[Dict[str, List[Finding]]] = None,
) -> DiagnosticsResult:
    """Run every enabled check over a pipeline result.

    ``proc_findings`` lets the incremental session pass pre-computed (or
    partially cached) per-procedure findings; when absent they are computed
    fresh.  Program-level checks and the sanitizer always run — they read
    whole-program artifacts no per-procedure dirty set can scope.
    """
    options = options or DiagOptions()
    obs = obs or NULL_OBS

    per_proc = (
        proc_findings
        if proc_findings is not None
        else procedure_findings(result, obs=obs)
    )
    collected: List[Finding] = []
    for name in sorted(per_proc):
        collected.extend(per_proc[name])
    collected.extend(program_findings(result, obs=obs))

    if options.sanitize:
        from repro.diag.sanitize import sanitize_result

        collected.extend(
            _timed_check(
                obs,
                "ICP900",
                lambda: sanitize_result(result, max_steps=options.max_steps),
            )
        )

    active = sorted(
        (f for f in collected if options.admits(f)), key=Finding.sort_key
    )
    kept, suppressed = apply_suppressions(active, suppressions or {})
    kept, baselined = apply_baseline(kept, baseline)

    if obs.metrics.enabled:
        obs.metrics.counter("diag.runs").inc()
        for rule_id, count in DiagnosticsResult(kept).counts.items():
            obs.metrics.counter(f"diag.findings.{rule_id}").inc(count)

    return DiagnosticsResult(
        findings=kept, suppressed=suppressed, baselined=baselined
    )


def check_source(
    source: str,
    path: str = "<string>",
    config=None,
    options: Optional[DiagOptions] = None,
    obs: Optional[Observability] = None,
    baseline: FrozenSet[str] = frozenset(),
) -> DiagnosticsResult:
    """Parse, analyze, and lint one source text (the ``check`` command core).

    ``noqa`` suppressions are read from the source's own comments.  When the
    structural ICP005 scan finds an error the validator would reject, the
    pipeline is skipped and the structural findings alone are reported —
    `check` can lint programs `analyze` refuses.
    """
    from repro.core.config import ICPConfig
    from repro.core.driver import CompilationPipeline
    from repro.diag.suppress import source_suppressions
    from repro.lang.fortran import parse_fortran
    from repro.lang.parser import parse_program
    from repro.lang.symbols import collect_symbols

    fortran = path.lower().endswith((".f", ".for", ".f77"))
    program = parse_fortran(source) if fortran else parse_program(source)
    suppressions = source_suppressions(source, fortran=fortran)
    config = config or ICPConfig()
    options = options or DiagOptions.from_config(config)

    symbols = collect_symbols(program)
    structural = checks.check_call_signatures(
        program, symbols, config.allow_missing
    )
    if checks.has_fatal_signature_errors(structural):
        active = sorted(
            (f for f in structural if options.admits(f)),
            key=Finding.sort_key,
        )
        kept, suppressed = apply_suppressions(active, suppressions)
        kept, baselined = apply_baseline(kept, baseline)
        return DiagnosticsResult(
            findings=kept, suppressed=suppressed, baselined=baselined
        )

    pipeline = CompilationPipeline(config, obs=obs)
    result = pipeline.run(program, previous=symbols)
    return run_diagnostics(
        result,
        options,
        obs=obs,
        suppressions=suppressions,
        baseline=baseline,
    )
