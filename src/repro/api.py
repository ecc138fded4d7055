"""The stable public surface of the reproduction.

Everything a consumer needs lives here; the internal package layout may
shift between releases, this module's names will not (see ``docs/API.md``
for the compatibility contract):

- :func:`analyze` — one-shot analysis of a MiniF program.
- :class:`AnalysisSession` — long-lived incremental re-analysis over edits.
- :class:`ICPConfig` — the pipeline's configuration (with validated
  :meth:`~ICPConfig.from_dict` / :meth:`~ICPConfig.to_dict`).
- :class:`PipelineResult` — what both entry points return.
- :class:`CompilationPipeline` — the underlying phase runner, for callers
  that want to share a summary cache across :meth:`~CompilationPipeline.run`
  calls without session semantics.
- :func:`parse_program` — MiniF text to AST, for pre-parsing or inspection.
- :func:`check_source` / :func:`run_diagnostics` — the diagnostics engine:
  interprocedural lint findings (:class:`Finding`) over one source text or
  an already-computed :class:`PipelineResult`, configured by
  :class:`DiagOptions` and returned as a :class:`DiagnosticsResult`.
- :func:`open_store` — the summary-store surface: the tiered cache a
  config describes (memory → disk).  The store types themselves
  (:class:`SummaryStore`, :class:`PersistentCache`) re-export here for
  typing and direct construction.

``analyze_program`` is the historical name of :func:`analyze` and remains an
alias here.
"""

from typing import Mapping, Optional, Union

from repro.core.config import ICPConfig
from repro.core.driver import CompilationPipeline, PipelineResult, analyze
from repro.diag import (
    DiagnosticsResult,
    DiagOptions,
    Finding,
    check_source,
    run_diagnostics,
)
from repro.lang.parser import parse_program
from repro.sched.cache import SummaryCache
from repro.session import AnalysisSession, SessionStats
from repro.store import PersistentCache, SummaryStore, cache_from_config

#: Backwards-compatible alias for :func:`analyze`.
analyze_program = analyze


def open_store(
    config: Union[ICPConfig, Mapping, None] = None,
) -> Optional[SummaryCache]:
    """The summary cache a config describes, every tier included.

    Accepts an :class:`ICPConfig` or a plain mapping (routed through
    :meth:`ICPConfig.from_dict`).  With ``store_dir`` set the result is a
    :class:`PersistentCache` over the crash-safe disk store; with only
    ``cache`` it is the process-local in-memory cache; otherwise
    ``None``.  Hand the result to :class:`AnalysisSession(cache=...)
    <AnalysisSession>` (or use it per ``repro.store`` docs) to share one
    store across sessions the way the serve daemon does.
    """
    if config is None:
        return None
    if not isinstance(config, ICPConfig):
        config = ICPConfig.from_dict(config)
    return cache_from_config(config)


__all__ = [
    "analyze",
    "analyze_program",
    "AnalysisSession",
    "SessionStats",
    "ICPConfig",
    "PipelineResult",
    "CompilationPipeline",
    "parse_program",
    "check_source",
    "run_diagnostics",
    "DiagOptions",
    "DiagnosticsResult",
    "Finding",
    "open_store",
    "PersistentCache",
    "SummaryStore",
]
