"""Flow-sensitive interprocedural constant propagation (Carini & Hind, PLDI 1995).

This package is a full, from-scratch reproduction of the paper's system:

- :mod:`repro.lang` — the MiniF language frontend (a Fortran-semantics mini
  language: by-reference parameters, ``global`` variables, ``init`` blocks).
- :mod:`repro.ir` — CFG, dominators, SSA form, and the constant lattice.
- :mod:`repro.analysis` — Wegman–Zadeck sparse conditional constant propagation
  and the constant-substitution transformation.
- :mod:`repro.callgraph` — the program call graph (PCG).
- :mod:`repro.summary` — interprocedural alias, MOD/REF and USE summaries.
- :mod:`repro.core` — the paper's contribution: flow-insensitive (Figure 3) and
  flow-sensitive (Figure 4) interprocedural constant propagation, the
  jump-function baselines, the metrics of Section 4, and the Figure 2 driver.
- :mod:`repro.interp` — a reference interpreter used to validate soundness.
- :mod:`repro.bench` — paper programs, workload generator, and table harness.

The stable public surface is :mod:`repro.api` (re-exported here)::

    from repro.api import analyze, AnalysisSession, ICPConfig
    result = analyze(source_text)
    print(result.summary())

    session = AnalysisSession(source_text)
    session.analyze()
    session.update("helper", new_helper_source)
    result = session.analyze()   # re-analyzes only the affected PCG region
"""

from repro.api import (
    AnalysisSession,
    CompilationPipeline,
    ICPConfig,
    PersistentCache,
    PipelineResult,
    SummaryStore,
    analyze,
    analyze_program,
    open_store,
    parse_program,
)

__all__ = [
    "AnalysisSession",
    "CompilationPipeline",
    "ICPConfig",
    "PersistentCache",
    "PipelineResult",
    "SummaryStore",
    "analyze",
    "analyze_program",
    "open_store",
    "parse_program",
]

__version__ = "1.0.0"
