"""The paper's contribution: interprocedural constant propagation.

- :mod:`repro.core.flow_insensitive` — the Figure 3 algorithm (formal
  parameters with ``fp_bind`` pass-through, block-data global constants).
- :mod:`repro.core.flow_sensitive` — the Figure 4 algorithm: one forward
  traversal of the PCG interleaving a flow-sensitive intraprocedural analysis
  per procedure, with the flow-insensitive solution on back edges.
- :mod:`repro.core.jump_functions` — the Callahan–Cooper–Kennedy–Torczon /
  Grove–Torczon jump-function baselines (LITERAL, INTRA, PASS-THROUGH,
  POLYNOMIAL).
- :mod:`repro.core.returns` — the Section 3.2 return-constant extension.
- :mod:`repro.core.metrics` — the paper's Section 4 metrics.
- :mod:`repro.core.driver` — the Figure 2 compilation model.
"""

from repro.core.cloning import CloningResult, clone_for_constants
from repro.core.config import ICPConfig
from repro.core.driver import CompilationPipeline, PipelineResult, analyze

#: Historical name of :func:`analyze`, kept importable from here.
analyze_program = analyze
from repro.core.flow_insensitive import FIResult, flow_insensitive_icp
from repro.core.flow_sensitive import FSResult, flow_sensitive_icp
from repro.core.inlining import InlineResult, inline_calls
from repro.core.iterative import IterativeResult, iterative_flow_sensitive_icp
from repro.core.jump_functions import JumpFunctionKind, jump_function_icp
from repro.core.metrics import (
    CallSiteCandidates,
    PropagatedConstants,
    call_site_candidates,
    propagated_constants,
)
from repro.core.optimize import OptimizeResult, optimize_program
from repro.core.returns import ReturnsResult, compute_returns

__all__ = [
    "CallSiteCandidates",
    "CloningResult",
    "CompilationPipeline",
    "FIResult",
    "FSResult",
    "ICPConfig",
    "InlineResult",
    "IterativeResult",
    "JumpFunctionKind",
    "OptimizeResult",
    "PipelineResult",
    "PropagatedConstants",
    "ReturnsResult",
    "analyze",
    "analyze_program",
    "call_site_candidates",
    "clone_for_constants",
    "compute_returns",
    "flow_insensitive_icp",
    "flow_sensitive_icp",
    "inline_calls",
    "iterative_flow_sensitive_icp",
    "jump_function_icp",
    "optimize_program",
    "propagated_constants",
]
