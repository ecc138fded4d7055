"""Intraprocedural analyses: constant propagation engines and transforms."""

from repro.analysis.base import (
    CallEffects,
    CallSiteValues,
    ConservativeEffects,
    IntraEngine,
    IntraResult,
)
from repro.analysis.scc import SCCEngine
from repro.analysis.simple import SimpleEngine
from repro.analysis.liveness import upward_exposed
from repro.analysis.transform import TransformResult, transform_program


def make_engine(name: str) -> IntraEngine:
    """A fresh intraprocedural engine for ``ICPConfig.engine``.

    The one factory the pipeline's engine passes share.
    """
    if name == "scc":
        return SCCEngine()
    if name == "simple":
        return SimpleEngine()
    raise ValueError(f"unknown intraprocedural engine {name!r}")


__all__ = [
    "CallEffects",
    "CallSiteValues",
    "ConservativeEffects",
    "IntraEngine",
    "IntraResult",
    "SCCEngine",
    "SimpleEngine",
    "TransformResult",
    "make_engine",
    "transform_program",
    "upward_exposed",
]
