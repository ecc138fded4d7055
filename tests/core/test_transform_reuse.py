"""A transformation that reuses the pipeline's engine runs equals a fresh one.

The pipeline hands ``transform_program`` the SCC details its FS pass (or
returns pass) already computed with the transformation's own inputs.  Every
pipeline transform here must come out exactly as ``transform_program``
does with no details, analyzing each procedure afresh on the same entry
environments and effects: the same program text and the same
substitution, fold and prune tables.

A warm cache returns details lowered from another copy of a procedure (an
earlier parse), whose statement maps do not fit the procedure being
rewritten; that case fails if the transformation stops checking that a
detail was lowered from the very procedure object it rewrites.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.transform import transform_program
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.programs import FIGURE1_SOURCE
from repro.bench.suite import RECURSION_SUITE, SUITE, build_benchmark_source
from repro.core.config import ICPConfig
from repro.core.driver import CompilationPipeline, transform_inputs
from repro.lang.pretty import pretty_program
from repro.obs import Observability
from repro.session import AnalysisSession
from repro.session.mutate import mutated_source

PLAIN = GeneratorConfig(n_procs=8)
RECURSIVE = GeneratorConfig(n_procs=8, allow_recursion=True, p_call=0.40)

#: ``b`` calls ``a``, which comes earlier in RPO: the returns pass gives
#: ``b``'s run the flow-insensitive return of ``a`` (not constant), the
#: transformation the final one (7).
RETURNS_BACK_EDGE = """
proc main() { t = 1; x = a(t); t = 2; print(t); print(x); }
proc a(p) { if (p == 1) { return 7; } y = b(); return y; }
proc b() { z = a(1); print(z); return z + 1; }
"""

#: (name, MiniF text): each pipeline run parses its own AST.
PROGRAMS = (
    [("figure1", FIGURE1_SOURCE), ("returns back edge", RETURNS_BACK_EDGE)]
    + [
        (name, build_benchmark_source(profile, 2))
        for name, profile in SUITE.items()
    ]
    + [
        (name, build_benchmark_source(profile, 1))
        for name, profile in RECURSION_SUITE.items()
    ]
    + [
        (f"{label} {seed}", pretty_program(generate_program(seed, shape)))
        for label, shape in (("plain", PLAIN), ("recursive", RECURSIVE))
        for seed in range(10)
    ]
)

#: One pipeline per config, each program run once.
CONFIGS = {
    "default": {},
    "returns": {"propagate_returns": True},
    "exit_values": {"propagate_exit_values": True},
    "value_contexts": {"context_mode": "value-contexts"},
    "simple_engine": {"engine": "simple"},
    "entry_assignments": {"insert_entry_assignments": True},
}


def _shape(transform):
    return (
        pretty_program(transform.program),
        transform.substitutions,
        transform.folds,
        transform.pruned_branches,
    )


def _differs_from_fresh(result) -> bool:
    config = result.config
    entry_envs, effects = transform_inputs(
        result.program, result.symbols, result.modref, result.aliases,
        result.fs, result.returns, config,
    )
    fresh = transform_program(
        result.program,
        result.symbols,
        entry_envs,
        effects,
        prune_dead_branches=config.prune_dead_branches,
        insert_entry_assignments=config.insert_entry_assignments,
    )
    return _shape(result.transform) != _shape(fresh)


def _run_passes(pipelines):
    """Run every program through each pipeline; name the mismatches."""
    mismatches = []
    for index, pipeline in enumerate(pipelines):
        for name, source in PROGRAMS:
            result = pipeline.run(source, run_transform=True)
            if _differs_from_fresh(result):
                mismatches.append(f"run {index + 1}: {name}")
    return mismatches


@pytest.mark.parametrize("overrides", CONFIGS.values(), ids=list(CONFIGS))
def test_transform_matches_fresh_run(overrides):
    pipeline = CompilationPipeline(ICPConfig.from_dict(overrides))
    assert _run_passes([pipeline]) == []


def test_warm_cache_rerun_matches_fresh_run():
    # The second run of each program finds the first parse's details.
    pipeline = CompilationPipeline(ICPConfig(cache=True))
    assert _run_passes([pipeline, pipeline]) == []


def test_warm_store_rerun_matches_fresh_run(tmp_path):
    # A store hit carries no detail: the transformation analyzes afresh.
    config = ICPConfig(store_dir=str(tmp_path / "store"))
    assert _run_passes(
        [CompilationPipeline(config), CompilationPipeline(config)]
    ) == []


def test_session_edits_match_fresh_run():
    # A session copies its clean procedures' FS runs from the previous
    # analysis, and an edit keeps their procedure objects, so the
    # transformation rewrites them from those copied runs.
    rng = random.Random(0)
    mismatches = []
    for name, source in PROGRAMS:
        session = AnalysisSession(source)
        session.analyze(run_transform=True)
        for edit in range(2):
            procs = session.program.procedures
            target = procs[rng.randrange(len(procs))]
            session.update(
                target.name, mutated_source(target, rng.randrange(1 << 30))
            )
            if _differs_from_fresh(session.analyze(run_transform=True)):
                mismatches.append(f"edit {edit + 1}: {name}")
    assert mismatches == []


def test_default_config_analyzes_only_procedures_outside_the_pcg():
    # Every PCG procedure is rewritten from its FS run; the transformation
    # runs the engine only for procedures unreachable from main.
    obs = Observability.create(trace=True)
    pipeline = CompilationPipeline(ICPConfig(), obs=obs)
    expected = 0
    for _, source in PROGRAMS:
        result = pipeline.run(source, run_transform=True)
        expected += len(result.program.procedures) - len(result.pcg.nodes)
    transform_runs = [
        event
        for event in obs.tracer.events()
        if event["name"] == "engine"
        and event["ph"] == "B"
        and event["args"]["pass_label"] == "transform"
    ]
    assert len(transform_runs) == expected
