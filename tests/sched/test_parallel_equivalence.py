"""Cached runs reproduce the uncached pipeline exactly.

The uncached traversal is the reference semantics; a run through the
summary cache must be observationally identical to it, both cold (every
lookup misses) and warm (a rerun on the same pipeline, every lookup hits)
— same summaries, same metrics, same table orders, same fallback-edge
lists — over the hand-written corpus and a generated sweep (including
recursive programs, whose PCGs exercise fallback edges).
"""

import pytest

from repro.bench.corpus import corpus
from repro.bench.generator import GeneratorConfig, generate_program
from repro.core.config import ICPConfig
from repro.api import CompilationPipeline
from repro.core.metrics import call_site_candidates, propagated_constants


def canonical(result):
    """Everything observable about a run, rendered type-sensitively.

    ``repr`` distinguishes ``Const(2)`` from ``Const(2.0)``, so equality here
    is byte-identity of the analysis outcome, not merely value equality.
    Dict orders are compared too (as item lists): cached runs must present
    their tables in the uncached traversal's order.
    """
    snap = {
        "summary": result.summary(),
        "entry_formals": sorted(
            (k, repr(v)) for k, v in result.fs.entry_formals.items()
        ),
        "entry_globals": sorted(
            (k, repr(v)) for k, v in result.fs.entry_globals.items()
        ),
        "fallback_edges": list(result.fs.fallback_edges),
        "intra_order": list(result.fs.intra),
        "entry_formals_order": list(result.fs.entry_formals),
        "entry_globals_order": list(result.fs.entry_globals),
        "use_order": list(result.use.use),
        "use": sorted((k, sorted(v)) for k, v in result.use.use.items()),
        "use_fallback": sorted(
            (s.caller, s.index) for s in result.use.fallback_sites
        ),
        "candidates": call_site_candidates(
            "x", result.program, result.symbols, result.pcg, result.modref,
            result.fi, result.fs, result.config,
        ),
        "propagated": propagated_constants(
            "x", result.program, result.symbols, result.pcg, result.modref,
            result.fi, result.fs, result.config,
        ),
    }
    if result.returns is not None:
        snap["fs_returns_order"] = list(result.returns.fs_returns)
        snap["fs_returns"] = [
            (k, repr(v)) for k, v in result.returns.fs_returns.items()
        ]
        snap["exit_values"] = [
            (proc, sorted((var, repr(v)) for var, v in table.items()))
            for proc, table in result.returns.exit_values.items()
        ]
    return snap


def assert_equivalent(program, **config_kwargs):
    uncached = canonical(
        CompilationPipeline(ICPConfig(**config_kwargs)).run(program)
    )
    pipeline = CompilationPipeline(ICPConfig(cache=True, **config_kwargs))
    for label in ("cold cache", "warm cache"):
        result = pipeline.run(program)
        cached = canonical(result)
        for field in uncached:
            assert cached[field] == uncached[field], (
                f"{field} diverged under the {label}"
            )
    assert result.sched.tasks_run == 0, "the warm rerun ran the engine"


class TestCorpusEquivalence:
    @pytest.mark.parametrize(
        "name", [entry.name for entry in corpus()]
    )
    @pytest.mark.parametrize("engine", ["scc", "simple"])
    def test_corpus_program(self, name, engine):
        entry = next(e for e in corpus() if e.name == name)
        assert_equivalent(entry.parse(), engine=engine)

    def test_corpus_with_returns_and_exit_values(self):
        for entry in corpus():
            assert_equivalent(
                entry.parse(),
                propagate_returns=True,
                propagate_exit_values=True,
            )


class TestGeneratedEquivalence:
    def test_acyclic_sweep(self):
        for seed in range(20):
            assert_equivalent(generate_program(seed))

    def test_recursive_sweep(self):
        config = GeneratorConfig(allow_recursion=True)
        for seed in range(12):
            assert_equivalent(generate_program(seed, config))

    def test_simple_engine_sweep(self):
        for seed in range(8):
            assert_equivalent(generate_program(seed), engine="simple")

    def test_returns_sweep(self):
        for seed in range(10):
            assert_equivalent(
                generate_program(seed),
                propagate_returns=True,
                propagate_exit_values=True,
            )
