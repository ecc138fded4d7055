"""Differential suite: sessions must match cold analysis byte-for-byte.

Randomized single-procedure mutations over the PR 1 generator corpus and
the synthetic benchmark suite; every edit asserts the session's
deterministic report equals a cold re-analysis of the same program, and
that the engine ran on strictly fewer procedures than a cold run would.
"""

import random
from dataclasses import replace

import pytest

from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.suite import SUITE, build_benchmark_source
from repro.core.report import analysis_report
from repro.session import AnalysisSession
from repro.session.mutate import mutated_source, render_procedure

from repro.core.driver import analyze

ACYCLIC_SEEDS = range(0, 40, 4)
RECURSIVE_SEEDS = range(0, 20, 4)
EDITS_PER_PROGRAM = 3


def drive_edits(session, rng, edits=EDITS_PER_PROGRAM, strict_reuse=True):
    """Apply mutations, checking identity and containment on each.

    Byte identity must hold for every edit.  The engine must never run
    outside the computed dirty region; generator programs can be a single
    procedure or a chain rooted at the edited one (where a full re-run is
    the correct answer), so *strict* reuse is asserted in aggregate by the
    callers, not per edit.  ``strict_reuse=False`` skips the clean-copy
    containment check — value-contexts sessions reuse through the summary
    cache instead of the dirty-region fast path.
    """
    applied = 0
    for _ in range(edits):
        procs = session.program.procedures
        changed = False
        for _ in range(8):
            target = procs[rng.randrange(len(procs))]
            changed = session.update(
                target.name, mutated_source(target, rng.randrange(1 << 30))
            )
            if changed:
                break
        if not changed:
            continue
        result = session.analyze()
        cold_config = replace(session.config, cache=False)
        cold = analyze(session.program, cold_config)
        assert analysis_report(result) == analysis_report(cold), (
            f"session diverged from cold analysis after editing {target.name!r}"
        )
        # The report shows only the fallback ratio; ICP006 reads the edges.
        assert result.fs.fallback_edges == cold.fs.fallback_edges
        assert result.fs.fs_reachable == cold.fs.fs_reachable
        if strict_reuse:
            sched = result.sched
            region = session.last_region
            clean = set(result.pcg.nodes) - set(region.fs_dirty)
            assert sched.tasks_reused == len(clean), (
                "every procedure outside the dirty region must be copied, "
                "never re-dispatched (and nothing inside it copied)"
            )
        applied += 1
    return applied


class TestGeneratorCorpus:
    def test_acyclic_seeds(self):
        applied = reused = 0
        for seed in ACYCLIC_SEEDS:
            session = AnalysisSession(generate_program(seed))
            session.analyze()
            applied += drive_edits(session, random.Random(seed))
            reused += session.stats.total_reused
        assert applied > 0
        assert reused > 0  # aggregate strict reuse across the corpus

    def test_recursive_seeds(self):
        config = GeneratorConfig(allow_recursion=True)
        applied = reused = 0
        for seed in RECURSIVE_SEEDS:
            session = AnalysisSession(generate_program(seed, config))
            session.analyze()
            applied += drive_edits(session, random.Random(seed))
            reused += session.stats.total_reused
        assert applied > 0
        assert reused > 0

    def test_returns_extension(self):
        applied = 0
        for seed in ACYCLIC_SEEDS:
            session = AnalysisSession(
                generate_program(seed),
                {"propagate_returns": True, "propagate_exit_values": True},
            )
            session.analyze()
            applied += drive_edits(session, random.Random(seed + 99))
        assert applied > 0


class TestValueContextsSessions:
    """Sessions under ``context_mode="value-contexts"``.

    The clean-copy fast path does not apply (merged results are meets over
    per-context tables), so every analysis re-runs the tabulation — but
    unchanged (context, procedure) pairs come back from the summary cache,
    and the rendered report must still match a cold analysis byte for byte
    after every edit.
    """

    CONFIG = {"context_mode": "value-contexts"}

    def test_recursive_seeds(self):
        config = GeneratorConfig(allow_recursion=True)
        applied = cached = 0
        for seed in RECURSIVE_SEEDS:
            session = AnalysisSession(
                generate_program(seed, config), self.CONFIG
            )
            session.analyze()
            applied += drive_edits(
                session, random.Random(seed), strict_reuse=False
            )
            cached += session.stats.last_cached
        assert applied > 0
        assert cached > 0  # cache-tier reuse stands in for clean copies

    @pytest.mark.parametrize("name", ["rec.self", "rec.mutual", "rec.blowup"])
    def test_recursion_suite_mutations(self, name):
        from repro.bench.suite import RECURSION_SUITE

        session = AnalysisSession(
            build_benchmark_source(RECURSION_SUITE[name]), self.CONFIG
        )
        session.analyze()
        applied = drive_edits(
            session, random.Random(11), edits=3, strict_reuse=False
        )
        assert applied > 0

    @pytest.mark.parametrize("name", ["rec.self", "rec.mutual", "rec.blowup"])
    def test_recursion_suite_default_mode(self, name):
        # The same recursion-heavy programs through the carini-hind
        # session path, with the strict clean-copy containment intact.
        from repro.bench.suite import RECURSION_SUITE

        session = AnalysisSession(build_benchmark_source(RECURSION_SUITE[name]))
        session.analyze()
        applied = drive_edits(session, random.Random(11), edits=3)
        assert applied > 0


class TestBenchmarkSuite:
    @pytest.mark.parametrize("name", ["030.matrix300", "093.nasa7", "039.wave5"])
    def test_suite_mutations(self, name):
        session = AnalysisSession(build_benchmark_source(SUITE[name]))
        session.analyze()
        applied = drive_edits(session, random.Random(7), edits=4)
        assert applied > 0
        assert session.stats.reuse_rate > 0

    def test_render_roundtrip_is_noop(self):
        # Rendering a procedure and updating with it must change nothing.
        session = AnalysisSession(build_benchmark_source(SUITE["094.fpppp"]))
        session.analyze()
        for proc in list(session.program.procedures)[:10]:
            assert not session.update(proc.name, render_procedure(proc))
