"""Synthetic suite tests: pattern contributions and per-benchmark shape."""

import pytest

from repro.bench.suite import (
    GT_SUBSET,
    SUITE,
    BenchmarkProfile,
    build_benchmark,
    build_benchmark_source,
    compare_context_modes,
)
from repro.core.config import ICPConfig
from repro.core.metrics import call_site_candidates, propagated_constants
from repro.interp import run_program
from repro.lang.validate import validate_program
from tests.helpers import analyze


def metrics_for_profile(profile, **config_kwargs):
    config = ICPConfig(**config_kwargs)
    program = build_benchmark(profile)
    result = analyze(program, **config_kwargs)
    t1 = call_site_candidates(
        profile.name, program, result.symbols, result.pcg, result.modref,
        result.fi, result.fs, config,
    )
    t2 = propagated_constants(
        profile.name, program, result.symbols, result.pcg, result.modref,
        result.fi, result.fs, config,
    )
    return t1, t2


class TestPatternContributions:
    """Each pattern adds exactly its documented metric deltas."""

    def _delta(self, **pattern):
        base_t1, base_t2 = metrics_for_profile(BenchmarkProfile(name="base"))
        t1, t2 = metrics_for_profile(BenchmarkProfile(name="one", **pattern))
        return base_t1, base_t2, t1, t2

    def test_literal_pair(self):
        _, _, t1, t2 = self._delta(literal_pairs=1)
        assert (t1.total_args, t1.imm_args, t1.fi_args, t1.fs_args) == (2, 2, 2, 2)
        assert (t2.total_formals, t2.fi_formals, t2.fs_formals) == (2, 2, 2)

    def test_varying_site(self):
        _, _, t1, t2 = self._delta(varying_sites=1)
        assert (t1.total_args, t1.imm_args, t1.fi_args, t1.fs_args) == (2, 2, 2, 2)
        assert (t2.fi_formals, t2.fs_formals) == (0, 0)

    def test_local_const(self):
        _, _, t1, t2 = self._delta(local_const=1)
        assert (t1.total_args, t1.imm_args, t1.fi_args, t1.fs_args) == (1, 0, 0, 1)
        assert (t2.fi_formals, t2.fs_formals) == (0, 1)

    def test_local_const_varying(self):
        _, _, t1, t2 = self._delta(lcv_int=1)
        assert (t1.total_args, t1.imm_args, t1.fi_args, t1.fs_args) == (4, 3, 3, 4)
        assert (t2.fi_formals, t2.fs_formals) == (0, 0)

    def test_fs_branch(self):
        _, _, t1, t2 = self._delta(fs_branch=1)
        assert (t1.total_args, t1.imm_args, t1.fi_args, t1.fs_args) == (2, 0, 0, 2)
        assert (t2.fi_formals, t2.fs_formals) == (0, 2)

    def test_pt_imm(self):
        _, _, t1, t2 = self._delta(pt_imm=1)
        # The only pattern where FI args exceed IMM (the WAVE5 effect).
        assert (t1.total_args, t1.imm_args, t1.fi_args, t1.fs_args) == (2, 1, 2, 2)
        assert (t2.fi_formals, t2.fs_formals) == (2, 2)

    def test_filler_driver(self):
        _, _, t1, t2 = self._delta(filler_drivers=1)
        assert t1.total_args == 9
        assert (t1.imm_args, t1.fi_args, t1.fs_args) == (0, 0, 0)
        assert (t2.fi_formals, t2.fs_formals) == (0, 0)

    def test_deep_chain(self):
        _, _, t1, t2 = self._delta(deep_chains=1)
        assert t1.total_args == 5
        assert (t1.imm_args, t1.fi_args, t1.fs_args) == (0, 0, 0)
        assert (t2.fi_formals, t2.fs_formals) == (0, 0)

    def test_array_kernel(self):
        _, _, t1, t2 = self._delta(array_kernels=1)
        # Constant array values exist but no method propagates them (the
        # paper's acknowledged limitation).
        assert t1.total_args == 2
        assert (t1.imm_args, t1.fi_args, t1.fs_args) == (0, 0, 0)
        assert (t2.fi_formals, t2.fs_formals) == (0, 0)

    def test_deep_chain_depth(self):
        from repro.bench.characteristics import characterize
        from repro.bench.suite import BenchmarkProfile, build_benchmark

        program = build_benchmark(BenchmarkProfile(name="d", deep_chains=1))
        assert characterize(program).max_pcg_depth == 6  # driver + 5 stages

    def test_fi_float_global(self):
        _, _, t1, t2 = self._delta(fi_float_globals=1, global_fanout=2)
        assert t1.fi_global_candidates == 1
        assert t1.fs_globals_at_sites == 2
        assert t2.fi_globals == t2.fs_globals == 3  # two readers + main print

    def test_killed_global(self):
        _, _, t1, t2 = self._delta(killed_globals=1)
        assert t1.fi_global_candidates == 1
        assert t2.fi_globals == 0

    def test_fs_int_global(self):
        _, _, t1, t2 = self._delta(fs_int_globals=1)
        assert t1.fi_global_candidates == 0
        assert t1.fs_globals_at_sites == 2
        assert t1.vis_globals_at_sites == 2
        assert (t2.fi_globals, t2.fs_globals) == (0, 1)

    def test_invisible_global(self):
        _, _, t1, t2 = self._delta(invisible_globals=1)
        assert t1.fs_globals_at_sites == 2
        assert t1.vis_globals_at_sites == 0

    def test_float_patterns_vanish_without_floats(self):
        t1_on, _ = metrics_for_profile(
            BenchmarkProfile(name="f", lcv_float=1)
        )
        t1_off, _ = metrics_for_profile(
            BenchmarkProfile(name="f", lcv_float=1), propagate_floats=False
        )
        assert t1_on.fs_args == t1_off.fs_args + 1
        assert t1_on.imm_args == t1_off.imm_args  # IMM is syntactic


class TestSuitePrograms:
    @pytest.mark.parametrize("name", list(SUITE))
    def test_benchmarks_validate(self, name):
        validate_program(build_benchmark(SUITE[name]))

    @pytest.mark.parametrize("name", list(SUITE))
    def test_benchmarks_execute(self, name):
        outputs = run_program(build_benchmark(SUITE[name]), max_steps=500_000)
        assert outputs.steps > 0

    def test_source_deterministic(self):
        name = "039.wave5"
        assert build_benchmark_source(SUITE[name]) == build_benchmark_source(SUITE[name])

    def test_gt_subset_members_exist(self):
        assert set(GT_SUBSET) <= set(SUITE)
        for name in GT_SUBSET:
            assert SUITE[name].paper_t3 is not None
            assert SUITE[name].paper_t4 is not None


class TestSuiteShape:
    """The paper's qualitative claims hold on every analog benchmark."""

    @pytest.mark.parametrize("name", list(SUITE))
    def test_fs_args_geq_fi_args(self, name):
        t1, _ = metrics_for_profile(SUITE[name])
        assert t1.fs_args >= t1.fi_args

    @pytest.mark.parametrize("name", list(SUITE))
    def test_fi_args_geq_imm(self, name):
        t1, _ = metrics_for_profile(SUITE[name])
        assert t1.fi_args >= t1.imm_args

    @pytest.mark.parametrize("name", list(SUITE))
    def test_fs_formals_geq_fi(self, name):
        _, t2 = metrics_for_profile(SUITE[name])
        assert t2.fs_formals >= t2.fi_formals

    def test_wave5_pass_through_effect(self):
        t1, _ = metrics_for_profile(SUITE["039.wave5"])
        assert t1.fi_args == t1.imm_args + 2  # the paper's +2

    def test_matrix300_large_fs_win(self):
        t1, t2 = metrics_for_profile(SUITE["030.matrix300"])
        assert t1.fs_args >= 2 * t1.fi_args  # paper: 110 vs 25
        assert t2.fs_formals >= 2 * t2.fi_formals  # paper: 15 vs 2

    def test_doduc_small_diff(self):
        _, t2 = metrics_for_profile(SUITE["015.doduc"])
        assert t2.fs_formals == t2.fi_formals  # paper: 2 == 2

    def test_fs_globals_exceed_fi_globals_overall(self):
        fi_total = fs_total = 0
        for profile in SUITE.values():
            _, t2 = metrics_for_profile(profile)
            fi_total += t2.fi_globals
            fs_total += t2.fs_globals
        # Paper: FS finds more than three times the FI global constants.
        assert fs_total >= 3 * fi_total > 0

    def test_all_fi_globals_are_floats(self):
        # Paper: "All of the global constants found by the flow-insensitive
        # method are floating point constants."
        for profile in SUITE.values():
            program = build_benchmark(profile)
            result = analyze(program)
            for value in result.fi.global_constants.values():
                assert isinstance(value, float), profile.name


class TestContextModes:
    def test_contexts_comparison(self):
        profiles = compare_context_modes()
        for name in ("rec.self", "rec.mutual", "rec.mixed", "rec.blowup"):
            both = profiles[name]
            assert both["carini-hind"]["fallback_edges"] > 0
            assert "contexts" in both["value-contexts"]
        # The resolvable profiles drop every fallback edge and win formals.
        for name in ("rec.self", "rec.mutual", "rec.mixed"):
            ctx = profiles[name]["value-contexts"]
            assert ctx["fallback_edges"] == 0
            assert (
                ctx["constant_formals"]
                > profiles[name]["carini-hind"]["constant_formals"]
            )
        # The guard profile keeps its degraded sites on the fallback.
        blowup = profiles["rec.blowup"]["value-contexts"]
        assert blowup["fallback_edges"] > 0
        assert blowup["contexts"]["degraded_procs"]
        # Precision only: speed is perfbench's to measure.
        assert all(
            "wall_seconds" not in row
            for modes in profiles.values()
            for row in modes.values()
        )
