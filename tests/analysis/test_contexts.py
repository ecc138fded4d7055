"""Value-context tabulation: precision, termination, and the blowup guard.

The ``value-contexts`` mode analyzes each procedure once per distinct
abstract entry environment instead of degrading recursion cycles to the
flow-insensitive fallback.  These tests pin down the three contracts:

- **Precision**: constants threaded through recursion cycles (where the
  one-pass traversal answers BOTTOM) are found, and no entry fact is ever
  *less* precise than the carini-hind answer.
- **Termination**: descending recursion bottoms out on its base case;
  abstractly unbounded recursion is cut by the ``context_max_per_proc``
  guard, which degrades the offending sites back to the FI fallback (and
  keeps their ICP006 notes) instead of diverging.
- **Soundness**: the recorder-backed oracle accepts every claim in both
  modes (ICP900's contract).
"""

import pytest

from repro.core.config import ICPConfig
from repro.core.report import analysis_report
from repro.diag import check_source
from repro.ir.lattice import BOTTOM, Const, lattice_le
from repro.sched.cache import combine_key
from repro.sched.scheduler import AnalysisTask

from tests.helpers import analyze, assert_sound

SELF_CONST = """\
proc main() { call f(3, 5); }
proc f(n, c) {
    m = 5;
    if (n > 0) { call f(n - 1, m); }
    print(n + c);
}
"""

MUTUAL = """\
proc main() {
    w = 9;
    call even(4, w);
}
proc even(n, c) {
    if (n > 0) { call odd(n - 1, c); }
    print(c);
}
proc odd(n, c) {
    if (n > 0) { call even(n - 1, c); }
    print(c);
}
"""

#: Abstractly unbounded ascent: the bound global is non-constant, so the
#: recursive branch never goes dead and every call wants a fresh context.
BLOWUP = """\
global bound;
init { bound = 3; }
proc main() {
    i = 2;
    while (i > 0) { bound = bound + i; i = i - 1; }
    call up(0);
}
proc up(n) {
    if (n < bound) { call up(n + 1); }
    print(n);
}
"""


def entry_formal(result, proc, formal):
    return result.fs.entry_formals.get((proc, formal), BOTTOM)


class TestPrecision:
    def test_local_constant_through_self_recursion(self):
        base = analyze(SELF_CONST)
        ctx = analyze(SELF_CONST, context_mode="value-contexts")
        # The recursive site passes local `m` (always 5); the one-pass
        # traversal consults the FI fallback (locals are BOTTOM there).
        assert entry_formal(base, "f", "c") == BOTTOM
        assert entry_formal(ctx, "f", "c") == Const(5)

    def test_mutual_recursion_threads_constant(self):
        base = analyze(MUTUAL)
        ctx = analyze(MUTUAL, context_mode="value-contexts")
        for proc in ("even", "odd"):
            assert entry_formal(base, proc, "c") == BOTTOM
            assert entry_formal(ctx, proc, "c") == Const(9)

    @pytest.mark.parametrize("source", [SELF_CONST, MUTUAL, BLOWUP])
    def test_entries_never_less_precise_than_carini_hind(self, source):
        base = analyze(source)
        ctx = analyze(source, context_mode="value-contexts")
        for key, value in base.fs.entry_formals.items():
            assert lattice_le(value, ctx.fs.entry_formals[key]), key
        for key, value in base.fs.entry_globals.items():
            assert lattice_le(value, ctx.fs.entry_globals[key]), key

    @pytest.mark.parametrize("source", [SELF_CONST, MUTUAL, BLOWUP])
    @pytest.mark.parametrize("mode", ["carini-hind", "value-contexts"])
    def test_claims_sound_in_both_modes(self, source, mode):
        assert_sound(source, context_mode=mode)


class TestFallbackResolution:
    def test_resolved_cycles_drop_their_fallback_edges(self):
        for source in (SELF_CONST, MUTUAL):
            base = analyze(source)
            ctx = analyze(source, context_mode="value-contexts")
            assert base.fs.fallback_edges
            assert ctx.fs.fallback_edges == []

    def test_icp006_disappears_for_resolved_cycles(self):
        config = ICPConfig(context_mode="value-contexts")
        for source in (SELF_CONST, MUTUAL):
            base_notes = [
                f
                for f in check_source(source).findings
                if f.rule_id == "ICP006"
            ]
            ctx_notes = [
                f
                for f in check_source(source, config=config).findings
                if f.rule_id == "ICP006"
            ]
            assert base_notes and not ctx_notes

    def test_icp006_survives_for_degraded_sites(self):
        # The blowup guard routes 'up' back to the FI fallback, so its
        # note — naming the cycle — must still be reported.
        config = ICPConfig(context_mode="value-contexts", context_max_per_proc=4)
        notes = [
            f
            for f in check_source(BLOWUP, config=config).findings
            if f.rule_id == "ICP006"
        ]
        assert len(notes) == 1
        assert "recursion cycle through 'up'" in notes[0].message


class TestBlowupGuard:
    def test_degrades_and_terminates(self):
        result = analyze(
            BLOWUP, context_mode="value-contexts", context_max_per_proc=4
        )
        stats = result.fs.contexts
        assert stats.degraded_procs == ["up"]
        assert stats.degraded_requests > 0
        # The table holds at most the cap plus the one widened context.
        assert stats.max_table_size <= 5
        assert [edge.callee for edge in result.fs.fallback_edges] == ["up"]

    def test_degraded_entry_matches_carini_hind(self):
        base = analyze(BLOWUP)
        ctx = analyze(
            BLOWUP, context_mode="value-contexts", context_max_per_proc=4
        )
        assert entry_formal(ctx, "up", "n") == entry_formal(base, "up", "n")

    def test_descending_recursion_needs_no_guard(self):
        result = analyze(SELF_CONST, context_mode="value-contexts")
        stats = result.fs.contexts
        assert stats.degraded_procs == []
        assert stats.degraded_requests == 0
        # One context per reached (n, c) pair: main plus f@3..0.
        assert stats.contexts == 5


class TestStatsAndReport:
    def test_carini_hind_has_no_contexts_section(self):
        result = analyze(SELF_CONST)
        assert result.fs.contexts is None
        assert "value contexts:" not in analysis_report(result)

    def test_value_contexts_report_renders_stats(self):
        result = analyze(SELF_CONST, context_mode="value-contexts")
        report = analysis_report(result)
        assert "value contexts: 5 context(s)" in report
        assert "widenings: 0; degraded procedures: none" in report
        assert "value contexts" in result.summary()

    def test_stats_to_dict_schema(self):
        result = analyze(MUTUAL, context_mode="value-contexts")
        payload = result.fs.contexts.to_dict()
        assert payload["mode"] == "value-contexts"
        assert set(payload) >= {
            "contexts",
            "rounds",
            "widenings",
            "degraded_requests",
            "degraded_procs",
            "max_table_size",
            "procs",
        }

    def test_report_deterministic_across_schedulers(self):
        serial = analysis_report(
            analyze(MUTUAL, context_mode="value-contexts")
        )
        parallel = analysis_report(
            analyze(MUTUAL, context_mode="value-contexts", cache=True)
        )
        assert serial == parallel


class TestSchedulerContextTasks:
    def _task(self, context=None):
        from repro.core.effects import SummaryEffects
        from repro.lang.parser import parse_program
        from repro.lang.symbols import collect_symbols

        program = parse_program("proc f(a) { print(a); }")
        proc = program.procedures[0]
        return AnalysisTask(
            proc=proc,
            symbols=collect_symbols(program)["f"],
            entry_env={},
            effects=SummaryEffects(None, None),
            pass_label="fs",
            # As in the tabulation, the context's environment fingerprint
            # is one of the task's fingerprints.
            fingerprints=("p", context or "e", "x", "c"),
            context=context,
        )

    def test_key_and_slot_without_context_match_legacy(self):
        task = self._task()
        assert task.key == combine_key("p", "e", "x", "c")
        assert task.slot == ("fs", "f")

    def test_contexts_get_distinct_keys_but_share_proc_slot(self):
        one = self._task(context="aaaa")
        two = self._task(context="bbbb")
        assert one.key != two.key
        assert one.slot != two.slot
        # The procedure name stays in slot[1]: evict_procs invalidates
        # every context of an edited procedure by matching on it.
        assert one.slot[1] == two.slot[1] == "f"


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="context_mode"):
            ICPConfig.from_dict({"context_mode": "k-cfa"})

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError, match="context_max_per_proc"):
            ICPConfig.from_dict({"context_max_per_proc": 0})

    def test_bool_cap_rejected(self):
        with pytest.raises(ValueError, match="context_max_per_proc"):
            ICPConfig.from_dict({"context_max_per_proc": True})

    def test_roundtrip_keeps_context_knobs(self):
        config = ICPConfig.from_dict(
            {"context_mode": "value-contexts", "context_max_per_proc": 8}
        )
        data = config.to_dict()
        assert data["context_mode"] == "value-contexts"
        assert data["context_max_per_proc"] == 8
