"""Section 4 metric tests: each pattern contributes exactly what it should."""

from repro.core.config import ICPConfig
from repro.core.metrics import call_site_candidates, propagated_constants
from tests.helpers import analyze


def metrics_for(source, **config_kwargs):
    config = ICPConfig(**config_kwargs)
    result = analyze(source, **config_kwargs)
    t1 = call_site_candidates(
        "t", result.program, result.symbols, result.pcg, result.modref,
        result.fi, result.fs, config,
    )
    t2 = propagated_constants(
        "t", result.program, result.symbols, result.pcg, result.modref,
        result.fi, result.fs, config,
    )
    return t1, t2


class TestArgumentCounts:
    def test_literal_args(self):
        t1, t2 = metrics_for(
            "proc main() { call f(1, 2); } proc f(a, b) { print(a + b); }"
        )
        assert (t1.total_args, t1.imm_args, t1.fi_args, t1.fs_args) == (2, 2, 2, 2)
        assert (t2.total_formals, t2.fi_formals, t2.fs_formals) == (2, 2, 2)

    def test_local_const_arg_fs_only(self):
        t1, t2 = metrics_for(
            "proc main() { x = 3; call f(x); } proc f(a) { print(a); }"
        )
        assert (t1.imm_args, t1.fi_args, t1.fs_args) == (0, 0, 1)
        assert (t2.fi_formals, t2.fs_formals) == (0, 1)

    def test_varying_arg_counts_at_each_site(self):
        t1, t2 = metrics_for(
            "proc main() { call f(1); call f(2); } proc f(a) { print(a); }"
        )
        # Each site's argument is constant; the formal is not.
        assert (t1.total_args, t1.imm_args, t1.fi_args, t1.fs_args) == (2, 2, 2, 2)
        assert (t2.fi_formals, t2.fs_formals) == (0, 0)

    def test_unknown_arg_counted_in_total_only(self):
        t1, _ = metrics_for(
            """
            proc main() { i = 2; while (i) { call f(i); i = i - 1; } }
            proc f(a) { print(a); }
            """
        )
        assert (t1.total_args, t1.fs_args) == (1, 0)

    def test_dead_site_excluded_from_fs(self):
        t1, _ = metrics_for(
            "proc main() { if (0) { call f(1); } print(0); } proc f(a) { print(a); }"
        )
        assert t1.fi_args == 1  # FI has no reachability information
        assert t1.fs_args == 0

    def test_unreachable_proc_excluded_entirely(self):
        t1, t2 = metrics_for(
            """
            proc main() { print(0); }
            proc orphan() { call f(1); }
            proc f(a) { print(a); }
            """
        )
        assert t1.total_args == 0
        assert t2.num_procs == 1

    def test_percentages(self):
        t1, _ = metrics_for(
            "proc main() { x = 3; call f(x, 1); } proc f(a, b) { print(a + b); }"
        )
        assert t1.imm_pct == 50.0
        assert t1.fs_pct == 100.0


class TestGlobalCounts:
    def test_fi_candidates(self):
        t1, _ = metrics_for(
            "global g; init { g = 1.5; } proc main() { print(g); }"
        )
        assert t1.fi_global_candidates == 1

    def test_fs_globals_at_sites_and_vis(self):
        t1, _ = metrics_for(
            """
            global g;
            proc main() { g = 2; print(g); call f(); call f(); }
            proc f() { print(g); }
            """
        )
        # Two sites carry g (constant, in REF(f)); main references g -> visible.
        assert t1.fs_globals_at_sites == 2
        assert t1.vis_globals_at_sites == 2

    def test_invisible_global(self):
        t1, _ = metrics_for(
            """
            global g;
            proc main() { g = 2; call mid(); }
            proc mid() { call leaf(); }
            proc leaf() { print(g); }
            """
        )
        # Sites main->mid and mid->leaf both carry g; neither caller
        # references g -> all invisible.
        assert t1.fs_globals_at_sites == 2
        assert t1.vis_globals_at_sites == 0

    def test_not_counted_when_not_in_callee_ref(self):
        t1, _ = metrics_for(
            """
            global g;
            proc main() { g = 2; call f(); }
            proc f() { print(0); }
            """
        )
        assert t1.fs_globals_at_sites == 0

    def test_entry_global_counting(self):
        _, t2 = metrics_for(
            """
            global g;
            init { g = 7; }
            proc main() { print(g); call f(); }
            proc f() { print(g); }
            """
        )
        # g is an FI program constant referenced in both procs.
        assert t2.fi_globals == 2
        assert t2.fs_globals == 2

    def test_fs_only_global_at_entry(self):
        _, t2 = metrics_for(
            """
            global g;
            proc main() { g = 7; print(g); call f(); }
            proc f() { print(g); }
            """
        )
        assert t2.fi_globals == 0
        # f's entry sees g == 7; main's own entry does not (g set later).
        assert t2.fs_globals == 1


class TestFloatAblation:
    SOURCE = """
    global gf, gi;
    init { gf = 1.5; }
    proc main() {
        gi = 3;
        print(gf);
        call f(2.5, 7);
        call g();
    }
    proc f(a, b) { print(a + b); }
    proc g() { print(gi); }
    """

    def test_with_floats(self):
        t1, t2 = metrics_for(self.SOURCE)
        assert t1.fi_global_candidates == 1
        assert t1.fs_args == 2
        assert t2.fi_globals == 1  # gf in main (referenced, program constant)

    def test_without_floats(self):
        t1, t2 = metrics_for(self.SOURCE, propagate_floats=False)
        # All FI globals were floats -> gone; the float argument is gone;
        # the int global and int argument survive.
        assert t1.fi_global_candidates == 0
        assert t2.fi_globals == 0
        assert t1.fs_args == 1
        assert t2.fs_globals == 1  # gi at g's entry


class TestZeroDenominators:
    """Every percentage/rate property guards an empty denominator with 0.0."""

    def test_pct_helper(self):
        from repro.core.metrics import _pct

        assert _pct(0, 0) == 0.0
        assert _pct(5, 0) == 0.0
        assert _pct(0, None) == 0.0  # missing denominator, not just zero
        assert _pct(1, 4) == 25.0

    def test_call_site_row_without_args(self):
        from repro.core.metrics import CallSiteCandidates

        row = CallSiteCandidates(name="empty")
        assert row.imm_pct == 0.0
        assert row.fi_pct == 0.0
        assert row.fs_pct == 0.0

    def test_propagated_row_without_formals(self):
        from repro.core.metrics import PropagatedConstants

        row = PropagatedConstants(name="empty")
        assert row.fi_pct == 0.0
        assert row.fs_pct == 0.0

    def test_program_without_call_args(self):
        # A real pipeline run whose program has no call-site arguments at
        # all: the percentage properties must not raise.
        t1, t2 = metrics_for("proc main() { print(0); }")
        assert t1.total_args == 0 and t1.imm_pct == 0.0
        assert t2.total_formals == 0 and t2.fs_pct == 0.0
