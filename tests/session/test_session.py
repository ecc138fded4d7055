"""AnalysisSession edit/lifecycle semantics."""

import pytest

from repro.core.report import analysis_report, session_report
from repro.session import AnalysisSession

from repro.core.driver import analyze

SOURCE = """
global g;
init { g = 4; }
proc main() { call a(1); call b(2); }
proc a(x) { w = 3; call c(w); print(x); }
proc b(y) { print(y + g); }
proc c(z) { print(z * 2); }
"""


def warm_session(source=SOURCE, **config):
    session = AnalysisSession(source, config or None)
    session.analyze()
    return session


class TestColdAnalysis:
    def test_first_analysis_runs_everything(self):
        session = AnalysisSession(SOURCE)
        result = session.analyze()
        assert result.sched.tasks_run == len(result.pcg.nodes)
        assert session.stats.last_dirty == len(result.pcg.nodes)
        assert session.last_region is None

    def test_cache_forced_on(self):
        session = AnalysisSession(SOURCE)
        assert session.config.cache is True

    def test_mapping_config_accepted(self):
        session = AnalysisSession(SOURCE, {"engine": "simple"})
        assert session.config.engine == "simple"
        assert session.config.cache is True

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ICPConfig keys"):
            AnalysisSession(SOURCE, {"worker": 2})

    def test_matches_cold_run(self):
        session = warm_session()
        cold = analyze(session.program)
        assert analysis_report(session.result) == analysis_report(cold)


class TestUpdate:
    def test_edit_reanalyzes_only_dirty_region(self):
        session = warm_session()
        assert session.update("b", "proc b(y) { print(y + g + 7); }")
        result = session.analyze()
        assert set(session.last_region.fs_dirty) == {"b"}
        assert result.sched.tasks_run + result.sched.tasks_cached == 1
        assert result.sched.tasks_reused == 3
        assert analysis_report(result) == analysis_report(analyze(session.program))

    def test_noop_edit_returns_false(self):
        session = warm_session()
        assert not session.update("b", "proc b(y) { print(y + g); }")
        result = session.analyze()
        assert result.sched.tasks_run == 0
        assert result.sched.tasks_reused == len(result.pcg.nodes)

    def test_unknown_procedure_raises(self):
        session = warm_session()
        with pytest.raises(KeyError, match="unknown procedure"):
            session.update("ghost", "proc ghost() { print(1); }")

    def test_name_mismatch_raises(self):
        session = warm_session()
        with pytest.raises(ValueError, match="expected"):
            session.update("b", "proc c(z) { print(z); }")

    def test_fragment_with_globals_raises(self):
        session = warm_session()
        with pytest.raises(ValueError, match="must not declare globals"):
            session.update("b", "global h; proc b(y) { print(y); }")

    def test_multi_procedure_fragment_raises(self):
        session = warm_session()
        with pytest.raises(ValueError, match="exactly one procedure"):
            session.update("b", "proc b(y) { print(y); } proc d() { print(1); }")

    def test_revert_hits_summary_cache(self):
        session = warm_session()
        original = "proc b(y) { print(y + g); }"
        session.update("b", "proc b(y) { print(y + g + 7); }")
        session.analyze()
        session.update("b", original)
        result = session.analyze()
        # b is dirty (edited), but its fingerprint round-tripped: the
        # content-addressed cache serves it without an engine run.
        assert result.sched.tasks_run == 0
        assert result.sched.tasks_cached == 1

    def test_edit_changing_callee_set(self):
        session = warm_session()
        session.update("b", "proc b(y) { call c(y); }")
        result = session.analyze()
        assert {"b", "c"} <= set(session.last_region.fs_dirty)
        assert analysis_report(result) == analysis_report(analyze(session.program))


class TestAddRemove:
    def test_add_and_call(self):
        session = warm_session()
        assert session.add("proc d(v) { print(v - 1); }") == "d"
        session.update("b", "proc b(y) { call d(y); }")
        result = session.analyze()
        assert "d" in result.pcg.nodes
        assert analysis_report(result) == analysis_report(analyze(session.program))

    def test_add_existing_raises(self):
        session = warm_session()
        with pytest.raises(ValueError, match="already exists"):
            session.add("proc b(y) { print(y); }")

    def test_remove_evicts_cache(self):
        session = warm_session()
        session.update("a", "proc a(x) { print(x); }")  # drop the call to c
        before = session.cache.stats.evictions
        session.remove("c")
        assert session.cache.stats.evictions > before
        result = session.analyze()
        assert "c" not in result.pcg.nodes
        assert analysis_report(result) == analysis_report(analyze(session.program))

    def test_unreachable_drop_evicts_after_analyze(self):
        session = warm_session()
        session.update("a", "proc a(x) { print(x); }")  # c becomes unreachable
        before = session.cache.stats.evictions
        session.analyze()
        # The dirty-region delta records c as dropped; its slots are evicted.
        assert "c" in session.last_region.delta.dropped_procs
        assert session.cache.stats.evictions > before


class TestSync:
    def test_sync_diffs_by_fingerprint(self):
        session = warm_session()
        new_source = SOURCE.replace("print(y + g)", "print(y + g + 1)")
        assert session.sync(new_source) == 1
        result = session.analyze()
        assert set(session.last_region.fs_dirty) == {"b"}
        assert analysis_report(result) == analysis_report(analyze(session.program))

    def test_sync_unchanged_is_noop(self):
        session = warm_session()
        assert session.sync(SOURCE) == 0
        result = session.analyze()
        assert result.sched.tasks_run == 0

    def test_global_change_forces_full_reanalysis(self):
        session = warm_session()
        assert session.sync(SOURCE.replace("g = 4", "g = 9")) > 0
        result = session.analyze()
        assert session.last_region is None  # full reset, no incremental diff
        assert result.sched.tasks_run + result.sched.tasks_cached == len(
            result.pcg.nodes
        )
        assert analysis_report(result) == analysis_report(analyze(session.program))

    def test_sync_removal(self):
        session = warm_session()
        new_source = SOURCE.replace("call b(2); ", "").replace(
            "proc b(y) { print(y + g); }\n", ""
        )
        assert session.sync(new_source) >= 1
        result = session.analyze()
        assert "b" not in result.pcg.nodes
        assert analysis_report(result) == analysis_report(analyze(session.program))


class TestStatsAndReports:
    def test_stats_track_reuse(self):
        session = warm_session()
        session.update("b", "proc b(y) { print(y * g); }")
        session.analyze()
        stats = session.stats
        assert stats.edits == 1
        assert stats.analyses == 2
        assert stats.last_reused == 3
        assert 0.0 < stats.reuse_rate <= 1.0
        assert stats.total_engine_runs >= stats.last_engine_runs

    def test_session_report_renders(self):
        session = warm_session()
        text = session_report(session)
        assert "session:" in text
        assert "reuse rate" in text
        assert "summary cache:" in text

    def test_report_requires_analysis(self):
        session = AnalysisSession(SOURCE)
        with pytest.raises(ValueError, match="no analysis yet"):
            session.report()
        session.analyze()
        assert "constant propagation report" in session.report()

    def test_session_metrics_recorded(self):
        from repro.obs import Observability

        obs = Observability.create(metrics=True)
        session = AnalysisSession(SOURCE, obs=obs)
        session.analyze()
        session.update("b", "proc b(y) { print(y - g); }")
        session.analyze()
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["session.analyses"] == 2
        assert snapshot["counters"]["session.edits"] == 1
        assert snapshot["gauges"]["session.reuse_rate"] > 0

    def test_transform_supported(self):
        session = warm_session()
        result = session.analyze(run_transform=True)
        assert result.transform is not None

    def test_transform_opens_no_second_store(self, tmp_path, monkeypatch):
        from repro.store import SummaryStore

        opened = []
        original_init = SummaryStore.__init__

        def counting_init(self, *args, **kwargs):
            opened.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(SummaryStore, "__init__", counting_init)
        session = AnalysisSession(SOURCE, {"store_dir": str(tmp_path)})
        session.analyze(run_transform=True)
        session.analyze(run_transform=True)
        assert len(opened) == 1

    def test_parallel_session_matches_cold(self):
        session = AnalysisSession(SOURCE)
        session.analyze()
        session.update("a", "proc a(x) { w = 5; call c(w); print(x); }")
        result = session.analyze()
        assert analysis_report(result) == analysis_report(analyze(session.program))
