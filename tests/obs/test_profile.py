"""Profiler tests: phase timings, hot-procedure ranking, and reports."""

from repro.obs.profile import NULL_PROFILER, Profiler


class TestPhases:
    def test_record_phases_sums_runs(self):
        profiler = Profiler()
        profiler.record_phases({"parse": 0.25, "icp_fs": 0.5})
        profiler.record_phases({"icp_fs": 0.25})
        timing = profiler.phases["icp_fs"]
        assert timing.count == 2
        assert timing.wall_seconds == 0.75
        assert profiler.phases["parse"].count == 1

    def test_phase_report_lists_each_phase(self):
        profiler = Profiler()
        profiler.record_phases({"parse": 0.0, "icp_fs": 0.0})
        report = profiler.phase_report()
        assert "parse" in report and "icp_fs" in report
        assert "wall(s)" in report and "runs" in report
        assert "cpu(s)" not in report


class TestHotProcedures:
    def _profiler(self):
        profiler = Profiler()
        profiler.record_procedure("cold", 0.001)
        profiler.record_procedure(
            "hot", 0.5, ssa_size=42, visits={"flow_edges": 10}
        )
        profiler.record_procedure("hot", 0.5, visits={"flow_edges": 5})
        return profiler

    def test_ranked_by_total_engine_seconds(self):
        ranked = self._profiler().hot_procedures()
        assert [p.name for p in ranked] == ["hot", "cold"]
        hot = ranked[0]
        assert hot.runs == 2
        assert hot.engine_seconds == 1.0
        assert hot.ssa_size == 42
        assert hot.visits == {"flow_edges": 15}

    def test_top_limits_rows(self):
        assert len(self._profiler().hot_procedures(top=1)) == 1

    def test_hot_report_table(self):
        report = self._profiler().hot_report()
        assert "hot procedures" in report
        assert report.index("hot ") < report.index("cold")

    def test_hot_report_empty(self):
        assert "(no engine runs recorded)" in Profiler().hot_report()


class TestDisabledProfiler:
    def test_all_recording_is_noop(self):
        NULL_PROFILER.record_phases({"parse": 1.0})
        NULL_PROFILER.record_procedure("f", 1.0)
        assert NULL_PROFILER.phases == {}
        assert NULL_PROFILER.procedures == {}
