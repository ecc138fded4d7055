"""Report generation tests."""

from repro.bench.programs import figure1_program, recursion_program
from repro.core.config import ICPConfig
from repro.api import analyze_program
from repro.core.report import full_report, pcg_to_dot, procedure_report
from tests.helpers import analyze


class TestProcedureReport:
    def test_formals_with_both_methods(self):
        result = analyze(figure1_program())
        text = procedure_report(result, "sub2")
        assert "procedure sub2(f2, f3, f4, f5)" in text
        assert "FS: 0" in text  # f2 is FS-constant 0
        assert "FI: ?" in text  # ...and FI-unknown

    def test_summaries_listed(self):
        result = analyze(
            """
            global g;
            proc main() { g = 1; call f(g); }
            proc f(a) { a = 2; print(g); }
            """
        )
        text = procedure_report(result, "f")
        assert "MOD:" in text and "'a'" in text
        assert "may-alias" in text

    def test_call_sites_with_values(self):
        result = analyze(figure1_program())
        text = procedure_report(result, "sub1")
        assert "#0 -> sub2(0, 4, 0, 1)" in text

    def test_unreachable_site_marked(self):
        result = analyze(
            "proc main() { if (0) { call f(1); } print(0); } proc f(a) { print(a); }"
        )
        text = procedure_report(result, "main")
        assert "<unreachable>" in text


class TestFullReport:
    def test_covers_all_procedures(self):
        result = analyze(figure1_program())
        text = full_report(result)
        for proc in ("main", "sub1", "sub2"):
            assert f"procedure {proc}" in text

    def test_includes_returns_when_enabled(self):
        result = analyze_program(
            "proc main() { x = f(); print(x); } proc f() { return 3; }",
            ICPConfig(propagate_returns=True, propagate_exit_values=True),
        )
        text = full_report(result)
        assert "constant returns" in text


class TestPCGDot:
    def test_renders_nodes_and_edges(self):
        result = analyze(figure1_program())
        dot = pcg_to_dot(result)
        assert dot.startswith("digraph")
        assert '"main" -> "sub1"' in dot
        assert "constant formal(s)" in dot

    def test_fallback_edges_dashed(self):
        result = analyze(recursion_program())
        dot = pcg_to_dot(result)
        assert "FI fallback" in dot


class TestCLIIntegration:
    def test_report_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.mf"
        path.write_text("proc main() { call f(3); } proc f(a) { print(a); }")
        assert main(["analyze", str(path), "--report"]) == 0
        out = capsys.readouterr().out
        assert "procedure f(a)" in out

    def test_graph_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.mf"
        path.write_text("proc main() { call f(3); } proc f(a) { print(a); }")
        assert main(["graph", str(path)]) == 0
        assert "digraph" in capsys.readouterr().out


class TestSchedulingReport:
    def test_counters_rendered(self):
        from repro.core.report import scheduling_report

        result = analyze(figure1_program(), cache=True)
        text = scheduling_report(result)
        assert "analyses: 3 run, 0 cached, 0 reused" in text
        assert "summary cache:" in text

    def test_full_report_gains_section_when_engaged(self):
        result = analyze(figure1_program(), cache=True)
        assert "scheduling:" in full_report(result)
        serial = analyze(figure1_program())
        assert "scheduling:" not in full_report(serial)


class TestObservabilityReport:
    def _profiled(self, **config_kwargs):
        from repro.obs import Observability

        obs = Observability.create(profile=True)
        config = ICPConfig(**config_kwargs)
        return analyze_program(figure1_program(), config, obs=obs)

    def test_section_with_scheduling_disabled(self):
        from repro.core.report import observability_report

        result = self._profiled()
        text = observability_report(result)
        assert "observability:" in text
        assert "phase timings:" in text
        assert "hot procedures" in text
        assert "sub2" in text
        # Uncached run: no scheduling section, but profiling still reports.
        report = full_report(result)
        assert "scheduling:" not in report
        assert "observability:" in report

    def test_section_with_scheduling_enabled(self):
        result = self._profiled(cache=True)
        report = full_report(result)
        assert "scheduling:" in report
        assert "observability:" in report
        # Scheduling precedes observability, matching pipeline order.
        assert report.index("scheduling:") < report.index("observability:")

    def test_placeholder_without_profiler(self):
        from repro.core.report import observability_report

        result = analyze(figure1_program())
        assert "not enabled" in observability_report(result)
        assert "observability:" not in full_report(result)
