"""DiagOptions, orchestration, the structural ICP005 path, and metrics."""

import pytest

from repro.api import analyze
from repro.bench.suite import SUITE, build_benchmark_source
from repro.core.config import ICPConfig
from repro.diag import DiagOptions, check_source, run_diagnostics
from repro.diag.findings import RULES
from repro.diag.output import render_sarif, render_text
from repro.diag.suppress import source_suppressions
from repro.lang import symbols as symbols_module
from repro.obs import Observability

NOISY = """\
proc main() {
    x = 5;
    call twice(x, x);
    call branchy(x);
}
proc twice(a, b) { a = a + b; print(a); }
proc branchy(n) {
    if (n == 5) { print(1); } else { print(2); }
}
proc idle() { print(0); }
"""


class TestDiagOptions:
    def test_severity_floor_filters(self):
        everything = check_source(NOISY)
        warnings = check_source(
            NOISY, options=DiagOptions(severity_floor="warning")
        )
        assert len(warnings.findings) < len(everything.findings)
        assert all(f.severity != "note" for f in warnings.findings)

    def test_rule_selection(self):
        only_aliasing = check_source(
            NOISY, options=DiagOptions(rules=frozenset({"ICP002"}))
        )
        assert only_aliasing.findings
        assert {f.rule_id for f in only_aliasing.findings} == {"ICP002"}

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            DiagOptions(rules=frozenset({"ICP999"}))

    def test_unknown_floor_rejected(self):
        with pytest.raises(ValueError, match="severity floor"):
            DiagOptions(severity_floor="fatal")

    def test_from_config_lifts_diag_keys(self):
        config = ICPConfig(
            diag_rules=("ICP003", "ICP004"), diag_severity_floor="warning"
        )
        options = DiagOptions.from_config(config)
        assert options.rules == frozenset({"ICP003", "ICP004"})
        assert options.severity_floor == "warning"


class TestRunDiagnostics:
    def test_findings_are_sorted(self):
        diag = check_source(NOISY)
        keys = [f.sort_key() for f in diag.findings]
        assert keys == sorted(keys)

    def test_run_diagnostics_matches_check_source(self):
        result = analyze(NOISY)
        direct = run_diagnostics(result)
        via_source = check_source(NOISY)
        assert direct.findings == via_source.findings

    def test_check_source_collects_each_procedure_once(self, monkeypatch):
        source = build_benchmark_source(SUITE["015.doduc"])
        collected = []
        collect_one = symbols_module._collect_one

        def counting(proc, globals_in_scope):
            collected.append(proc.name)
            return collect_one(proc, globals_in_scope)

        monkeypatch.setattr(symbols_module, "_collect_one", counting)
        check_source(source)
        assert len(collected) == len(set(collected)) == 71

    @pytest.mark.parametrize("name", ["030.matrix300", "093.nasa7", None])
    def test_check_source_matches_a_fresh_collection(self, name):
        source = NOISY if name is None else build_benchmark_source(SUITE[name])
        path = f"{name or 'noisy'}.mf"
        shared = check_source(source, path=path)
        fresh = run_diagnostics(
            analyze(source), suppressions=source_suppressions(source)
        )
        assert shared.findings and shared.findings == fresh.findings
        for render in (render_text, render_sarif):
            assert render([(path, shared)]) == render([(path, fresh)])

    def test_counts_property(self):
        diag = check_source(NOISY)
        assert diag.counts
        assert sum(diag.counts.values()) == len(diag.findings)
        assert set(diag.counts) <= set(RULES)

    def test_structural_path_skips_pipeline(self):
        # The validator would reject this arity error; check still works
        # and reports the ICP005 without an analysis result.
        diag = check_source("proc main() { call main(1); }")
        assert diag.findings
        assert all(f.rule_id == "ICP005" for f in diag.findings)
        assert diag.errors

    def test_metrics_recorded(self):
        obs = Observability.create(metrics=True)
        result = analyze(NOISY)
        diag = run_diagnostics(result, obs=obs)
        snapshot = obs.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["diag.runs"] == 1
        for rule_id, count in diag.counts.items():
            assert counters[f"diag.findings.{rule_id}"] == count
        assert "diag.check_seconds" in snapshot["histograms"]


class TestConfigSatellite:
    def test_round_trip_with_diag_keys(self):
        config = ICPConfig.from_dict(
            {
                "diag_rules": ["ICP004", "ICP002"],
                "diag_severity_floor": "warning",
            }
        )
        assert ICPConfig.from_dict(config.to_dict()) == config

    def test_rules_normalized_sorted_unique(self):
        config = ICPConfig.from_dict(
            {"diag_rules": ["ICP004", "ICP002", "ICP004"]}
        )
        assert config.diag_rules == ("ICP002", "ICP004")

    def test_unknown_keys_still_rejected(self):
        with pytest.raises(ValueError):
            ICPConfig.from_dict({"diag_rule": ["ICP002"]})

    def test_invalid_diag_values_rejected(self):
        with pytest.raises(ValueError):
            ICPConfig.from_dict({"diag_rules": ["ICP999"]})
        with pytest.raises(ValueError):
            ICPConfig.from_dict({"diag_severity_floor": "loud"})
