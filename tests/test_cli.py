"""Command-line interface tests."""

import json

import pytest

from repro.cli import main

FIG1 = """\
proc main() { call sub1(0); }
proc sub1(f1) {
    x = 1;
    if (f1 != 0) { y = 1; } else { y = 0; }
    call sub2(y, 4, f1, x);
}
proc sub2(f2, f3, f4, f5) { t = f2 + f3 + f4 + f5; print(t); }
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "fig1.mf"
    path.write_text(FIG1)
    return str(path)


class TestAnalyze:
    def test_reports_constants(self, source_file, capsys):
        assert main(["analyze", source_file]) == 0
        out = capsys.readouterr().out
        assert "FS constant formals" in out
        assert "'f2'" in out

    def test_timings_flag(self, source_file, capsys):
        assert main(["analyze", source_file, "--timings"]) == 0
        assert "icp_fs" in capsys.readouterr().out

    def test_no_floats_flag(self, tmp_path, capsys):
        path = tmp_path / "f.mf"
        path.write_text(
            "proc main() { call f(2.5); } proc f(a) { print(a); }"
        )
        assert main(["analyze", str(path), "--no-floats"]) == 0
        out = capsys.readouterr().out
        assert "('f', 'a')" not in out

    def test_engine_flag(self, source_file, capsys):
        assert main(["analyze", source_file, "--engine", "simple"]) == 0

    def test_context_mode_flag(self, tmp_path, capsys):
        path = tmp_path / "rec.mf"
        path.write_text(
            "proc main() { call f(3, 5); }\n"
            "proc f(n, c) {\n"
            "    m = 5;\n"
            "    if (n > 0) { call f(n - 1, m); }\n"
            "    print(n + c);\n"
            "}\n"
        )
        assert main(["analyze", str(path)]) == 0
        base = capsys.readouterr().out
        assert "('f', 'c')" not in base
        assert "value contexts:" not in base
        assert main(
            ["analyze", str(path), "--context-mode", "value-contexts"]
        ) == 0
        ctx = capsys.readouterr().out
        assert "('f', 'c')" in ctx
        assert "value contexts:" in ctx

    def test_context_mode_rejects_unknown(self, source_file, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", source_file, "--context-mode", "k-cfa"])


@pytest.mark.parametrize(
    "command", ["analyze", "check", "graph", "optimize", "watch"]
)
def test_config_error_is_one_line(command, source_file, capsys):
    argv = [command, source_file, "--context-max-per-proc", "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: context_max_per_proc must be >= 1, got 0"
    ]


class TestOptimize:
    def test_prints_transformed_program(self, source_file, capsys):
        assert main(["optimize", source_file]) == 0
        out = capsys.readouterr().out
        assert "print(5);" in out

    def test_returns_flag(self, tmp_path, capsys):
        path = tmp_path / "r.mf"
        path.write_text(
            "proc main() { x = f(); print(x); } proc f() { return 9; }"
        )
        assert main(["optimize", str(path), "--returns"]) == 0
        assert "print(9);" in capsys.readouterr().out


class TestRun:
    def test_executes_program(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_runtime_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.mf"
        path.write_text("proc main() { x = 0; print(1 / x); }")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/prog.mf"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.mf"
        path.write_text("proc main( {")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err
        # A superscript digit is a one-line lex error, not a traceback.
        path.write_text("proc main() { x = ²; print(x); }", encoding="utf-8")
        for command in ("analyze", "check"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err == (
                "error: unexpected character '²' at 1:19\n"
            )


class TestTables:
    def test_single_table(self, capsys):
        assert main(["tables", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "Table 1" not in out

    def test_no_numbers_prints_every_table(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for number in range(1, 6):
            assert f"Table {number}" in out

    def test_out_of_range_number_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["tables", "6"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro-icp tables: error: argument N: invalid choice: 6 "
            "(choose from 1, 2, 3, 4, 5, contexts)"
        )

    def test_contexts_table(self, capsys):
        assert main(["tables", "contexts"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Value contexts:")
        # fallback edges, constant formals, contexts, widenings and
        # degraded procedures of each recursion profile under both modes.
        assert lines[2:] == [
            "rec.self     carini-hind            7       4     -     -        -",
            "rec.self     value-contexts         0       8    30     0        0",
            "rec.mutual   carini-hind            5       0     -     -        -",
            "rec.mutual   value-contexts         0       7    24     0        0",
            "rec.mixed    carini-hind            4       2     -     -        -",
            "rec.mixed    value-contexts         0       9    19     0        0",
            "rec.blowup   carini-hind            3       0     -     -        -",
            "rec.blowup   value-contexts         2       0   134     0        2",
        ]


class TestScheduling:
    def test_cache_stats_keeps_the_analysis_output(self, source_file, capsys):
        assert main(["analyze", source_file]) == 0
        uncached = capsys.readouterr().out
        assert main(["analyze", source_file, "--cache-stats"]) == 0
        # The cache only appends its counters after the same summary.
        assert capsys.readouterr().out.startswith(uncached)

    @pytest.mark.parametrize(
        "command",
        ["analyze", "check", "graph", "optimize", "watch", "serve"],
    )
    def test_jobs_flag_is_a_usage_error(self, command, source_file, capsys):
        # The worker pool and its --jobs flag are gone.
        argv = [command] + ([] if command == "serve" else [source_file])
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, source_file, capsys):
        # --jobs went with the worker pool: any value is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", source_file, "--jobs", "-1"])
        assert exit_info.value.code == 2

    def test_cache_stats_flag(self, source_file, capsys):
        assert main(["analyze", source_file, "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "summary cache:" in out
        assert "misses" in out

    def test_report_includes_scheduling_section(self, source_file, capsys):
        assert main(["analyze", source_file, "--report", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "scheduling:" in out
        assert "analyses: 3 run, 0 cached" in out
        assert main(["analyze", source_file, "--report"]) == 0
        assert "scheduling:" not in capsys.readouterr().out


class TestDefaultSubcommand:
    def test_bare_file_means_analyze(self, source_file, capsys):
        assert main([source_file]) == 0
        assert "FS constant formals" in capsys.readouterr().out

    def test_bare_file_accepts_analyze_flags(self, source_file, capsys):
        assert main([source_file, "--timings"]) == 0
        assert "icp_fs" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["loadgen"], ["loadgen", "--url", "http://127.0.0.1:1"],
         ["bench", "--warm"]],
    )
    def test_unknown_word_is_a_one_line_error(self, argv, capsys):
        # Neither a subcommand (loadgen and bench were removed) nor a
        # file: one line, not an argparse usage dump or a file-not-found
        # traceback.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{argv[0]!r} is neither a subcommand" in err


class TestObservability:
    def test_trace_artifact_is_valid_chrome_trace(
        self, source_file, tmp_path, capsys
    ):
        from repro.obs.trace import validate_trace_file

        out = tmp_path / "trace.json"
        assert main(["analyze", source_file, "--trace", str(out)]) == 0
        assert validate_trace_file(str(out)) == []
        data = json.loads(out.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert "pipeline" in names and "engine" in names
        assert "chrome trace written" in capsys.readouterr().err

    def test_trace_with_workers_stays_balanced(self, source_file, tmp_path):
        from repro.obs.trace import validate_trace_file

        out = tmp_path / "trace.json"
        assert main(
            ["analyze", source_file, "--trace", str(out), "--cache-stats"]
        ) == 0
        assert validate_trace_file(str(out)) == []

    def test_metrics_json_snapshot(self, source_file, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(
            ["analyze", source_file, "--metrics-json", str(out),
             "--cache-stats"]
        ) == 0
        data = json.loads(out.read_text())
        assert data["counters"]["sched.tasks_run"] >= 1
        assert data["counters"]["cache.misses"] >= 1
        assert "scc.flow_edges" in data["counters"]
        assert data["gauges"]["pcg.procedures"] == 3
        assert "engine.task_seconds" in data["histograms"]

    def test_profile_prints_reports(self, source_file, capsys):
        assert main(["analyze", source_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase timings:" in out
        assert "hot procedures" in out
        assert "sub2" in out

    def test_profile_with_report_embeds_section_once(self, source_file, capsys):
        assert main(["analyze", source_file, "--profile", "--report"]) == 0
        out = capsys.readouterr().out
        assert out.count("hot procedures") == 1
        assert "observability:" in out

    def test_flags_off_output_is_identical(self, source_file, tmp_path, capsys):
        assert main(["analyze", source_file]) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "trace.json"
        assert main(
            ["analyze", source_file, "--trace", str(out), "--metrics-json",
             str(tmp_path / "m.json"), "--profile"]
        ) == 0
        instrumented = capsys.readouterr().out
        # The analysis summary itself is byte-identical; observability only
        # appends its own sections after it.
        assert instrumented.startswith(plain)


class TestWatch:
    def test_single_pass(self, source_file, capsys):
        # --max-iterations 1 with an unchanged file: one cold analysis.
        assert main(["watch", source_file, "--interval", "0.01",
                     "--max-iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "FS constant formals" in out
        assert "session:" in out

    def test_reanalyzes_on_change(self, source_file, capsys, monkeypatch):
        import os

        import repro.cli as cli

        edits = iter(
            [FIG1.replace("f2 + f3", "f2 * f3"), None, None]
        )

        real_sleep = cli.time.sleep

        def sleeping_edit(seconds):
            real_sleep(0)
            new_source = next(edits, None)
            if new_source is not None:
                with open(source_file, "w", encoding="utf-8") as handle:
                    handle.write(new_source)
                # Force an mtime step even on coarse filesystem clocks.
                stat = os.stat(source_file)
                os.utime(source_file, (stat.st_atime, stat.st_mtime + 2))

        monkeypatch.setattr(cli.time, "sleep", sleeping_edit)
        assert main(["watch", source_file, "--interval", "0.01",
                     "--max-iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "re-analyzing" in out
        assert out.count("session:") == 2  # initial pass + one re-analysis

    def test_parse_error_keeps_watching(self, source_file, capsys, monkeypatch):
        import os

        import repro.cli as cli

        edits = iter(["proc main() { broken", None])

        def sleeping_edit(seconds):
            new_source = next(edits, None)
            if new_source is not None:
                with open(source_file, "w", encoding="utf-8") as handle:
                    handle.write(new_source)
                stat = os.stat(source_file)
                os.utime(source_file, (stat.st_atime, stat.st_mtime + 2))

        monkeypatch.setattr(cli.time, "sleep", sleeping_edit)
        assert main(["watch", source_file, "--interval", "0.01",
                     "--max-iterations", "2"]) == 0
        captured = capsys.readouterr()
        assert "watch:" in captured.err  # the parse error was reported

    def test_shared_flags_inherited(self, source_file, capsys):
        # watch accepts the shared analysis/observability parents.
        assert main(["watch", source_file, "--cache-stats", "--no-floats",
                     "--interval", "0.01", "--max-iterations", "1"]) == 0

    def test_same_stamp_edit_detected_by_content_hash(
        self, source_file, capsys, monkeypatch
    ):
        # An edit that keeps both st_mtime and st_size (same-length text,
        # mtime pinned back) is invisible to a stat-stamp comparison; the
        # content-hash fallback must still catch it.
        import os

        import repro.cli as cli

        original = os.stat(source_file)
        edits = iter([FIG1.replace("f2 + f3", "f2 * f3"), None])

        def sleeping_edit(seconds):
            new_source = next(edits, None)
            if new_source is not None:
                assert len(new_source) == len(FIG1)
                with open(source_file, "w", encoding="utf-8") as handle:
                    handle.write(new_source)
                os.utime(
                    source_file,
                    ns=(original.st_atime_ns, original.st_mtime_ns),
                )

        monkeypatch.setattr(cli.time, "sleep", sleeping_edit)
        assert main(["watch", source_file, "--interval", "0.01",
                     "--max-iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "re-analyzing" in out
        assert out.count("session:") == 2

    def test_vanished_file_keeps_watching(
        self, source_file, capsys, monkeypatch
    ):
        # Editors replace files non-atomically: a tick may stat the gap
        # between unlink and rename.  The watcher reports and retries.
        import os

        import repro.cli as cli

        steps = iter(["remove", "restore", None])

        def sleeping_edit(seconds):
            step = next(steps, None)
            if step == "remove":
                os.remove(source_file)
            elif step == "restore":
                with open(source_file, "w", encoding="utf-8") as handle:
                    handle.write(FIG1.replace("f2 + f3", "f2 * f3"))

        monkeypatch.setattr(cli.time, "sleep", sleeping_edit)
        assert main(["watch", source_file, "--interval", "0.01",
                     "--max-iterations", "3"]) == 0
        captured = capsys.readouterr()
        assert "watch:" in captured.err  # the missing-file tick reported
        assert "re-analyzing" in captured.out  # and recovery re-analyzed

    def test_interrupt_before_first_result_skips_obs_emit(
        self, source_file, tmp_path, capsys, monkeypatch
    ):
        # ^C during the initial analysis leaves session.result unset; the
        # exit path must not render observability from a result that never
        # happened.
        import os

        import repro.api

        class InterruptedSession:
            def __init__(self, *args, **kwargs):
                self.result = None

            def analyze(self):
                raise KeyboardInterrupt

        monkeypatch.setattr(repro.api, "AnalysisSession", InterruptedSession)
        metrics_out = str(tmp_path / "metrics.json")
        assert main(["watch", source_file, "--metrics-json", metrics_out,
                     "--interval", "0.01", "--max-iterations", "1"]) == 0
        assert not os.path.exists(metrics_out)


class TestServe:
    def test_bounded_run_exits_cleanly(self, capsys):
        assert main(["serve", "--port", "0", "--max-seconds", "0.3"]) == 0
        banner = capsys.readouterr().err
        assert "repro-icp serve listening on http://127.0.0.1:" in banner

    def test_rejects_bad_knobs(self, capsys):
        assert main(["serve", "--port", "0", "--max-queue", "0",
                     "--max-seconds", "0.1"]) == 1
        assert "serve_max_queue" in capsys.readouterr().err

    def test_rejects_bad_shard_knobs(self, capsys):
        assert main(["serve", "--port", "0", "--shards", "-1",
                     "--max-seconds", "0.1"]) == 1
        assert "serve_shards" in capsys.readouterr().err
        assert main(["serve", "--port", "0", "--rebalance", "0",
                     "--max-seconds", "0.1"]) == 1
        assert "serve_rebalance" in capsys.readouterr().err

    def test_obs_flags_parse(self, capsys):
        assert main(["serve", "--port", "0", "--max-seconds", "0.2",
                     "--quiet", "--no-metrics", "--slow-ms", "100"]) == 0
        assert "listening" in capsys.readouterr().err
        assert main(["serve", "--port", "0", "--max-seconds", "0.1",
                     "--slow-ms", "-1"]) == 1
        assert "serve_log_slow_ms" in capsys.readouterr().err

    def test_trace_flag_writes_a_fleet_trace(self, tmp_path, capsys):
        from repro.obs.trace import validate_chrome_trace

        trace_out = str(tmp_path / "fleet-trace.json")
        assert main(["serve", "--port", "0", "--max-seconds", "0.2",
                     "--trace", trace_out]) == 0
        assert "fleet trace written" in capsys.readouterr().err
        trace = json.loads(open(trace_out).read())
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["producer"] == "repro-icp"

    def test_metrics_json_writes_a_snapshot(self, tmp_path, capsys):
        metrics_out = str(tmp_path / "serve-metrics.json")
        assert main(["serve", "--port", "0", "--max-seconds", "0.2",
                     "--metrics-json", metrics_out]) == 0
        assert "metrics snapshot written" in capsys.readouterr().err
        data = json.loads(open(metrics_out).read())
        assert "counters" in data and "histograms" in data


class TestTop:
    def test_one_frame_against_a_live_daemon(self, capsys):
        from repro.core.config import ICPConfig
        from repro.serve import AnalysisServer

        server = AnalysisServer(
            ICPConfig.from_dict({"serve_port": 0, "serve_workers": 1})
        )
        try:
            host, port = server.start()
            assert main(["top", "--url", f"http://{host}:{port}",
                         "--frames", "1", "--no-clear",
                         "--interval", "0.01"]) == 0
        finally:
            server.close()
        out = capsys.readouterr().out
        assert "repro-icp top" in out
        assert "daemon" in out

    def test_rejects_bad_interval(self, capsys):
        assert main(["top", "--interval", "0", "--frames", "1"]) == 1
        assert "--interval" in capsys.readouterr().err

    def test_unreachable_front_exits_nonzero(self, capsys):
        assert main(["top", "--url", "http://127.0.0.1:9",
                     "--frames", "1", "--no-clear"]) == 1
        assert "top:" in capsys.readouterr().err


class TestCheck:
    NOISY = """\
proc main() {
    x = 5;
    call twice(x, x);
}
proc twice(a, b) { a = a + b; print(a); }
"""
    BROKEN = "proc main() { call f(1, 2); }\nproc f(a) { print(a); }\n"

    @pytest.fixture
    def noisy_file(self, tmp_path):
        path = tmp_path / "noisy.mf"
        path.write_text(self.NOISY)
        return str(path)

    @pytest.fixture
    def broken_file(self, tmp_path):
        path = tmp_path / "broken.mf"
        path.write_text(self.BROKEN)
        return str(path)

    def test_text_output_and_warning_exit(self, noisy_file, capsys):
        # Warnings alone do not fail the check.
        assert main(["check", noisy_file]) == 0
        out = capsys.readouterr().out
        assert "ICP002" in out
        assert out.rstrip().splitlines()[-1].startswith("total:")

    def test_errors_fail_the_check(self, broken_file, capsys):
        assert main(["check", broken_file]) == 1
        assert "ICP005" in capsys.readouterr().out

    def test_multiple_files_share_one_report(
        self, noisy_file, broken_file, capsys
    ):
        assert main(["check", noisy_file, broken_file]) == 1
        out = capsys.readouterr().out
        assert "noisy.mf" in out and "broken.mf" in out

    def test_json_format(self, noisy_file, capsys):
        assert main(["check", noisy_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-icp/diag/v1"
        assert payload["files"][0]["findings"]

    def test_sarif_format_and_output_file(self, noisy_file, tmp_path, capsys):
        artifact = tmp_path / "lint.sarif"
        assert main(
            ["check", noisy_file, "--format", "sarif",
             "--output", str(artifact)]
        ) == 0
        document = json.loads(artifact.read_text())
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"]

    def test_rules_and_severity_floor_flags(self, noisy_file, capsys):
        assert main(
            ["check", noisy_file, "--rules", "icp004",
             "--severity-floor", "warning"]
        ) == 0
        out = capsys.readouterr().out
        assert "ICP002" not in out

    def test_write_baseline_then_clean(self, noisy_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(
            ["check", noisy_file, "--write-baseline", "--baseline",
             str(baseline)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["check", noisy_file, "--baseline", str(baseline)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out and "baselined" in out

    def test_write_baseline_requires_path(self, noisy_file, capsys):
        assert main(["check", noisy_file, "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_sanitize_flag_runs_clean(self, noisy_file, capsys):
        assert main(["check", noisy_file, "--sanitize"]) == 0
        assert "ICP900" not in capsys.readouterr().out

    def test_shared_parent_flags_accepted(self, noisy_file, capsys):
        assert main(
            ["check", noisy_file, "--cache-stats", "--no-floats"]
        ) == 0

    def test_metrics_artifact(self, noisy_file, tmp_path, capsys):
        out_json = tmp_path / "metrics.json"
        assert main(
            ["check", noisy_file, "--metrics-json", str(out_json)]
        ) == 0
        snapshot = json.loads(out_json.read_text())
        assert snapshot["counters"]["diag.runs"] == 1
