"""End-to-end observability: instrumented pipeline runs stay valid and sound."""

import json

import pytest

from repro.bench.programs import figure1_program
from repro.core.config import ICPConfig
from repro.api import analyze_program
from repro.core.metrics import absorb_pipeline_metrics
from repro.obs import NULL_OBS, Observability
from repro.obs.trace import validate_chrome_trace


def analyze_with(source, obs, **config_kwargs):
    config = ICPConfig(**config_kwargs)
    return analyze_program(source, config, obs=obs)


#: ``main`` calls two leaves.
WIDE = """\
proc main() { call f(1); call g(2); }
proc f(a) { print(a); }
proc g(b) { print(b); }
"""

#: ``f`` calls itself: the returns pass needs its flow-insensitive fixpoint.
RECURSIVE = """\
proc main() { call f(3); }
proc f(a) { if (a > 0) { call f(a - 1); } call g(a); }
proc g(b) { print(b); }
"""


class TestObservabilityContext:
    def test_null_context_disabled(self):
        assert not NULL_OBS.enabled
        assert Observability.create() is not NULL_OBS  # fresh but also off
        assert not Observability.create().enabled

    def test_any_instrument_enables(self):
        assert Observability.create(trace=True).enabled
        assert Observability.create(metrics=True).enabled
        assert Observability.create(profile=True).enabled


class TestTracedPipeline:
    def test_serial_run_produces_valid_trace(self):
        obs = Observability.create(trace=True)
        analyze_with(WIDE, obs)
        chrome = obs.tracer.to_chrome()
        assert validate_chrome_trace(chrome) == []
        names = {e["name"] for e in chrome["traceEvents"]}
        # Root span, phase spans, and per-procedure engine spans all present.
        assert {"pipeline", "icp_fs", "engine", "parse"} <= names

    def test_cached_run_marks_each_lookup(self):
        obs = Observability.create(trace=True)
        analyze_with(WIDE, obs, cache=True)
        chrome = obs.tracer.to_chrome()
        assert validate_chrome_trace(chrome) == []
        events = chrome["traceEvents"]
        misses = [e["args"]["proc"] for e in events if e["name"] == "cache-miss"]
        assert sorted(misses) == ["f", "g", "main"]
        # Every engine run happens on the calling thread.
        assert {
            e["tid"] for e in events if e["name"] == "engine"
        } == {"coordinator"}

    def test_trace_attributes_carry_procedure_names(self):
        obs = Observability.create(trace=True)
        analyze_with(figure1_program(), obs)
        procs = {
            e["args"].get("proc")
            for e in obs.tracer.events()
            if e["name"] == "engine" and e["ph"] == "B"
        }
        assert {"main", "sub1", "sub2"} <= procs


class TestMetricsPipeline:
    def test_live_counters_from_scheduled_run(self):
        obs = Observability.create(metrics=True)
        analyze_with(figure1_program(), obs, cache=True)
        snapshot = obs.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["sched.tasks_run"] == 3
        assert counters["cache.misses"] == 3
        assert counters["scc.flow_edges"] > 0
        assert counters["scc.lattice_cells"] > 0
        assert snapshot["histograms"]["engine.task_seconds"]["count"] == 3

    def test_serial_run_records_scc_counters(self):
        obs = Observability.create(metrics=True)
        analyze_with(figure1_program(), obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["scc.ssa_names"] > 0
        assert counters["scc.blocks_reached"] > 0

    def test_absorb_covers_shape_and_phases(self):
        obs = Observability.create(metrics=True)
        result = analyze_with(figure1_program(), obs, cache=True)
        absorb_pipeline_metrics(obs.metrics, result)
        gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["pcg.procedures"] == 3
        assert gauges["cache.hit_rate"] == 0.0
        assert "phase.icp_fs.seconds" in gauges

    def test_absorb_backfills_scc_totals_without_live_registry(self):
        from repro.obs.metrics import MetricsRegistry

        result = analyze_program(figure1_program())  # uninstrumented run
        registry = MetricsRegistry()
        absorb_pipeline_metrics(registry, result)
        counters = registry.snapshot()["counters"]
        assert counters["scc.flow_edges"] > 0


class TestProfiledPipeline:
    def test_phase_and_procedure_profiles_recorded(self):
        obs = Observability.create(profile=True)
        result = analyze_with(figure1_program(), obs)
        assert "icp_fs" in obs.profiler.phases
        names = {p.name for p in obs.profiler.hot_procedures()}
        assert {"main", "sub1", "sub2"} <= names
        assert result.obs is obs

    def test_scc_engine_feeds_ssa_sizes(self):
        obs = Observability.create(profile=True)
        analyze_with(figure1_program(), obs)
        hot = obs.profiler.hot_procedures()
        assert all(p.ssa_size is not None for p in hot)
        assert all(p.visits for p in hot)


class TestEngineRunRecording:
    @pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
    def test_returns_pass_records_engine_runs(self, cache):
        # Figure 1's PCG is acyclic: one FS and one returns run per
        # procedure, whether or not a cold cache sits behind them.
        obs = Observability.create(trace=True, metrics=True, profile=True)
        analyze_with(
            figure1_program(), obs, cache=cache, propagate_returns=True
        )
        runs = {p.name: p.runs for p in obs.profiler.hot_procedures(top=0)}
        assert runs == {"main": 2, "sub1": 2, "sub2": 2}
        histograms = obs.metrics.snapshot()["histograms"]
        assert histograms["engine.task_seconds"]["count"] == 6
        returns_spans = [
            e
            for e in obs.tracer.events()
            if e["name"] == "engine"
            and e["ph"] == "B"
            and e["args"]["pass_label"] == "returns"
        ]
        assert {e["args"]["proc"] for e in returns_spans} == {
            "main", "sub1", "sub2",
        }

    def test_transform_reuses_the_fs_runs(self):
        # The transformation rewrites each procedure from its FS run, so a
        # transformed Figure 1 still costs one engine run per procedure.
        obs = Observability.create(trace=True, metrics=True, profile=True)
        analyze_program(figure1_program(), ICPConfig(), run_transform=True, obs=obs)
        runs = {p.name: p.runs for p in obs.profiler.hot_procedures(top=0)}
        assert runs == {"main": 1, "sub1": 1, "sub2": 1}
        histograms = obs.metrics.snapshot()["histograms"]
        assert histograms["engine.task_seconds"]["count"] == 3

    def test_transform_records_its_own_engine_runs(self):
        # `dead` is outside the PCG: no pass before the transformation
        # analyzed it, so the transformation's own run must be observed.
        obs = Observability.create(trace=True, metrics=True, profile=True)
        analyze_program(
            WIDE + "proc dead(c) { print(c); }\n",
            ICPConfig(),
            run_transform=True,
            obs=obs,
        )
        transform_spans = [
            e
            for e in obs.tracer.events()
            if e["name"] == "engine"
            and e["ph"] == "B"
            and e["args"]["pass_label"] == "transform"
        ]
        assert [e["args"]["proc"] for e in transform_spans] == ["dead"]
        runs = {p.name: p.runs for p in obs.profiler.hot_procedures(top=0)}
        assert runs == {"main": 1, "f": 1, "g": 1, "dead": 1}
        histograms = obs.metrics.snapshot()["histograms"]
        assert histograms["engine.task_seconds"]["count"] == 4

    @pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
    def test_fi_return_fixpoint_records_engine_runs(self, cache, monkeypatch):
        # f calls itself, so the returns pass first solves the
        # flow-insensitive return fixpoint; its runs must be observed too.
        from repro.analysis.scc import SCCEngine

        calls = []
        analyze = SCCEngine.analyze

        def counting(self, *args, **kwargs):
            calls.append(args[0].name)
            return analyze(self, *args, **kwargs)

        monkeypatch.setattr(SCCEngine, "analyze", counting)
        obs = Observability.create(trace=True, metrics=True, profile=True)
        analyze_with(RECURSIVE, obs, cache=cache, propagate_returns=True)
        runs = {p.name: p.runs for p in obs.profiler.hot_procedures(top=0)}
        assert sum(runs.values()) == len(calls)
        histograms = obs.metrics.snapshot()["histograms"]
        assert histograms["engine.task_seconds"]["count"] == len(calls)
        fi_spans = [
            e
            for e in obs.tracer.events()
            if e["name"] == "engine"
            and e["ph"] == "B"
            and e["args"]["pass_label"] == "returns-fi"
        ]
        assert {e["args"]["proc"] for e in fi_spans} == {"main", "f", "g"}


class TestResultEquivalence:
    def test_instrumented_results_match_uninstrumented(self):
        plain = analyze_program(figure1_program())
        obs = Observability.create(trace=True, metrics=True, profile=True)
        traced = analyze_program(figure1_program(), obs=obs)
        assert traced.fs.constant_formals() == plain.fs.constant_formals()
        assert traced.fi.constant_formals() == plain.fi.constant_formals()
        assert traced.summary() == plain.summary()

    def test_uninstrumented_result_has_no_obs(self):
        assert analyze_program(figure1_program()).obs is None

    def test_snapshot_serializes_after_full_run(self):
        obs = Observability.create(metrics=True, profile=True)
        analyze_with(figure1_program(), obs, cache=True)
        json.dumps(obs.metrics.snapshot())
