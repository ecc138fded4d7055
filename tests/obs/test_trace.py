"""Tracer tests: span nesting, thread merging, export, and validation."""

import json
import threading

from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    validate_chrome_trace,
    validate_trace_file,
)


class TestSpans:
    def test_balanced_begin_end_pair(self):
        tracer = Tracer()
        with tracer.span("outer", cat="test", level=3):
            pass
        events = tracer.events()
        assert [e["ph"] for e in events] == ["B", "E"]
        begin, end = events
        assert begin["name"] == end["name"] == "outer"
        assert begin["args"] == {"level": 3}
        assert end["ts"] >= begin["ts"]

    def test_nested_spans_emit_in_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [(e["ph"], e["name"]) for e in tracer.events()]
        assert names == [
            ("B", "outer"), ("B", "inner"), ("E", "inner"), ("E", "outer"),
        ]

    def test_set_attaches_attributes_mid_span(self):
        tracer = Tracer()
        with tracer.span("level", tasks=4) as span:
            span.set(cached=1)
        begin = tracer.events()[0]
        assert begin["args"] == {"tasks": 4, "cached": 1}

    def test_instant_event(self):
        tracer = Tracer()
        tracer.instant("cache-hit", cat="cache", proc="f")
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["args"]["proc"] == "f"

    def test_worker_threads_get_their_own_tracks(self):
        tracer = Tracer()

        def work():
            with tracer.span("engine", proc="f"):
                pass

        with tracer.span("pipeline"):
            threads = [
                threading.Thread(target=work, name=f"w{i}") for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        tids = {e["tid"] for e in tracer.events()}
        assert "coordinator" in tids
        assert len(tids) == 4  # coordinator + 3 workers
        assert not validate_chrome_trace(tracer.to_chrome())

    def test_duplicate_thread_names_uniquified(self):
        tracer = Tracer()

        def work():
            with tracer.span("engine"):
                pass

        for _ in range(2):
            t = threading.Thread(target=work, name="worker")
            t.start()
            t.join()
        tids = {e["tid"] for e in tracer.events()}
        assert tids == {"worker", "worker#1"}


class TestDisabledTracer:
    def test_span_is_shared_noop(self):
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b")
        assert first is second  # cached singleton: no per-span allocation
        with first as span:
            span.set(anything=1)
        NULL_TRACER.instant("x")
        assert NULL_TRACER.events() == []


class TestChromeExport:
    def _populated(self):
        tracer = Tracer()
        with tracer.span("pipeline", entry="main"):
            with tracer.span("icp_fs", cat="phase"):
                tracer.instant("cache-miss", cat="cache", proc="f")
        return tracer

    def test_round_trip_through_json(self, tmp_path):
        tracer = self._populated()
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert len(data["traceEvents"]) == 5
        assert validate_trace_file(str(path)) == []

    def test_tree_rendering(self):
        tracer = self._populated()
        tree = tracer.format_tree()
        assert "[coordinator]" in tree
        assert "pipeline" in tree and "icp_fs" in tree
        assert "cache-miss" in tree


class TestValidator:
    def _event(self, **overrides):
        event = {"name": "e", "ph": "B", "ts": 0.0, "pid": 1, "tid": "t"}
        event.update(overrides)
        return event

    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["top level is not a JSON object"]
        assert validate_chrome_trace({"nope": 1}) == [
            "missing or non-list 'traceEvents'"
        ]

    def test_rejects_missing_keys_and_unknown_phase(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"name": "x"}, self._event(ph="Q")]}
        )
        assert any("missing keys" in p for p in problems)
        assert any("unknown phase" in p for p in problems)

    def test_rejects_negative_timestamps_and_durations(self):
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    self._event(ts=-1.0),
                    self._event(ph="X", ts=0.0, dur=-5),
                ]
            }
        )
        assert any("invalid ts" in p for p in problems)
        assert any("invalid dur" in p for p in problems)

    def test_rejects_unbalanced_spans(self):
        lone_end = {"traceEvents": [self._event(ph="E")]}
        assert any(
            "E without matching B" in p for p in validate_chrome_trace(lone_end)
        )
        lone_begin = {"traceEvents": [self._event(ph="B")]}
        assert any("unclosed B" in p for p in validate_chrome_trace(lone_begin))

    def test_rejects_interleaved_nesting_on_one_track(self):
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    self._event(name="a", ph="B", ts=0.0),
                    self._event(name="b", ph="B", ts=1.0),
                    self._event(name="a", ph="E", ts=2.0),
                    self._event(name="b", ph="E", ts=3.0),
                ]
            }
        )
        assert any("bad nesting" in p for p in problems)

    def test_separate_tracks_validate_independently(self):
        trace = {
            "traceEvents": [
                self._event(name="a", ph="B", ts=0.0, tid="t1"),
                self._event(name="b", ph="B", ts=1.0, tid="t2"),
                self._event(name="a", ph="E", ts=2.0, tid="t1"),
                self._event(name="b", ph="E", ts=3.0, tid="t2"),
            ]
        }
        assert validate_chrome_trace(trace) == []

    def test_file_level_errors_reported(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert any(
            "cannot load" in p for p in validate_trace_file(str(missing))
        )
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert any("cannot load" in p for p in validate_trace_file(str(bad)))

    def test_validator_cli(self, tmp_path, capsys):
        from repro.obs.validate import main

        tracer = Tracer()
        with tracer.span("s"):
            pass
        good = tmp_path / "good.json"
        tracer.write(str(good))
        assert main([str(good)]) == 0
        assert "ok (2 events)" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"name": "x"}]}')
        assert main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
        assert main([]) == 2
