"""The ``/metrics`` + ``/debug/*`` observability endpoints.

Single-daemon exposition, the router's fleet aggregation (per-shard
labels plus the unlabeled merged series), the structured-log ring at
``/debug/last``, and the disabled paths (404s, silent logs).
"""

import pytest

from repro.core.config import ICPConfig
from repro.obs.promexport import (
    CONTENT_TYPE,
    parse_prometheus_text,
    sample_value,
)
from repro.serve import REQUEST_ID_HEADER, AnalysisServer, ShardRouter

SOURCE = """\
proc main() { call sub1(0); }
proc sub1(f1) {
    x = 1;
    if (f1 != 0) { y = 1; } else { y = 0; }
    call sub2(y, 4, f1, x);
}
proc sub2(f2, f3, f4, f5) { t = f2 + f3 + f4 + f5; print(t); }
"""


def _config(**overrides):
    data = {"serve_workers": 1, "serve_max_queue": 4, **overrides}
    return ICPConfig.from_dict(data)


@pytest.fixture
def server():
    srv = AnalysisServer(_config())
    yield srv
    srv.close()


@pytest.fixture
def router():
    rtr = ShardRouter.local(_config(), shards=2)
    yield rtr
    rtr.close()


class TestDaemonMetrics:
    def test_metrics_endpoint_renders_prometheus_text(self, server):
        server.handle_request("POST", "/v1/programs/p1", {"source": SOURCE})
        server.handle_request("GET", "/v1/programs/p1/report")
        status, text, headers = server.handle_request("GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        parsed = parse_prometheus_text(text)
        assert sample_value(parsed, "repro_http_requests_total") >= 2
        assert sample_value(parsed, "repro_http_status_200_total") >= 2
        assert sample_value(parsed, "repro_http_in_flight") >= 0
        # The per-endpoint latency histogram saw the report request.
        assert sample_value(
            parsed, "repro_http_latency_report_count"
        ) >= 1

    def test_metrics_404_when_disabled(self):
        server = AnalysisServer(_config(serve_metrics=False))
        try:
            status, payload, _ = server.handle_request("GET", "/v1/metrics")
            assert status == 404
            assert "disabled" in payload["error"]
            status, _, _ = server.handle_request("GET", "/v1/debug/metrics")
            assert status == 404
        finally:
            server.close()

    def test_obs_endpoints_do_not_count_as_serve_requests(self, server):
        before = server.stats.requests
        server.handle_request("GET", "/v1/metrics")
        server.handle_request("GET", "/v1/debug/metrics")
        assert server.stats.requests == before

    def test_debug_metrics_shape(self, server):
        import os

        server.handle_request("GET", "/v1/healthz")
        status, payload, _ = server.handle_request("GET", "/v1/debug/metrics")
        assert status == 200
        assert payload["pid"] == os.getpid()
        assert payload["shard"] is None
        assert isinstance(payload["epoch_wall"], float)
        assert payload["snapshot"]["counters"]["http.requests"] >= 1


class TestRouterMetrics:
    def test_router_aggregates_shards_with_labels(self, router):
        for index in range(4):
            status, _, _ = router.handle_request(
                "POST", f"/v1/programs/p{index}", {"source": SOURCE}
            )
            assert status == 200
        status, text, _ = router.handle_request("GET", "/v1/metrics")
        assert status == 200
        parsed = parse_prometheus_text(text)
        front = sample_value(
            parsed, "repro_http_requests_total", {"process": "router"}
        )
        assert front >= 4
        shard_total = 0.0
        for shard in ("0", "1"):
            value = sample_value(
                parsed, "repro_http_requests_total", {"shard": shard}
            )
            assert value >= 0
            shard_total += value
        assert shard_total >= 4
        # The unlabeled series is the fleet aggregate of the shards.
        assert sample_value(
            parsed, "repro_http_requests_total"
        ) == shard_total

    def test_router_metrics_skips_dead_shards(self, router):
        from repro.serve import ShardUnavailable

        class Dead:
            index = 9
            alive = True

            def request(self, method, path, body, timeout, headers=None):
                raise ShardUnavailable("shard 9: gone")

        router.shards.append(Dead())
        try:
            status, text, _ = router.handle_request("GET", "/v1/metrics")
            assert status == 200
            parsed = parse_prometheus_text(text)
            assert sample_value(
                parsed, "repro_http_requests_total", {"process": "router"}
            ) >= 1
        finally:
            router.shards.pop()


class TestDebugLast:
    def test_entries_carry_request_ids(self, server):
        server.handle_request(
            "POST",
            "/v1/programs/p1",
            {"source": SOURCE},
            headers={REQUEST_ID_HEADER: "ring-1"},
        )
        status, payload, _ = server.handle_request("GET", "/v1/debug/last")
        assert status == 200
        ids = [entry.get("request_id") for entry in payload["entries"]]
        assert "ring-1" in ids

    def test_n_query_limits_the_window(self, server):
        for index in range(5):
            server.handle_request("GET", f"/v1/programs/p{index}/report")
        status, payload, _ = server.handle_request("GET", "/v1/debug/last?n=2")
        assert status == 200
        assert len(payload["entries"]) == 2
        paths = [entry["path"] for entry in payload["entries"]]
        assert paths == ["/v1/programs/p3/report", "/v1/programs/p4/report"]

    def test_bad_n_is_a_400(self, server):
        status, payload, _ = server.handle_request(
            "GET", "/v1/debug/last?n=soon"
        )
        assert status == 400
        assert "integer" in payload["error"]

    def test_disabled_log_keeps_the_ring_empty(self, capsys):
        server = AnalysisServer(_config(serve_log_enabled=False))
        try:
            server.handle_request("GET", "/v1/healthz")
            status, payload, _ = server.handle_request("GET", "/v1/debug/last")
            assert status == 200
            assert payload["entries"] == []
            assert capsys.readouterr().err == ""
        finally:
            server.close()
