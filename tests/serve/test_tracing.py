"""Request identity and distributed tracing through the serve fleet.

Covers the ``handle_request`` observability envelope: request-id minting
and echoing (on success *and* on every error status), header propagation
router → shard over :class:`LocalShard` hops, and the merged fleet trace
— one Chrome trace whose spans share a trace id and parent-link across
(synthetic) process boundaries.
"""

import pytest

from repro.core.config import ICPConfig
from repro.obs.trace import (
    count_cross_process_links,
    validate_chrome_trace,
    validate_trace_links,
)
from repro.obs.validate import main as validate_main
from repro.serve import (
    REQUEST_ID_HEADER,
    AnalysisServer,
    ShardRouter,
)
from repro.serve.context import TRACE_HEADER, RequestContext, from_headers

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
def traced_router():
    rtr = ShardRouter.local(_config(serve_trace=True), shards=2)
    yield rtr
    rtr.close()


class TestRequestIdentity:
    def test_request_id_is_minted_and_echoed(self, server):
        status, _, headers = server.handle_request(
            "POST", "/v1/programs/p1", {"source": SOURCE}
        )
        assert status == 200
        assert len(headers[REQUEST_ID_HEADER]) == 16

    def test_client_supplied_request_id_is_honored(self, server):
        status, _, headers = server.handle_request(
            "GET", "/v1/healthz", headers={REQUEST_ID_HEADER: "req-42"}
        )
        assert status == 200
        assert headers[REQUEST_ID_HEADER] == "req-42"

    def test_request_id_is_echoed_on_error_statuses(self, server):
        cases = [
            ("GET", "/v1/programs/ghost/report", None, 404),
            ("POST", "/v1/programs/p1", {}, 400),
            ("GET", "/nope", None, 404),
        ]
        for method, path, body, expected in cases:
            status, _, headers = server.handle_request(
                method, path, body, headers={REQUEST_ID_HEADER: "err-id"}
            )
            assert status == expected
            assert headers[REQUEST_ID_HEADER] == "err-id"

    def test_request_id_is_echoed_on_503(self, server):
        server.handle_request("POST", "/v1/programs/p1", {"source": SOURCE})
        held = 0
        while server._slots.acquire(blocking=False):
            held += 1
        try:
            status, _, headers = server.handle_request(
                "GET",
                "/v1/programs/p1/report",
                headers={REQUEST_ID_HEADER: "shed-id"},
            )
            assert status == 503
            assert headers[REQUEST_ID_HEADER] == "shed-id"
        finally:
            for _ in range(held):
                server._slots.release()

    def test_garbage_header_values_are_replaced(self, server):
        status, _, headers = server.handle_request(
            "GET", "/v1/healthz", headers={REQUEST_ID_HEADER: "x" * 500}
        )
        assert status == 200
        echoed = headers[REQUEST_ID_HEADER]
        assert echoed != "x" * 500 and len(echoed) <= 128

    def test_propagation_disabled_omits_the_header(self):
        server = AnalysisServer(_config(trace_propagate=False))
        try:
            status, _, headers = server.handle_request("GET", "/v1/healthz")
            assert status == 200
            assert REQUEST_ID_HEADER not in headers
        finally:
            server.close()


class TestContextParsing:
    def test_trace_header_round_trip(self):
        ctx = RequestContext(
            request_id="rid", trace_id="tid", parent=None, span="s1"
        )
        hop = ctx.child_headers("hop-span")
        parsed = from_headers(hop)
        assert parsed.request_id == "rid"
        assert parsed.trace_id == "tid"
        assert parsed.parent == "hop-span"

    def test_missing_headers_mint_fresh_identity(self):
        ctx = from_headers(None)
        assert len(ctx.request_id) == 16
        assert ctx.trace_id == ctx.request_id
        assert ctx.parent is None

    def test_malformed_trace_header_falls_back(self):
        ctx = from_headers({TRACE_HEADER: ":::"})
        assert ctx.trace_id  # minted, not empty
        assert ctx.parent is None


class TestFleetPropagation:
    def test_same_request_id_at_router_and_shard(self, traced_router):
        status, _, headers = traced_router.handle_request(
            "POST",
            "/v1/programs/p1",
            {"source": SOURCE},
            headers={REQUEST_ID_HEADER: "fleet-1"},
        )
        assert status == 200
        assert headers[REQUEST_ID_HEADER] == "fleet-1"
        owner = traced_router.shard_for("p1")
        shard_ids = [
            entry.get("request_id")
            for entry in owner.server.log.last()
        ]
        router_ids = [
            entry.get("request_id") for entry in traced_router.log.last()
        ]
        assert "fleet-1" in shard_ids
        assert "fleet-1" in router_ids

    def test_merged_fleet_trace_validates_with_cross_process_links(
        self, traced_router
    ):
        for index in range(3):
            status, _, _ = traced_router.handle_request(
                "POST", f"/v1/programs/p{index}", {"source": SOURCE}
            )
            assert status == 200
        trace = traced_router.export_trace()
        assert validate_chrome_trace(trace) == []
        assert validate_trace_links(trace) == []
        assert count_cross_process_links(trace) >= 1
        # Every span in the merged trace shares the fleet's pid namespace:
        # router spans under the real pid, shard spans under synthetic ones.
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert len(pids) >= 2

    def test_debug_trace_endpoint_serves_the_merged_trace(self, traced_router):
        traced_router.handle_request(
            "POST", "/v1/programs/p1", {"source": SOURCE}
        )
        status, payload, _ = traced_router.handle_request(
            "GET", "/v1/debug/trace"
        )
        assert status == 200
        assert validate_chrome_trace(payload) == []

    def test_trace_endpoint_404s_when_tracing_disabled(self, server):
        status, _, _ = server.handle_request("GET", "/v1/debug/trace")
        assert status == 404


class TestValidateCLI:
    def test_require_links_passes_on_a_fleet_trace(
        self, traced_router, tmp_path, capsys
    ):
        import json

        traced_router.handle_request(
            "POST", "/v1/programs/p1", {"source": SOURCE}
        )
        path = tmp_path / "fleet-trace.json"
        path.write_text(json.dumps(traced_router.export_trace()))
        assert validate_main(["--require-links", str(path)]) == 0
        assert "cross-process link" in capsys.readouterr().out

    def test_require_links_fails_on_a_single_process_trace(
        self, tmp_path, capsys
    ):
        import json

        server = AnalysisServer(_config(serve_trace=True))
        try:
            server.handle_request("POST", "/v1/programs/p1", {"source": SOURCE})
            path = tmp_path / "solo-trace.json"
            path.write_text(json.dumps(server.export_trace()))
            assert validate_main([str(path)]) == 0
            assert validate_main(["--require-links", str(path)]) == 1
            assert "no cross-process" in capsys.readouterr().out
        finally:
            server.close()

    def test_dangling_parent_is_detected(self, tmp_path):
        import json

        trace = {
            "traceEvents": [
                {
                    "name": "a", "ph": "X", "ts": 0, "dur": 5,
                    "pid": 1, "tid": 1,
                    "args": {
                        "trace": "t", "span": "1.1", "parent": "9.9",
                    },
                },
            ]
        }
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(trace))
        assert validate_main([str(path)]) == 1
