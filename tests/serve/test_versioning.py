"""The /v1 API surface: every route lives under ``/v1``.

A path without the prefix answers 404 with an error naming its ``/v1``
spelling, through the same observability envelope as any other answer.
The router speaks ``/v1`` on every hop to its shards.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import ICPConfig
from repro.serve import (
    API_VERSION,
    REQUEST_ID_HEADER,
    AnalysisServer,
    split_api_version,
)

SOURCE = """\
proc main() { call sub1(0); }
proc sub1(f1) {
    x = 1;
    if (f1 != 0) { y = 1; } else { y = 0; }
    call sub2(y, 4, f1, x);
}
proc sub2(f2, f3, f4, f5) { t = f2 + f3 + f4 + f5; print(t); }
"""


@pytest.fixture
def server():
    srv = AnalysisServer(
        ICPConfig.from_dict({"serve_workers": 1, "serve_max_queue": 4})
    )
    yield srv
    srv.close()


class TestSplit:
    def test_versioned_paths_normalize(self):
        assert split_api_version("/v1/healthz") == ("/healthz", True)
        assert split_api_version("/v1/programs/p1/report") == (
            "/programs/p1/report",
            True,
        )
        assert split_api_version("/v1") == ("/", True)

    def test_query_string_survives(self):
        assert split_api_version("/v1/programs/p1?timeout=2") == (
            "/programs/p1?timeout=2",
            True,
        )

    def test_unversioned_and_lookalikes_pass_through(self):
        assert split_api_version("/healthz") == ("/healthz", False)
        assert split_api_version("/v10/healthz") == ("/v10/healthz", False)
        assert split_api_version("/programs/v1") == ("/programs/v1", False)

    def test_api_version_constant(self):
        assert API_VERSION == "v1"


class TestUnversioned:
    def test_v1_routes_answer(self, server):
        status, _, _ = server.handle_request(
            "POST", "/v1/programs/p1", {"source": SOURCE}, {}
        )
        assert status == 200
        status, payload, _ = server.handle_request(
            "GET", "/v1/programs/p1/report", None, {}
        )
        assert status == 200 and payload["report"]

    def test_daemon_answers_404_naming_v1(self, server):
        server.handle_request("POST", "/v1/programs/p1", {"source": SOURCE}, {})
        status, payload, headers = server.handle_request(
            "GET", "/programs/p1/report", None, {}
        )
        assert status == 404
        assert "/v1/programs/p1/report" in payload["error"]
        assert headers[REQUEST_ID_HEADER]

    def test_404_is_logged_and_counted(self, server):
        server.handle_request("GET", "/healthz", None, {})
        counters = server.obs.metrics.snapshot()["counters"]
        assert counters["http.status.404"] == 1
        _, payload, _ = server.handle_request("GET", "/v1/debug/last", None, {})
        assert [(e["path"], e["status"]) for e in payload["entries"]] == [
            ("/healthz", 404)
        ]


def _fetch(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestOverHTTP:
    def test_daemon_serves_v1_only(self):
        srv = AnalysisServer(
            ICPConfig.from_dict(
                {
                    "serve_workers": 1,
                    "serve_port": 0,
                    "serve_log_enabled": False,
                }
            )
        )
        host, port = srv.start()
        base = f"http://{host}:{port}"
        try:
            status, payload = _fetch(base, "/v1/healthz")
            assert status == 200 and payload["ok"] is True
            status, payload = _fetch(base, "/healthz")
            assert status == 404 and "/v1/healthz" in payload["error"]
        finally:
            srv.close()

    def test_sharded_front_proxies_v1(self):
        from repro.serve import create_server

        srv = create_server(
            ICPConfig.from_dict(
                {
                    "serve_workers": 1,
                    "serve_port": 0,
                    "serve_shards": 2,
                    "serve_log_enabled": False,
                }
            )
        )
        host, port = srv.start()
        base = f"http://{host}:{port}"
        try:
            status, payload = _fetch(base, "/v1/healthz")
            assert status == 200 and payload["ok"] is True
            status, payload = _fetch(base, "/healthz")
            assert status == 404 and "/v1/healthz" in payload["error"]
        finally:
            srv.close()
