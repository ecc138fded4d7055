"""The summary-server daemon: routing, validation, dedup, introspection."""

import pytest

from repro.core.config import ICPConfig
from repro.store import SummaryService
from repro.store.service import MAX_BLOB_BYTES, valid_key

KEY = "ab" * 32
OTHER = "cd" * 32


@pytest.fixture
def service(tmp_path):
    srv = SummaryService(
        ICPConfig.from_dict(
            {
                "store_dir": str(tmp_path / "summaries"),
                "serve_log_enabled": False,
            }
        ),
        compact_interval=None,
    )
    yield srv
    srv.close()


class TestKeys:
    def test_valid_key_shape(self):
        assert valid_key("0" * 64)
        assert valid_key("abcdef0123456789" * 4)
        assert not valid_key("AB" * 32)  # upper-case hex is not canonical
        assert not valid_key("ab" * 31)
        assert not valid_key("xy" * 32)
        assert not valid_key("")

    def test_bad_key_is_400(self, service):
        for method in ("GET", "HEAD", "PUT"):
            status, _, _ = service.dispatch(
                method, "/summaries/nope", b"data"
            )
            assert status == 400
        assert service.stats.rejected == 3


class TestProtocol:
    def test_put_get_head_roundtrip(self, service):
        status, payload, _ = service.dispatch("PUT", f"/summaries/{KEY}", b"blob-1")
        assert status == 201
        assert payload == {"ok": True, "key": KEY, "deduped": False}
        status, body, _ = service.dispatch("GET", f"/summaries/{KEY}")
        assert status == 200 and body == b"blob-1"
        status, body, _ = service.dispatch("HEAD", f"/summaries/{KEY}")
        assert status == 200 and body == b""

    def test_miss_is_404(self, service):
        status, _, _ = service.dispatch("GET", f"/summaries/{OTHER}")
        assert status == 404
        status, _, _ = service.dispatch("HEAD", f"/summaries/{OTHER}")
        assert status == 404
        assert service.stats.get_misses == 1
        assert service.stats.heads == 1

    def test_duplicate_put_answers_200_deduped(self, service):
        assert service.dispatch("PUT", f"/summaries/{KEY}", b"blob")[0] == 201
        status, payload, _ = service.dispatch(
            "PUT", f"/summaries/{KEY}", b"blob"
        )
        assert status == 200
        assert payload["deduped"] is True
        assert service.stats.deduped == 1
        assert service.blobs.stats.dedup_writes == 1

    def test_empty_or_json_body_is_400(self, service):
        status, _, _ = service.dispatch("PUT", f"/summaries/{KEY}", b"")
        assert status == 400
        status, _, _ = service.dispatch(
            "PUT", f"/summaries/{KEY}", {"not": "bytes"}
        )
        assert status == 400

    def test_oversized_blob_is_413(self, service):
        status, _, _ = service.dispatch(
            "PUT", f"/summaries/{KEY}", b"x" * (MAX_BLOB_BYTES + 1)
        )
        assert status == 413
        assert service.dispatch("GET", f"/summaries/{KEY}")[0] == 404

    def test_unknown_route_is_404(self, service):
        assert service.dispatch("GET", "/programs/p1")[0] == 404
        assert service.dispatch("POST", f"/summaries/{KEY}", b"x")[0] == 404


class TestIntrospection:
    def test_healthz(self, service):
        status, payload, _ = service.dispatch("GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["role"] == "summary-server"
        assert payload["store"]["entries"] == 0

    def test_stats_counts_traffic(self, service):
        service.dispatch("PUT", f"/summaries/{KEY}", b"blob")
        service.dispatch("GET", f"/summaries/{KEY}")
        service.dispatch("GET", f"/summaries/{OTHER}")
        status, payload, _ = service.dispatch("GET", "/stats")
        assert status == 200
        assert payload["protocol"]["puts"] == 1
        assert payload["protocol"]["get_hits"] == 1
        assert payload["protocol"]["get_misses"] == 1
        assert payload["store"]["entries"] == 1

    def test_requires_store_dir(self):
        with pytest.raises(ValueError):
            SummaryService(ICPConfig())


class TestVersionedSurface:
    """The wire surface is born versioned: /v1 everywhere, and a path
    without the prefix answers 404."""

    def test_v1_paths_dispatch(self, service):
        status, payload, headers = service.handle_request(
            "GET", "/v1/healthz", None, {}
        )
        assert status == 200
        assert payload["role"] == "summary-server"
        assert "Deprecation" not in headers

    def test_unversioned_path_is_404(self, service):
        status, payload, _ = service.handle_request(
            "GET", "/healthz", None, {}
        )
        assert status == 404
        assert "/v1/healthz" in payload["error"]

    def test_v1_summary_roundtrip_over_handle_request(self, service):
        status, _, _ = service.handle_request(
            "PUT", f"/v1/summaries/{KEY}", b"wire-blob", {}
        )
        assert status == 201
        status, body, headers = service.handle_request(
            "GET", f"/v1/summaries/{KEY}", None, {}
        )
        assert status == 200 and body == b"wire-blob"
        assert "Deprecation" not in headers
