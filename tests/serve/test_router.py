"""The shard router: placement, backpressure, degradation, aggregation.

Everything here runs over :class:`LocalShard` backends — in-process
``AnalysisServer`` instances behind the real router code paths — so the
routing/backpressure/propagation logic is exercised deterministically.
Process management (spawn, SIGKILL, respawn) lives in ``test_chaos.py``.
"""

import os
import threading

import pytest

from repro.core.config import ICPConfig
from repro.serve import (
    RETRY_AFTER_SECONDS,
    AnalysisServer,
    ShardRouter,
    ShardUnavailable,
    create_server,
)
from repro.serve.router import LocalShard

SOURCE = """\
proc main() { call sub1(0); }
proc sub1(f1) {
    x = 1;
    if (f1 != 0) { y = 1; } else { y = 0; }
    call sub2(y, 4, f1, x);
}
proc sub2(f2, f3, f4, f5) { t = f2 + f3 + f4 + f5; print(t); }
"""

EDITED = SOURCE.replace("call sub1(0)", "call sub1(9)")


def _config(**overrides):
    data = {"serve_workers": 1, "serve_max_queue": 4, **overrides}
    return ICPConfig.from_dict(data)


@pytest.fixture
def router():
    rtr = ShardRouter.local(_config(), shards=3)
    yield rtr
    rtr.close()


class TestRouting:
    def test_program_lands_on_its_ring_shard(self, router):
        ids = [f"prog{i}" for i in range(8)]
        for program_id in ids:
            status, _, _ = router.dispatch(
                "POST", f"/programs/{program_id}", {"source": SOURCE}
            )
            assert status == 200
        for program_id in ids:
            owner = router.ring.shard_for(program_id)
            for shard in router.shards:
                status, _, _ = shard.server.dispatch(
                    "GET", f"/programs/{program_id}/report"
                )
                assert status == (200 if shard.index == owner else 404)

    def test_edits_and_reports_follow_the_same_placement(self, router):
        router.dispatch("POST", "/programs/p1", {"source": SOURCE})
        status, payload, _ = router.dispatch(
            "POST", "/programs/p1/edits", {"source": EDITED}
        )
        assert status == 200
        assert payload["changed"] == 1
        status, payload, _ = router.dispatch("GET", "/programs/p1/report")
        assert status == 200
        assert "constant propagation report" in payload["report"]
        status, payload, _ = router.dispatch("GET", "/programs/p1/diagnostics")
        assert status == 200
        assert isinstance(payload["findings"], list)

    def test_delete_routes_to_owner(self, router):
        router.dispatch("POST", "/programs/p1", {"source": SOURCE})
        assert router.dispatch("DELETE", "/programs/p1")[0] == 200
        assert router.dispatch("DELETE", "/programs/p1")[0] == 404

    def test_unknown_routes_404_at_the_router(self, router):
        assert router.dispatch("GET", "/nope")[0] == 404
        assert router.dispatch("GET", "/programs")[0] == 404
        assert router.dispatch("GET", "/programs/a/b/c/d")[0] == 404

    def test_worker_errors_proxy_through(self, router):
        # 404 for a never-loaded program and 400 for a bad body both come
        # from the worker, through the router, status intact.
        assert router.dispatch("GET", "/programs/ghost/report")[0] == 404
        assert router.dispatch("POST", "/programs/p1", {})[0] == 400


class TestBackpressure:
    def test_router_queue_flood_rejects_with_retry_after(self, router):
        router.dispatch("POST", "/programs/p1", {"source": SOURCE})
        held = 0
        while router._slots.acquire(blocking=False):
            held += 1
        # Router capacity is per-shard queue depth times the fleet size.
        assert held == router.config.serve_max_queue * 3
        status, payload, headers = router.dispatch(
            "GET", "/programs/p1/report"
        )
        assert status == 503
        assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)
        assert payload["retry_after"] == RETRY_AFTER_SECONDS
        assert payload["error"] == "router queue is full"
        assert router.stats.rejected == 1
        for _ in range(held):
            router._slots.release()
        assert router.dispatch("GET", "/programs/p1/report")[0] == 200

    def test_worker_503_propagates_with_retry_after(self, router):
        router.dispatch("POST", "/programs/p1", {"source": SOURCE})
        owner = router.shard_for("p1")
        held = 0
        while owner.server._slots.acquire(blocking=False):
            held += 1
        try:
            status, payload, headers = router.dispatch(
                "GET", "/programs/p1/report"
            )
            assert status == 503
            assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)
            assert payload["retry_after"] == RETRY_AFTER_SECONDS
            # Shed by the worker, not the router.
            assert router.stats.rejected == 0
            assert owner.server.stats.rejected == 1
        finally:
            for _ in range(held):
                owner.server._slots.release()

    def test_shard_failure_maps_to_clean_503(self):
        class DoomedShard(LocalShard):
            def request(self, method, path, body, timeout, headers=None):
                raise ShardUnavailable("shard 0: connection refused")

        config = _config()
        backends = [
            DoomedShard(0, AnalysisServer(config, shard_index=0)),
        ]
        rtr = ShardRouter(config, shards=backends)
        try:
            status, payload, headers = rtr.dispatch(
                "POST", "/programs/p1", {"source": SOURCE}
            )
            assert status == 503
            assert "connection refused" in payload["error"]
            assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)
            assert rtr.stats.shard_failures == 1
            # The supervisor was woken to respawn without waiting a full
            # rebalance interval.
            assert rtr._wake.is_set() or rtr.stats.respawns >= 0
        finally:
            rtr.close()


class TestDegradation:
    def test_deadline_degrades_to_fi_through_the_router(
        self, router, monkeypatch
    ):
        import repro.serve.daemon as daemon
        from repro.session import AnalysisSession

        class SlowSession(AnalysisSession):
            def analyze(self, *args, **kwargs):
                import time

                time.sleep(0.3)
                return super().analyze(*args, **kwargs)

        monkeypatch.setattr(daemon, "AnalysisSession", SlowSession)
        status, payload, _ = router.dispatch(
            "POST", "/programs/p1", {"source": SOURCE, "timeout": 0.05}
        )
        assert status == 200
        assert payload["degraded"] is True
        assert payload["method"] == "fi"

    def test_fallbackless_timeout_is_a_504_through_the_router(
        self, router, monkeypatch
    ):
        router.dispatch("POST", "/programs/p1", {"source": SOURCE})
        owner = router.shard_for("p1")
        program = owner.server._get_program("p1")

        def slow_report():
            import time

            time.sleep(0.3)
            return "late"

        monkeypatch.setattr(program.session, "report", slow_report)
        status, _, _ = router.dispatch(
            "GET", "/programs/p1/report?timeout=0.05"
        )
        assert status == 504

    def test_malformed_timeout_is_the_workers_400(self, router):
        status, _, _ = router.dispatch(
            "POST", "/programs/p1", {"source": SOURCE, "timeout": "soon"}
        )
        assert status == 400


class TestAggregation:
    def test_healthz_shape(self, router):
        router.dispatch("POST", "/programs/p1", {"source": SOURCE})
        status, payload, _ = router.dispatch("GET", "/healthz")
        assert status == 200
        # Regression: the aggregated fleet-health JSON shape.
        assert sorted(payload) == ["ok", "pid", "programs", "shard", "shards"]
        assert payload["ok"] is True
        assert payload["pid"] == os.getpid()
        assert payload["shard"] is None
        assert payload["programs"] == 1
        assert len(payload["shards"]) == 3
        for entry in payload["shards"]:
            assert sorted(entry) == [
                "alive", "pid", "port", "programs", "respawns",
                "sessions", "shard", "store",
            ]
            assert entry["alive"] is True
            assert entry["sessions"]["max"] == (
                router.config.serve_max_sessions
            )
        owner = router.ring.shard_for("p1")
        assert payload["shards"][owner]["programs"] == 1

    def test_stats_aggregates_router_and_shards(self, router):
        router.dispatch("POST", "/programs/p1", {"source": SOURCE})
        router.dispatch("GET", "/programs/p1/report")
        status, payload, _ = router.dispatch("GET", "/stats")
        assert status == 200
        counters = payload["router"]
        assert counters["proxied"] == 2
        assert counters["completed"] == 2
        assert counters["rejected"] == 0
        assert counters["config"]["shards"] == 3
        assert counters["config"]["max_queue"] == (
            router.config.serve_max_queue * 3
        )
        assert len(payload["shards"]) == 3
        for entry in payload["shards"]:
            assert entry["alive"] is True
            assert entry["stats"]["config"]["max_queue"] == (
                router.config.serve_max_queue
            )

    def test_concurrent_requests_are_all_served(self, router):
        for index in range(4):
            router.dispatch(
                "POST", f"/programs/p{index}", {"source": SOURCE}
            )
        statuses = []
        lock = threading.Lock()

        def fire(index):
            status, _, _ = router.dispatch(
                "GET", f"/programs/p{index % 4}/report"
            )
            with lock:
                statuses.append(status)

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert statuses == [200] * 8


class TestCreateServer:
    def test_zero_shards_keeps_the_single_process_daemon(self):
        server = create_server(_config(serve_shards=0))
        try:
            assert isinstance(server, AnalysisServer)
        finally:
            server.close()


class TestProcessShardSpawning:
    def test_spawn_context_uses_spawn_start_method(self):
        from repro.serve.router import spawn_context

        # A fork-started shard clones the router's held locks and dies in
        # deadlock when the router runs threads (supervisor, tracing); the
        # supervisor must pin the spawn method rather than trust the
        # platform default.
        assert spawn_context().get_start_method() == "spawn"
