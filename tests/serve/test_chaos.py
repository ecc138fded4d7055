"""Chaos: SIGKILL a shard and watch the deployment heal itself.

Real worker processes, real sockets, a real ``kill()``.  The guarantees
under test: an in-flight client caught by the crash gets a clean JSON 503
with ``Retry-After`` (never a hang or a truncated payload), the supervisor
respawns the shard in place, and — because summaries persist in the shared
store — the respawned shard warm-starts every program it had seen with
zero engine runs.
"""

import json
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.core.config import ICPConfig
from repro.serve import (
    REQUEST_ID_HEADER,
    RETRY_AFTER_SECONDS,
    ShardRouter,
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

RESPAWN_DEADLINE_SECONDS = 60.0


def _wait_for_respawn(router, shard, old_pid):
    deadline = time.monotonic() + RESPAWN_DEADLINE_SECONDS
    while time.monotonic() < deadline:
        if shard.alive() and shard.pid != old_pid:
            return
        time.sleep(0.1)
    pytest.fail(
        f"shard {shard.index} not respawned within "
        f"{RESPAWN_DEADLINE_SECONDS:.0f}s"
    )


@pytest.mark.slow
class TestShardCrash:
    def test_sigkill_respawn_and_warm_start(self, tmp_path):
        config = ICPConfig.from_dict(
            {
                "serve_shards": 2,
                "serve_rebalance": 0.2,
                "serve_workers": 1,
                "store_dir": str(tmp_path / "store"),
            }
        )
        router = ShardRouter(config)
        try:
            status, cold, _ = router.dispatch(
                "POST", "/programs/victim", {"source": SOURCE}
            )
            assert status == 200
            assert cold["session"]["engine_runs"] > 0

            victim = router.shard_for("victim")
            old_pid = victim.pid
            assert old_pid is not None

            # An in-flight request racing the kill must resolve cleanly:
            # either it finished first (200) or it died with the shard and
            # the router answered a retryable JSON 503 — never a hang or
            # a truncated body.
            in_flight = {}

            def fire():
                status, payload, headers = router.dispatch(
                    "GET", "/programs/victim/report"
                )
                in_flight.update(
                    status=status, payload=payload, headers=headers
                )

            client = threading.Thread(target=fire)
            client.start()
            victim.kill()
            client.join(timeout=90)
            assert not client.is_alive()
            assert in_flight["status"] in (200, 503)
            if in_flight["status"] == 503:
                assert in_flight["headers"]["Retry-After"] == str(
                    RETRY_AFTER_SECONDS
                )
                assert in_flight["payload"]["retry_after"] == (
                    RETRY_AFTER_SECONDS
                )

            # With the shard dead, requests keep failing clean until the
            # supervisor (rebalance interval 0.2s) brings it back.  The
            # client's request id is echoed even on the failure path.
            if not victim.alive():
                status, payload, headers = router.handle_request(
                    "GET",
                    "/v1/programs/victim/report",
                    headers={REQUEST_ID_HEADER: "chaos-dead"},
                )
                assert headers[REQUEST_ID_HEADER] == "chaos-dead"
                if status == 503:
                    assert "shard" in payload["error"]
                    assert "Retry-After" in headers

            _wait_for_respawn(router, victim, old_pid)
            assert victim.respawns >= 1
            assert router.stats.respawns >= 1

            # Request identity is stable across the respawn: the same
            # client-supplied id round-trips through the replacement.
            status, _, headers = router.handle_request(
                "GET",
                "/v1/programs/victim/report",
                headers={REQUEST_ID_HEADER: "chaos-dead"},
            )
            assert headers[REQUEST_ID_HEADER] == "chaos-dead"

            # The respawned worker owns the same arc: re-POSTing the same
            # source warm-starts entirely from the shared store.
            status, warm, _ = router.dispatch(
                "POST", "/programs/victim", {"source": SOURCE}
            )
            assert status == 200
            assert warm["session"]["engine_runs"] == 0
            assert warm["constant_formals"] == cold["constant_formals"]

            _, health, _ = router.dispatch("GET", "/healthz")
            assert health["ok"] is True
            entry = health["shards"][victim.index]
            assert entry["alive"] is True
            assert entry["pid"] == victim.pid
            assert entry["pid"] != old_pid
            assert entry["respawns"] >= 1
        finally:
            router.close()

    def test_untouched_shard_survives_its_siblings_crash(self, tmp_path):
        config = ICPConfig.from_dict(
            {
                "serve_shards": 2,
                "serve_rebalance": 0.2,
                "serve_workers": 1,
                "store_dir": str(tmp_path / "store"),
            }
        )
        router = ShardRouter(config)
        try:
            # Find two program ids on different shards.
            ids = iter(f"p{i}" for i in range(64))
            first = next(ids)
            owner = router.ring.shard_for(first)
            second = next(
                pid for pid in ids if router.ring.shard_for(pid) != owner
            )
            for pid in (first, second):
                status, _, _ = router.dispatch(
                    "POST", f"/programs/{pid}", {"source": SOURCE}
                )
                assert status == 200

            victim = router.shard_for(first)
            survivor = router.shard_for(second)
            old_pid = victim.pid
            victim.kill()

            # The sibling keeps serving while the victim is down.
            status, payload, _ = router.dispatch(
                "GET", f"/programs/{second}/report"
            )
            assert status == 200
            assert "constant propagation report" in payload["report"]
            assert survivor.pid is not None and survivor.alive()

            _wait_for_respawn(router, victim, old_pid)
        finally:
            router.close()


def _pid_gone(pid):
    try:
        import os

        os.kill(pid, 0)
        return False
    except ProcessLookupError:
        return True
    except PermissionError:  # pragma: no cover - exists under another uid
        return False


@pytest.mark.slow
class TestOrderlyShutdown:
    def test_sigterm_to_the_cli_reaps_every_shard(self, tmp_path):
        """A supervisor `kill` of the serve front must not orphan workers."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--shards", "2", "--serve-workers", "1",
             "--store-dir", str(tmp_path / "store"), "--max-seconds", "120"],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            port = int(re.search(r":(\d+) ", banner).group(1))
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/healthz", timeout=30
            ) as response:
                health = json.loads(response.read())
            worker_pids = [s["pid"] for s in health["shards"]]
            assert len(worker_pids) == 2 and all(worker_pids)

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if all(_pid_gone(pid) for pid in worker_pids):
                    return
                time.sleep(0.2)
            pytest.fail(f"orphaned shard workers: {worker_pids}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
