"""Differential: a sharded deployment is byte-identical to one process.

The sharding tentpole's core promise is that clients cannot tell how many
processes serve them.  These tests replay the same randomized corpus and
edit scripts against a single-process ``AnalysisServer`` and a 4-shard
router, then compare every payload — analyze, edits, report, diagnostics —
as canonical JSON bytes.  Any drift (a session counter, a constant value,
a diagnostic finding) fails the byte comparison.

The broad replay runs over in-process ``LocalShard`` backends; a smaller
replay exercises real spawned worker processes over real sockets.
"""

import http.client
import json

import pytest

from repro.bench.loadgen import LoadgenCorpus
from repro.core.config import ICPConfig
from repro.serve import AnalysisServer, ShardRouter, create_server


def _http_json(host, port, method, path, body=None):
    """One request over a real socket; returns (status, JSON payload)."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        conn.request(
            method,
            "/v1" + path,
            body=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _canon(payload):
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _replay(dispatch, corpus):
    """Replay the corpus sequentially; returns canonical bytes per step.

    ``dispatch(method, path, body) -> (status, payload)`` abstracts over
    in-process fronts and real sockets.
    """
    transcript = []
    for pid in corpus.ids:
        versions = corpus.versions[pid]
        status, payload = dispatch(
            "POST", f"/programs/{pid}", {"source": versions[0]}
        )
        assert status == 200, payload
        transcript.append((f"analyze {pid}", _canon(payload)))
        for version in versions[1:]:
            status, payload = dispatch(
                "POST", f"/programs/{pid}/edits", {"source": version}
            )
            assert status == 200, payload
            transcript.append((f"edit {pid}", _canon(payload)))
        status, payload = dispatch("GET", f"/programs/{pid}/report")
        assert status == 200, payload
        transcript.append((f"report {pid}", _canon(payload)))
        status, payload = dispatch("GET", f"/programs/{pid}/diagnostics")
        assert status == 200, payload
        transcript.append((f"diagnostics {pid}", _canon(payload)))
    return transcript


def _config(tmp_path, label, **overrides):
    data = {
        "serve_workers": 1,
        # Residency must cover the corpus: eviction 404s are a capacity
        # policy, not an answer, and would abort the byte comparison.
        "serve_max_sessions": 32,
        "store_dir": str(tmp_path / f"store-{label}"),
        **overrides,
    }
    return ICPConfig.from_dict(data)


def _assert_identical(single, sharded):
    assert len(single) == len(sharded)
    for (step, expected), (_, actual) in zip(single, sharded):
        assert actual == expected, f"payload drift at: {step}"


class TestLocalShardDifferential:
    def test_four_shards_byte_identical_to_single_process(self, tmp_path):
        corpus = LoadgenCorpus.build(programs=6, seed=1234, edits=3)

        single = AnalysisServer(_config(tmp_path, "single"))
        try:
            baseline = _replay(
                lambda m, p, b=None: single.dispatch(m, p, b)[:2], corpus
            )
        finally:
            single.close()

        router = ShardRouter.local(_config(tmp_path, "sharded"), shards=4)
        try:
            sharded = _replay(
                lambda m, p, b=None: router.dispatch(m, p, b)[:2], corpus
            )
        finally:
            router.close()

        _assert_identical(baseline, sharded)

    def test_differential_holds_across_seeds(self, tmp_path):
        for seed in (7, 99):
            corpus = LoadgenCorpus.build(programs=2, seed=seed, edits=2)
            single = AnalysisServer(_config(tmp_path, f"s{seed}"))
            try:
                baseline = _replay(
                    lambda m, p, b=None: single.dispatch(m, p, b)[:2], corpus
                )
            finally:
                single.close()
            router = ShardRouter.local(
                _config(tmp_path, f"r{seed}"), shards=4
            )
            try:
                sharded = _replay(
                    lambda m, p, b=None: router.dispatch(m, p, b)[:2], corpus
                )
            finally:
                router.close()
            _assert_identical(baseline, sharded)


@pytest.mark.slow
class TestProcessShardDifferential:
    def test_real_worker_processes_byte_identical(self, tmp_path):
        corpus = LoadgenCorpus.build(programs=3, seed=42, edits=2)

        single = AnalysisServer(
            _config(tmp_path, "single", serve_port=0)
        )
        try:
            baseline = _replay(
                lambda m, p, b=None: single.dispatch(m, p, b)[:2], corpus
            )
        finally:
            single.close()

        router = create_server(
            _config(tmp_path, "sharded", serve_port=0, serve_shards=4)
        )
        try:
            host, port = router.start()
            sharded = _replay(
                lambda m, p, b=None: _http_json(host, port, m, p, b), corpus
            )
            # The corpus really was spread across worker processes.
            _, health = _http_json(host, port, "GET", "/healthz")
            populated = [
                s for s in health["shards"] if s["programs"] > 0
            ]
            assert len(populated) >= 2
        finally:
            router.close()

        _assert_identical(baseline, sharded)
