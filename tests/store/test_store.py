"""Persistent summary store: crash safety, eviction, warm reruns."""

import dataclasses
import json
import os

import pytest

from repro.api import ICPConfig, analyze
from repro.bench.suite import SUITE, build_benchmark_source
from repro.core.driver import CompilationPipeline
from repro.core.report import analysis_report
from repro.ir.lattice import LatticeValue
from repro.store import (
    STORE_VERSION,
    PersistentCache,
    SummaryStore,
    cache_from_config,
    decode_entry,
    decode_intra,
    encode_entry,
    encode_intra,
)

SOURCE = """\
proc main() { call sub1(0); call sub1(2); }
proc sub1(f1) {
    x = 1;
    if (f1 != 0) { y = 1; } else { y = 0; }
    call sub2(y, 4, f1, x);
}
proc sub2(f2, f3, f4, f5) { t = f2 + f3 + f4 + f5; print(t); }
"""


KEY = "ab" * 32


@pytest.fixture(scope="module")
def analyzed():
    return CompilationPipeline(ICPConfig.from_dict({"cache": True})).run(SOURCE)


def _config(store_dir, **extra):
    return ICPConfig.from_dict({"store_dir": str(store_dir), **extra})


def _entries(store_dir):
    entries_dir = os.path.join(str(store_dir), "entries")
    return sorted(
        name for name in os.listdir(entries_dir) if name.endswith(".json")
    )


class TestWarmRerun:
    def test_second_pipeline_serves_from_disk(self, tmp_path):
        config = _config(tmp_path / "store")
        cold = analyze(SOURCE, config)
        assert cold.sched.tasks_run > 0
        warm = analyze(SOURCE, config)  # fresh pipeline, fresh memory tier
        assert warm.sched.tasks_run == 0
        assert warm.sched.tasks_cached == cold.sched.tasks_run
        assert analysis_report(warm) == analysis_report(cold)

    def test_store_dir_implies_caching(self, tmp_path):
        cache = cache_from_config(_config(tmp_path / "store"))
        assert isinstance(cache, PersistentCache)

    def test_plain_cache_config_stays_memory_only(self):
        cache = cache_from_config(ICPConfig.from_dict({"cache": True}))
        assert cache is not None
        assert not isinstance(cache, PersistentCache)

    @pytest.mark.parametrize(
        "extra", [{}, {"propagate_exit_values": True}],
        ids=["default", "exit_values"],
    )
    @pytest.mark.parametrize("name", list(SUITE))
    def test_warm_rerun_after_restart_is_byte_identical(
        self, tmp_path, name, extra
    ):
        """Two independent pipelines over one store render identical
        reports for every suite profile, and the second runs no engine."""
        source = build_benchmark_source(SUITE[name])
        config = _config(tmp_path / "store", **extra)
        cold = CompilationPipeline(config).run(source)
        warm = CompilationPipeline(config).run(source)
        assert analysis_report(cold) == analysis_report(warm)
        assert warm.sched.tasks_run == 0


class TestCrashSafety:
    def _populate(self, store_dir):
        analyze(SOURCE, _config(store_dir))
        return _entries(store_dir)

    def test_truncated_entry_dropped_and_rewritten(self, tmp_path):
        store_dir = tmp_path / "store"
        entries = self._populate(store_dir)
        victim = os.path.join(str(store_dir), "entries", entries[0])
        with open(victim, "r", encoding="utf-8") as handle:
            good = handle.read()
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write(good[: len(good) // 2])  # kill -9 mid-write

        pipeline = CompilationPipeline(_config(store_dir))
        result = pipeline.run(SOURCE)
        store = pipeline.cache.disk
        assert store.stats.corrupt_dropped == 1
        assert result.sched.tasks_run == 1  # only the victim re-ran
        # The write-through rewrote a good blob under the same key.
        with open(victim, "r", encoding="utf-8") as handle:
            blob = json.loads(handle.read())
        assert blob["version"] == STORE_VERSION

    def test_garbage_entry_is_a_miss_not_a_crash(self, tmp_path):
        store_dir = tmp_path / "store"
        entries = self._populate(store_dir)
        victim = os.path.join(str(store_dir), "entries", entries[0])
        # The second blob is in the removed binary layout (magic, version
        # byte, payload): a store written by it degrades to a miss and a
        # rewrite.
        for garbage in (b"\x00\xff not json \xfe", b"ICPB\x01" + bytes(16)):
            with open(victim, "wb") as handle:
                handle.write(garbage)
            warm = analyze(SOURCE, _config(store_dir))
            assert warm.sched.tasks_run == 1
            with open(victim, "r", encoding="utf-8") as handle:
                assert json.loads(handle.read())["version"] == STORE_VERSION

    def test_miskeyed_entry_dropped(self, tmp_path):
        store_dir = tmp_path / "store"
        entries = self._populate(store_dir)
        src = os.path.join(str(store_dir), "entries", entries[0])
        dst = os.path.join(str(store_dir), "entries", "0" * 64 + ".json")
        os.replace(src, dst)
        store = SummaryStore(str(store_dir))
        symbols = analyze(SOURCE, ICPConfig()).symbols["main"]
        assert store.get("0" * 64, symbols) is None
        assert store.stats.corrupt_dropped == 1
        assert not os.path.exists(dst)

    def test_version_mismatch_wipes_store(self, tmp_path):
        store_dir = tmp_path / "store"
        assert self._populate(store_dir)
        with open(
            os.path.join(str(store_dir), "VERSION"), "w", encoding="utf-8"
        ) as handle:
            handle.write("repro-icp-store/v0+codec0\n")
        SummaryStore(str(store_dir))
        assert _entries(store_dir) == []
        with open(
            os.path.join(str(store_dir), "VERSION"), encoding="utf-8"
        ) as handle:
            assert handle.read().strip() == STORE_VERSION

    def test_orphaned_tempfile_swept_on_open(self, tmp_path):
        store_dir = tmp_path / "store"
        self._populate(store_dir)
        orphan = os.path.join(str(store_dir), "entries", "leftover.tmp")
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write("half a blob")
        SummaryStore(str(store_dir))
        assert not os.path.exists(orphan)

    def test_rejects_non_positive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            SummaryStore(str(tmp_path / "s"), max_bytes=0)


class TestEviction:
    def test_inserts_respect_max_bytes(self, tmp_path):
        store_dir = tmp_path / "store"
        # First size an unbounded store, then rerun with a budget that can
        # hold only part of it.
        analyze(SOURCE, _config(store_dir))
        store = SummaryStore(str(store_dir))
        total = store.stats.bytes
        entry_count = store.stats.entries
        assert entry_count >= 3

        bounded_dir = tmp_path / "bounded"
        config = _config(bounded_dir, store_max_bytes=total // 2)
        analyze(SOURCE, config)
        bounded = SummaryStore(str(bounded_dir), max_bytes=total // 2)
        assert bounded.stats.bytes <= total // 2
        assert bounded.stats.entries < entry_count

    def test_eviction_is_lru(self, tmp_path):
        store_dir = tmp_path / "store"
        pipeline = CompilationPipeline(_config(store_dir))
        pipeline.run(SOURCE)
        store = pipeline.cache.disk
        keys = list(store.blobs._sizes)
        # Touch every entry but the first, age the first far into the past,
        # then shrink the budget below current usage and compact.
        old = os.path.join(str(store_dir), "entries", keys[0] + ".json")
        os.utime(old, (1, 1))
        store.blobs.max_bytes = store.stats.bytes - 1
        symbols = pipeline.run(SOURCE).symbols  # reads bump mtimes
        del symbols
        store.compact()
        assert not os.path.exists(old)
        assert store.stats.evictions >= 1


class TestCodec:
    def test_roundtrip_preserves_analysis_payload(self, tmp_path):
        pipeline = CompilationPipeline(ICPConfig.from_dict({"cache": True}))
        result = pipeline.run(SOURCE)
        intra = result.fs.intra["sub1"]
        decoded = decode_intra(
            encode_intra(intra), result.symbols["sub1"]
        )
        assert decoded is not None
        assert decoded.proc_name == intra.proc_name
        assert decoded.return_value == intra.return_value
        assert set(decoded.call_sites) == set(intra.call_sites)
        for key, site_values in intra.call_sites.items():
            got = decoded.call_sites[key]
            assert got.executable == site_values.executable
            assert got.arg_values == site_values.arg_values
            assert got.global_values == site_values.global_values
            # Sites rebind to the live AST, not a deserialized copy.
            assert got.site.stmt is site_values.site.stmt
        assert decoded.detail is None

    def test_decode_rejects_shape_mismatch(self, tmp_path):
        pipeline = CompilationPipeline(ICPConfig.from_dict({"cache": True}))
        result = pipeline.run(SOURCE)
        payload = encode_intra(result.fs.intra["sub1"])
        # A payload for one procedure against another's symbols: the
        # call-site sets differ, so decode refuses rather than mis-binds.
        assert decode_intra(payload, result.symbols["main"]) is None
        assert decode_intra({"proc": "sub1"}, result.symbols["sub1"]) is None

    def test_int_float_distinction_survives(self, tmp_path):
        source = (
            "proc main() { call f(1, 1.0); }\n"
            "proc f(a, b) { print(a + b); }\n"
        )
        store = tmp_path / "store"
        cold = analyze(source, _config(store))
        warm = analyze(source, _config(store))
        assert warm.sched.tasks_run == 0
        assert analysis_report(warm) == analysis_report(cold)
        values = {
            formal: value.const_value
            for (proc, formal), value in warm.fs.entry_formals.items()
            if proc == "f" and value.is_const
        }
        assert type(values["a"]) is int
        assert type(values["b"]) is float

    def test_exit_values_survive(self, analyzed):
        intra = dataclasses.replace(
            analyzed.fs.intra["sub2"],
            exit_values={"t": LatticeValue(1, 5), "u": LatticeValue(1, 2.5)},
        )
        raw = encode_entry(KEY, "fs", intra)
        decoded = decode_entry(raw, KEY, analyzed.symbols["sub2"])
        assert decoded.exit_values == intra.exit_values

    def test_arbitrary_precision_ints(self, analyzed):
        # The evaluator folds past 64 bits; the codec must not truncate.
        intra = analyzed.fs.intra["sub1"]
        for const in ((1 << 200) + 7, -(1 << 200) - 7, 0, -1):
            patched = dataclasses.replace(
                intra, return_value=LatticeValue(1, const)
            )
            raw = encode_entry(KEY, "fs", patched)
            decoded = decode_entry(raw, KEY, analyzed.symbols["sub1"])
            assert decoded.return_value.const_value == const

    def test_int_float_distinction(self, analyzed):
        intra = analyzed.fs.intra["sub1"]
        for const in (3, 3.0):
            patched = dataclasses.replace(
                intra, return_value=LatticeValue(1, const)
            )
            raw = encode_entry(KEY, "fs", patched)
            decoded = decode_entry(raw, KEY, analyzed.symbols["sub1"])
            assert type(decoded.return_value.const_value) is type(const)
            assert decoded.return_value.const_value == const

    def test_json_entries_still_plain_json(self, tmp_path):
        store_dir = tmp_path / "store"
        CompilationPipeline(_config(store_dir)).run(SOURCE)
        store = SummaryStore(str(store_dir))
        for key in list(store.blobs._sizes):
            blob = json.loads(store.blobs.get(key).decode("utf-8"))
            assert blob["version"] == STORE_VERSION


class TestCorruption:
    """A blob that does not decode for its key reads as ``None``."""

    def _raw(self, analyzed, proc="sub1"):
        return encode_entry(KEY, "fs", analyzed.fs.intra[proc])

    def test_truncation_decodes_to_none(self, analyzed):
        raw = self._raw(analyzed)
        symbols = analyzed.symbols["sub1"]
        for cut in (5, len(raw) // 2, len(raw) - 2):
            assert decode_entry(raw[:cut], KEY, symbols) is None

    def test_trailing_garbage_rejected(self, analyzed):
        raw = self._raw(analyzed)
        assert decode_entry(raw + b"\x00", KEY, analyzed.symbols["sub1"]) is None

    def test_wrong_key_rejected(self, analyzed):
        raw = self._raw(analyzed)
        assert decode_entry(raw, "cd" * 32, analyzed.symbols["sub1"]) is None

    def test_symbol_drift_rejected(self, analyzed):
        # A sub1 entry against main's symbol table: sites cannot rebind.
        raw = self._raw(analyzed, "sub1")
        assert decode_entry(raw, KEY, analyzed.symbols["main"]) is None

    def test_bare_magic_rejected(self, analyzed):
        # The magic of the removed binary codec: a leftover blob is a miss.
        assert decode_entry(b"ICPB", KEY, analyzed.symbols["sub1"]) is None
