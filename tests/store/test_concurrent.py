"""Concurrent writers: two processes over one store never corrupt it.

Serve shards and parallel CI jobs share one ``store_dir``; each process
tracks its own byte budget, so only the cooperative protocol — atomic
tempfile+rename writes, delete-tolerant eviction, compaction re-scans —
keeps a shared store sane.  The invariant under test: entries may be
*missing* (evicted by either writer), but every entry that survives
reads back byte-exact, and compaction converges the directory under the
budget no matter how the writers interleaved.
"""

import hashlib
import multiprocessing
import os

from repro.store.blob import BlobStore

#: Per-writer workload: enough 2KB entries to overflow the budget
#: several times over while both processes race put/evict cycles.
ENTRIES_PER_WRITER = 120
MAX_BYTES = 64 * 1024


def _key(writer: int, index: int) -> str:
    return hashlib.sha256(f"writer{writer}:{index}".encode()).hexdigest()


def _payload(key: str) -> bytes:
    # Content derivable from the key alone, so the parent can verify any
    # surviving entry without knowing which writer won which race.
    return (key * 32).encode("ascii")


def _fill(root: str, writer: int) -> None:
    store = BlobStore(root, max_bytes=MAX_BYTES)
    for index in range(ENTRIES_PER_WRITER):
        store.put(_key(writer, index), _payload(_key(writer, index)))


class TestConcurrentWriters:
    def test_racing_writers_never_corrupt_surviving_entries(self, tmp_path):
        root = str(tmp_path / "store")
        BlobStore(root, max_bytes=MAX_BYTES)  # stamp VERSION once
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=_fill, args=(root, writer))
            for writer in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        entries_dir = os.path.join(root, "entries")
        names = [n for n in os.listdir(entries_dir) if n.endswith(".json")]
        assert names, "both writers evicted everything?"
        for name in names:
            key = name[: -len(".json")]
            with open(os.path.join(entries_dir, name), "rb") as handle:
                assert handle.read() == _payload(key), key

        # A fresh open + compaction folds both writers' leftovers into
        # the budget (each process only tracked its own bytes).
        store = BlobStore(root, max_bytes=MAX_BYTES)
        store.compact()
        assert store.stats.bytes <= MAX_BYTES
        # And the survivors are still intact afterwards.
        for key in list(store._sizes):
            assert store.get(key) == _payload(key)

    def test_sibling_eviction_during_get_reads_as_miss(self, tmp_path):
        # A GET losing the race with a sibling's eviction must answer
        # None, not raise: simulate the interleave by deleting the file
        # behind the index's back.
        root = str(tmp_path / "store")
        store = BlobStore(root, max_bytes=MAX_BYTES)
        key = _key(0, 0)
        store.put(key, _payload(key))
        os.remove(os.path.join(root, "entries", key + ".json"))
        assert store.get(key) is None
