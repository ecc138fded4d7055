"""The byte-level tier under the local summary store.

A :class:`BlobStore` is a size-bounded, crash-safe directory of opaque
blobs addressed by sha256-hex keys.  It knows nothing about the entry
codec or :class:`IntraResult` — the typed
:class:`~repro.store.store.SummaryStore` layers entry decoding on top.

Layout (one directory per store)::

    <root>/
        VERSION            format stamp; a mismatch wipes the store
        entries/<key>.json one JSON blob per entry (sha256-hex key)

Durability and tolerance guarantees:

- **Atomic writes.**  Every blob lands via a same-directory tempfile and
  ``os.replace``, so a reader never observes a half-written blob and a
  crash mid-write leaves at worst an orphaned ``.tmp`` file (swept on
  the next open or compaction).
- **Version stamping.**  ``VERSION`` carries the store format plus the
  codec version; opening a store written by an incompatible build clears
  it instead of misreading entries.
- **Bounded size.**  ``max_bytes`` caps the blobs' aggregate size;
  inserts evict least-recently-used blobs (mtime order — reads bump
  mtime) until the budget holds.
- **Compaction.**  :meth:`compact` re-scans the directory (so entries
  written by *other* processes sharing the store enter this process's
  size accounting), sweeps stale tempfiles, and re-enforces the budget.
  Nothing runs it on a timer: each process bounds only the entries it
  tracks itself.
- **Cross-program dedup accounting.**  A ``put`` whose key already holds
  byte-identical content skips the write and counts a ``dedup_write`` —
  the "computed once" saving the content-addressed keys buy.

Concurrent readers/writers across processes are safe in the crash sense
(atomic replace, tolerated disappearing files); two daemons sharing one
store behave as a shared cache with last-write-wins entries.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import NULL_OBS, Observability
from repro.store.codec import STORE_VERSION

#: Default size budget (bytes) when a store is opened without one.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Tempfiles older than this are orphans of a crashed writer and may be
#: swept; younger ones may belong to an in-flight ``os.replace`` in a
#: sibling process, so compaction leaves them alone.
TMP_SWEEP_AGE_SECONDS = 60.0


@dataclass
class BlobStats:
    """Counters of one :class:`BlobStore` since open."""

    writes: int = 0
    #: Puts whose key already held byte-identical content (skipped).
    dedup_writes: int = 0
    evictions: int = 0
    #: Blobs dropped as corrupt at a caller's request (:meth:`delete`).
    corrupt_dropped: int = 0
    #: Compaction passes completed.
    compactions: int = 0
    #: Aggregate blob bytes currently on disk.
    bytes: int = 0
    #: Blob files currently on disk.
    entries: int = 0


class BlobStore:
    """A size-bounded, crash-safe directory of content-addressed blobs."""

    def __init__(
        self,
        root: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        obs: Optional[Observability] = None,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = root
        self.max_bytes = max_bytes
        self.obs = obs or NULL_OBS
        self._entries_dir = os.path.join(root, "entries")
        self._lock = threading.Lock()
        self._sizes: Dict[str, int] = {}
        self.stats = BlobStats()
        self._open()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def _open(self) -> None:
        os.makedirs(self._entries_dir, exist_ok=True)
        version_path = os.path.join(self.root, "VERSION")
        stamp = None
        try:
            with open(version_path, "r", encoding="utf-8") as handle:
                stamp = handle.read().strip()
        except OSError:
            pass
        if stamp != STORE_VERSION:
            if stamp is not None:
                self._wipe_entries()
            self._write_atomic(
                version_path, (STORE_VERSION + "\n").encode("utf-8")
            )
        self._scan(sweep_age=0.0)

    def _wipe_entries(self) -> None:
        for name in self._listdir():
            try:
                os.remove(os.path.join(self._entries_dir, name))
            except OSError:
                pass

    def _listdir(self) -> List[str]:
        try:
            return os.listdir(self._entries_dir)
        except OSError:
            return []

    def _scan(self, sweep_age: float = TMP_SWEEP_AGE_SECONDS) -> None:
        """Rebuild size accounting; sweep tempfiles a crash left behind.

        Caller holds no lock at open; compaction calls this under
        ``self._lock``.  ``sweep_age`` guards in-flight sibling writers:
        at open (``0.0``) every stray file goes, during compaction only
        tempfiles old enough to be orphans are removed.
        """
        now = time.time()
        self._sizes.clear()
        for name in self._listdir():
            path = os.path.join(self._entries_dir, name)
            if not name.endswith(".json"):
                try:
                    if sweep_age <= 0 or now - os.stat(path).st_mtime >= sweep_age:
                        os.remove(path)  # orphaned tempfile from a crash
                except OSError:
                    pass
                continue
            try:
                self._sizes[name[: -len(".json")]] = os.stat(path).st_size
            except OSError:
                pass
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        self.stats.bytes = sum(self._sizes.values())
        self.stats.entries = len(self._sizes)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.gauge("store.bytes").set(self.stats.bytes)
            metrics.gauge("store.entries").set(self.stats.entries)

    # ------------------------------------------------------------------
    # Blob IO.
    # ------------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self._entries_dir, key + ".json")

    def _write_atomic(self, path: str, data: bytes) -> None:
        directory = os.path.dirname(path)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise

    def get(self, key: str) -> Optional[bytes]:
        """Read one blob and bump its LRU recency; ``None`` when absent."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        try:
            os.utime(path)  # bump mtime: LRU recency
        except OSError:
            pass
        return raw

    def put(self, key: str, data: bytes) -> bool:
        """Store one blob atomically, then enforce the size budget.

        Returns ``False`` when disk trouble prevented the write (the
        store degrades to a smaller/no cache, never an exception).  A
        put whose key already holds identical bytes is counted as a
        dedup and skipped — content-addressed keys make re-analysis of
        an identical procedure (another program, another process) land
        on the same blob.
        """
        metrics = self.obs.metrics
        with self._lock:
            if self._sizes.get(key) == len(data):
                existing = self.get(key)  # also bumps recency
                if existing == data:
                    self.stats.dedup_writes += 1
                    if metrics.enabled:
                        metrics.counter("store.dedup_writes").inc()
                    return True
            try:
                self._write_atomic(self._path(key), data)
            except OSError:
                return False
            self._sizes[key] = len(data)
            self.stats.writes += 1
            self._evict_over_budget()
            self._refresh_gauges()
        if metrics.enabled:
            metrics.counter("store.writes").inc()
        return True

    def delete(self, key: str, corrupt: bool = False) -> None:
        """Drop one blob; ``corrupt=True`` counts it as corruption."""
        with self._lock:
            self._drop(key, corrupt=corrupt)
            self._refresh_gauges()

    def _drop(self, key: str, corrupt: bool = False) -> None:
        try:
            os.remove(self._path(key))
        except OSError:
            pass
        self._sizes.pop(key, None)
        if corrupt:
            self.stats.corrupt_dropped += 1
            metrics = self.obs.metrics
            if metrics.enabled:
                metrics.counter("store.corrupt_dropped").inc()

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used blobs until the budget holds."""
        if sum(self._sizes.values()) <= self.max_bytes:
            return
        aged = []
        for key in self._sizes:
            try:
                aged.append((os.stat(self._path(key)).st_mtime_ns, key))
            except OSError:
                aged.append((0, key))
        aged.sort()
        metrics = self.obs.metrics
        for _, key in aged:
            if sum(self._sizes.values()) <= self.max_bytes:
                break
            self._drop(key)
            self.stats.evictions += 1
            if metrics.enabled:
                metrics.counter("store.evictions").inc()

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """One maintenance pass: re-scan, sweep orphans, enforce budget.

        Re-scanning folds blobs written by sibling processes into this
        process's accounting, so a store shared by N writers converges
        on the budget even though each writer only tracks its own puts.
        Returns a small summary for logs/tests.
        """
        with self._lock:
            evictions_before = self.stats.evictions
            self._scan()
            self._evict_over_budget()
            self._refresh_gauges()
            self.stats.compactions += 1
            summary = {
                "entries": self.stats.entries,
                "bytes": self.stats.bytes,
                "evicted": self.stats.evictions - evictions_before,
            }
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("store.compactions").inc()
        return summary

    def clear(self) -> None:
        """Remove every blob (the version stamp stays)."""
        with self._lock:
            self._wipe_entries()
            self._sizes.clear()
            self._refresh_gauges()

    def __len__(self) -> int:
        return len(self._sizes)
