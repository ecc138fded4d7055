"""Typed summary tier: decoded entries over blobs, local then remote.

:class:`SummaryStore` is the second and third tier of the summary cache
(the first is the in-memory
:class:`~repro.sched.cache.SummaryCache` dict).  It layers the entry
codec (:mod:`repro.store.codec`) over a local
:class:`~repro.store.blob.BlobStore` directory and, when configured, a
:class:`~repro.store.remote.RemoteStore` client of the fleet-shared
``repro-icp summary-server``:

- ``get`` reads the local blob; on a local miss it asks the remote tier
  and *promotes* a remote hit onto local disk, so a shard pays the
  network round trip once per key.  An undecodable local blob is dropped
  as corrupt so the write-through cache rewrites it.
- ``put`` encodes the entry as JSON, writes the local blob, and
  replicates to the remote tier fail-open — a dead summary service never
  fails a write.

Crash-safety, eviction, compaction, and dedup accounting live in the
blob layer; see :mod:`repro.store.blob`.  All ``store.*`` metrics from
both layers land in the same registry, so ``/metrics`` shows the full
tier picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.base import IntraResult
from repro.lang.symbols import ProcedureSymbols
from repro.obs import NULL_OBS, Observability
from repro.store.blob import DEFAULT_MAX_BYTES, BlobStore
from repro.store.codec import (
    CODEC_VERSION,
    STORE_VERSION,
    decode_entry,
    encode_entry,
)
from repro.store.remote import RemoteStore

__all__ = [
    "CODEC_VERSION",
    "DEFAULT_MAX_BYTES",
    "STORE_VERSION",
    "StoreStats",
    "SummaryStore",
]


@dataclass
class StoreStats:
    """Tier-wide counters of one :class:`SummaryStore` (a snapshot)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    #: Unreadable/mis-keyed entries dropped (and later rewritten).
    corrupt_dropped: int = 0
    #: Aggregate entry bytes currently on local disk.
    bytes: int = 0
    #: Entry files currently on local disk.
    entries: int = 0
    #: Puts that found byte-identical content already stored (dedup).
    dedup_writes: int = 0
    #: Blob-layer compaction passes.
    compactions: int = 0
    #: Local misses served by the remote tier (then promoted to disk).
    remote_hits: int = 0
    #: Remote lookups that missed (or were skipped by the negative memo).
    remote_misses: int = 0
    #: Remote network errors, all failed open to the local tiers.
    remote_errors: int = 0


class SummaryStore:
    """Decoded-entry view over a local blob directory plus remote tier."""

    def __init__(
        self,
        root: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        obs: Optional[Observability] = None,
        remote: Optional[RemoteStore] = None,
    ):
        self.obs = obs or NULL_OBS
        self.blobs = BlobStore(root, max_bytes, obs=self.obs)
        self.remote = remote
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Compatibility surface (the PR 5 store exposed these directly).
    # ------------------------------------------------------------------

    @property
    def root(self) -> str:
        return self.blobs.root

    @property
    def max_bytes(self) -> int:
        return self.blobs.max_bytes

    @property
    def stats(self) -> StoreStats:
        """A fresh snapshot merging the typed, blob, and remote tiers."""
        blob = self.blobs.stats
        snapshot = StoreStats(
            hits=self._hits,
            misses=self._misses,
            writes=blob.writes,
            evictions=blob.evictions,
            corrupt_dropped=blob.corrupt_dropped,
            bytes=blob.bytes,
            entries=blob.entries,
            dedup_writes=blob.dedup_writes,
            compactions=blob.compactions,
        )
        if self.remote is not None:
            remote = self.remote.stats
            snapshot.remote_hits = remote.hits
            snapshot.remote_misses = (
                remote.misses + remote.negative_skips + remote.cooldown_skips
            )
            snapshot.remote_errors = remote.errors
        return snapshot

    # ------------------------------------------------------------------
    # Entry IO.
    # ------------------------------------------------------------------

    def get(self, key: str, symbols: ProcedureSymbols) -> Optional[IntraResult]:
        """Load one entry, rebinding it to ``symbols``; None on any miss.

        Checks local disk, then the remote service; a remote hit is
        promoted to local disk.  Unreadable or mismatched local entries
        are dropped so the write-through cache rewrites them with a good
        blob.
        """
        metrics = self.obs.metrics
        raw = self.blobs.get(key)
        from_remote = False
        if raw is None and self.remote is not None:
            raw = self.remote.get(key)
            from_remote = raw is not None
        intra = (
            decode_entry(raw, key, symbols) if raw is not None else None
        )
        if intra is None:
            if raw is not None and not from_remote:
                self.blobs.delete(key, corrupt=True)
            self._misses += 1
            if metrics.enabled:
                metrics.counter("store.misses").inc()
            return None
        if from_remote:
            self.blobs.put(key, raw)  # promote: pay the round trip once
        self._hits += 1
        if metrics.enabled:
            metrics.counter("store.hits").inc()
        return intra

    def put(self, key: str, pass_label: str, intra: IntraResult) -> None:
        """Persist one entry locally and replicate it to the remote tier."""
        data = encode_entry(key, pass_label, intra)
        self.blobs.put(key, data)
        if self.remote is not None:
            self.remote.put(key, data)  # fail-open: outage never fails a put

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def compact(self):
        """One blob-layer maintenance pass (see :meth:`BlobStore.compact`)."""
        return self.blobs.compact()

    def start_compaction(self, interval_seconds: float) -> None:
        self.blobs.start_compaction(interval_seconds)

    def close(self) -> None:
        self.blobs.close()

    def clear(self) -> None:
        """Remove every local entry (the version stamp stays)."""
        self.blobs.clear()

    def __len__(self) -> int:
        return len(self.blobs)
