"""Typed summary tier: decoded entries over a local blob directory.

:class:`SummaryStore` is the second tier of the summary cache (the first
is the in-memory :class:`~repro.sched.cache.SummaryCache` dict).  It
layers the entry codec (:mod:`repro.store.codec`) over a local
:class:`~repro.store.blob.BlobStore` directory:

- ``get`` reads the local blob and decodes it against the caller's
  symbols.  An undecodable blob is dropped as corrupt so the
  write-through cache rewrites it.
- ``put`` encodes the entry as JSON and writes the blob.

Crash-safety, eviction, compaction, and dedup accounting live in the
blob layer; see :mod:`repro.store.blob`.  All ``store.*`` metrics from
both layers land in the same registry.
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


class SummaryStore:
    """Decoded-entry view over a local blob directory."""

    def __init__(
        self,
        root: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        obs: Optional[Observability] = None,
    ):
        self.obs = obs or NULL_OBS
        self.blobs = BlobStore(root, max_bytes, obs=self.obs)
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
        """A fresh snapshot merging the typed and blob tiers."""
        blob = self.blobs.stats
        return StoreStats(
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

    # ------------------------------------------------------------------
    # Entry IO.
    # ------------------------------------------------------------------

    def get(self, key: str, symbols: ProcedureSymbols) -> Optional[IntraResult]:
        """Load one entry, rebinding it to ``symbols``; None on any miss.

        Unreadable or mismatched entries are dropped so the write-through
        cache rewrites them with a good blob.
        """
        metrics = self.obs.metrics
        raw = self.blobs.get(key)
        intra = (
            decode_entry(raw, key, symbols) if raw is not None else None
        )
        if intra is None:
            if raw is not None:
                self.blobs.delete(key, corrupt=True)
            self._misses += 1
            if metrics.enabled:
                metrics.counter("store.misses").inc()
            return None
        self._hits += 1
        if metrics.enabled:
            metrics.counter("store.hits").inc()
        return intra

    def put(self, key: str, pass_label: str, intra: IntraResult) -> None:
        """Persist one entry."""
        self.blobs.put(key, encode_entry(key, pass_label, intra))

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def compact(self):
        """One blob-layer maintenance pass (see :meth:`BlobStore.compact`)."""
        return self.blobs.compact()

    def clear(self) -> None:
        """Remove every local entry (the version stamp stays)."""
        self.blobs.clear()

    def __len__(self) -> int:
        return len(self.blobs)
