"""Persistent, crash-safe storage of content-addressed procedure summaries.

The in-memory :class:`~repro.sched.cache.SummaryCache` dies with its
process; this package gives it a durable backing, so summaries survive
restarts and identical procedures analyzed by different processes (serve
shards sharing one ``store_dir``) are computed once.  The tiers, top to
bottom:

1. memory — the scheduler's :class:`SummaryCache` dict;
2. local disk — :class:`SummaryStore`, JSON entries
   (:mod:`repro.store.codec`) over a :class:`BlobStore` directory
   (atomic writes, LRU eviction under ``max_bytes``, compaction, dedup
   accounting).

- :class:`PersistentCache` — a drop-in :class:`SummaryCache` whose misses
  fall through to disk and whose stores write through.
- :func:`cache_from_config` / :func:`store_from_config` — the
  construction paths the pipeline, sessions, and the serve daemon share.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import Observability
from repro.sched.cache import SummaryCache
from repro.store.blob import BlobStats, BlobStore
from repro.store.codec import (
    CODEC_VERSION,
    STORE_VERSION,
    decode_entry,
    decode_intra,
    encode_entry,
    encode_intra,
)
from repro.store.store import (
    DEFAULT_MAX_BYTES,
    StoreStats,
    SummaryStore,
)
from repro.store.tiered import PersistentCache

__all__ = [
    "BlobStats",
    "BlobStore",
    "CODEC_VERSION",
    "DEFAULT_MAX_BYTES",
    "STORE_VERSION",
    "PersistentCache",
    "StoreStats",
    "SummaryStore",
    "cache_from_config",
    "decode_entry",
    "decode_intra",
    "encode_entry",
    "encode_intra",
    "store_from_config",
]


def store_from_config(
    config, obs: Optional[Observability] = None
) -> Optional[SummaryStore]:
    """The persistent store a config asks for, or ``None`` when
    ``store_dir`` is unset."""
    if config.store_dir is None:
        return None
    return SummaryStore(
        config.store_dir,
        max_bytes=config.store_max_bytes,
        obs=obs,
    )


def cache_from_config(
    config,
    obs: Optional[Observability] = None,
    store: Optional[SummaryStore] = None,
) -> Optional[SummaryCache]:
    """The summary cache an :class:`ICPConfig` asks for.

    ``store_dir`` implies caching (a persistent tier is useless without
    the memory tier in front of it); plain ``cache`` without a store dir
    yields the process-local cache; neither yields ``None``.  An already
    open ``store`` (the serve daemon shares one across sessions) is used
    as-is.
    """
    if store is None:
        store = store_from_config(config, obs=obs)
    if store is not None:
        return PersistentCache(store)
    if config.cache:
        return SummaryCache()
    return None

