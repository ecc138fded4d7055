"""Persistent, crash-safe storage of content-addressed procedure summaries.

The in-memory :class:`~repro.sched.cache.SummaryCache` dies with its
process; this package gives it a durable backing — and, when configured,
a fleet-shared networked backing — so summaries survive restarts and
identical procedures analyzed by different shards or tenants are
computed once fleet-wide.  The tiers, top to bottom:

1. memory — the scheduler's :class:`SummaryCache` dict;
2. local disk — :class:`SummaryStore`, JSON entries
   (:mod:`repro.store.codec`) over a :class:`BlobStore` directory
   (atomic writes, LRU eviction under ``max_bytes``, background
   compaction, dedup accounting);
3. remote HTTP — :class:`RemoteStore`, a bounded-timeout fail-open
   client of the ``repro-icp summary-server`` daemon
   (:class:`SummaryService`), speaking content-addressed
   ``GET``/``PUT``/``HEAD`` ``/v1/summaries/<key>``.

- :class:`PersistentCache` — a drop-in :class:`SummaryCache` whose misses
  fall through tier by tier and whose stores write through.
- :func:`cache_from_config` / :func:`store_from_config` /
  :func:`remote_from_config` — the construction paths the pipeline,
  sessions, and the serve daemon share.
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
from repro.store.remote import RemoteStats, RemoteStore
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
    "RemoteStats",
    "RemoteStore",
    "StoreStats",
    "SummaryService",
    "SummaryStore",
    "cache_from_config",
    "decode_entry",
    "decode_intra",
    "encode_entry",
    "encode_intra",
    "remote_from_config",
    "store_from_config",
]


def remote_from_config(
    config, obs: Optional[Observability] = None
) -> Optional[RemoteStore]:
    """The remote summary tier a config asks for, or ``None``."""
    if config.store_remote_url is None:
        return None
    return RemoteStore(
        config.store_remote_url,
        timeout_ms=config.store_remote_timeout_ms,
        obs=obs,
    )


def store_from_config(
    config, obs: Optional[Observability] = None
) -> Optional[SummaryStore]:
    """The persistent store a config asks for (with its remote tier), or
    ``None`` when ``store_dir`` is unset."""
    if config.store_dir is None:
        return None
    return SummaryStore(
        config.store_dir,
        max_bytes=config.store_max_bytes,
        obs=obs,
        remote=remote_from_config(config, obs=obs),
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
    as-is.  ``store_remote_url`` rides along inside the constructed
    store, so every consumer of this path — driver, sessions, scheduler,
    serve shards — transparently shares the fleet tier.
    """
    if store is None:
        store = store_from_config(config, obs=obs)
    if store is not None:
        return PersistentCache(store)
    if config.cache:
        return SummaryCache()
    return None


def __getattr__(name: str):
    # SummaryService lives with the serve machinery it reuses; importing
    # it eagerly here would cycle (serve.daemon imports repro.store).
    if name == "SummaryService":
        from repro.store.service import SummaryService

        return SummaryService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
