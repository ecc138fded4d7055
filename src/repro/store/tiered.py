"""The tiered cache: in-memory :class:`SummaryCache` over a disk store.

A :class:`PersistentCache` behaves exactly like the PR 1 in-memory cache
from the scheduler's point of view — same slots, same keys, same stats —
but misses fall through to a :class:`~repro.store.store.SummaryStore`
and stores write through to it.  Entries promoted from disk land in the
memory tier, so one process pays the entry decode at most once per key.

Disk entries carry no engine ``detail`` (see :mod:`repro.store.codec`);
an in-memory hit that originated on disk therefore reports ``None``
detail, which every consumer tolerates (the ``simple`` engine contract).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.base import IntraResult
from repro.sched.cache import SummaryCache
from repro.store.store import SummaryStore


class PersistentCache(SummaryCache):
    """A :class:`SummaryCache` backed by a crash-safe on-disk store."""

    def __init__(self, disk: SummaryStore):
        super().__init__()
        self.disk = disk

    def _fetch(self, key: str, task) -> Optional[IntraResult]:
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        if task is None:
            # No symbol table to rebind against (a bare lookup outside the
            # scheduler): the disk tier cannot serve safely.
            return None
        entry = self.disk.get(key, task.symbols)
        if entry is not None:
            # Promote so repeated lookups skip the decode.
            if key not in self._entries:
                self.stats.entries += 1
            self._entries[key] = entry
        return entry

    def store(
        self, slot: Tuple[str, str], key: str, value: IntraResult
    ) -> None:
        super().store(slot, key, value)
        self.disk.put(key, slot[0], value)
