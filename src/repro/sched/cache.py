"""Content-addressed cache of per-procedure intraprocedural results.

A flow-sensitive intraprocedural analysis is a pure function of

- the procedure's source (its AST, rendered back to canonical MiniF text),
- the entry environment it is seeded with,
- the call effects visible at its call sites (MOD/REF sets, alias pairs,
  and — in the returns extension — callee return/exit summaries), and
- the analysis configuration (engine choice, float admission, globals).

Hashing those four components yields a key under which the
:class:`IntraResult` can be memoized: a procedure whose source and entry
environment are unchanged is never re-analyzed, and editing one procedure
invalidates exactly the analyses whose inputs actually changed — itself,
plus any PCG-dependent procedure whose entry environment or effect
summaries shifted as a consequence.  No explicit dependency tracking is
needed; content addressing subsumes it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.analysis.base import IntraResult
from repro.ir.lattice import LatticeValue
from repro.lang import ast
from repro.lang.pretty import pretty_stmt


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters of one :class:`SummaryCache`."""

    hits: int = 0
    misses: int = 0
    #: Slots (pass, procedure) whose key changed since the previous run —
    #: re-analyses forced by an actual input change.
    invalidations: int = 0
    entries: int = 0
    #: Entries reclaimed by :meth:`SummaryCache.sweep` (a long-lived
    #: session sweeps after every analysis and procedure removal).
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.invalidations, self.entries,
            self.evictions,
        )


class SummaryCache:
    """Memoized per-procedure analyses keyed by content fingerprints.

    A *slot* is a ``(pass label, procedure name)`` pair.  The cache
    remembers each slot's current key, to count invalidations (lookups
    where the slot was populated but its inputs changed), and the key
    before it, so :meth:`sweep` can keep exactly the entries a slot's last
    two keys name: an edit that is reverted before the next one still hits.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, IntraResult] = {}
        self._slot_keys: Dict[Tuple[str, str], str] = {}
        self._previous_keys: Dict[Tuple[str, str], str] = {}
        self.stats = CacheStats()

    def lookup(
        self, slot: Tuple[str, str], key: str, task=None
    ) -> Optional[IntraResult]:
        """Find ``key``; ``task`` (when given) lets backing tiers rebind.

        The in-memory tier ignores ``task``; the persistent subclass uses
        its symbol table to rebind entries loaded from disk.
        """
        entry = self._fetch(key, task)
        if entry is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            current = self._slot_keys.get(slot)
            if current is not None and current != key:
                self.stats.invalidations += 1
        self._use(slot, key)
        return entry

    def _use(self, slot: Tuple[str, str], key: str) -> None:
        """Make ``key`` the slot's current key, keeping the one it replaces."""
        current = self._slot_keys.get(slot)
        if current != key:
            if current is not None:
                self._previous_keys[slot] = current
            self._slot_keys[slot] = key

    def _fetch(self, key: str, task) -> Optional[IntraResult]:
        """Tier-resolution hook: the base cache knows only memory."""
        return self._entries.get(key)

    def store(self, slot: Tuple[str, str], key: str, value: IntraResult) -> None:
        if key not in self._entries:
            self.stats.entries += 1
        self._entries[key] = value
        self._use(slot, key)

    def evict_procs(self, names: Iterable[str]) -> int:
        """Drop every slot of the named procedures, then :meth:`sweep`.

        A removed (or unreachable) procedure's slots go away in a session
        at once.  Returns the number of entries reclaimed.
        """
        doomed = set(names)
        for keys in (self._slot_keys, self._previous_keys):
            for slot in [slot for slot in keys if slot[1] in doomed]:
                del keys[slot]
        return self.sweep()

    def sweep(self) -> int:
        """Reclaim every entry that is no slot's current or previous key.

        A long-lived session sweeps after each analysis, so its memory
        levels off at two entries per slot.  A cache shared across
        programs (a pipeline's) is never swept: its slot names collide
        between programs.  Returns the number of entries reclaimed.
        """
        live = set(self._slot_keys.values())
        live.update(self._previous_keys.values())
        reclaimed = [key for key in self._entries if key not in live]
        for key in reclaimed:
            del self._entries[key]
        self.stats.evictions += len(reclaimed)
        self.stats.entries = len(self._entries)
        return len(reclaimed)

    def clear(self) -> None:
        self._entries.clear()
        self._slot_keys.clear()
        self._previous_keys.clear()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# Fingerprint helpers.
# ----------------------------------------------------------------------


def _digest(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def procedure_fingerprint(proc: ast.Procedure) -> str:
    """Hash of the procedure's canonical source rendering."""
    header = f"proc {proc.name}({', '.join(proc.formals)})"
    return _digest(header, pretty_stmt(proc.body))


def value_token(value: LatticeValue) -> str:
    # Constants are type-sensitive (Const(2) != Const(2.0)); bake the payload
    # type into the token so int/float twins never collide.
    if value.is_const:
        return f"C:{type(value.const_value).__name__}:{value.const_value!r}"
    return "T" if value.is_top else "B"


def env_fingerprint(env: Mapping[str, LatticeValue]) -> str:
    """Hash of an entry environment (order-insensitive)."""
    return _digest(
        *(f"{name}={value_token(env[name])}" for name in sorted(env))
    )


def effects_fingerprint(
    sites: Iterable[Tuple[str, Iterable[str], Iterable[str], str]],
    alias_pairs: Iterable[Tuple[str, str]] = (),
) -> str:
    """Hash of the call effects visible inside one procedure.

    ``sites`` yields, per call site in order, ``(callee, modified vars,
    recorded globals, extra)`` where ``extra`` encodes any pass-specific
    summary consulted at the site (callee return value, exit-value table).
    """
    parts = []
    for callee, modified, recorded, extra in sites:
        parts.append(
            f"{callee}|{','.join(sorted(modified))}"
            f"|{','.join(sorted(recorded))}|{extra}"
        )
    parts.append("aliases:" + ";".join(f"{a}~{b}" for a, b in sorted(alias_pairs)))
    return _digest(*parts)


def config_fingerprint(
    engine: str,
    propagate_floats: bool,
    global_names: Iterable[str],
    pass_label: str,
) -> str:
    """Hash of the configuration facets an intraprocedural run observes."""
    return _digest(
        f"engine={engine}",
        f"floats={propagate_floats}",
        "globals=" + ",".join(global_names),
        f"pass={pass_label}",
    )


def combine_key(*fingerprints: str) -> str:
    return _digest(*fingerprints)
