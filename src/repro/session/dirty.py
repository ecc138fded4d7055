"""Dirty-region derivation for incremental re-analysis.

The paper's invariant makes incrementality tractable: each procedure is
analyzed exactly once, and its analysis is a pure function of

- its own source,
- its entry environment (values its *non-fallback callers* recorded at the
  contributing call sites, or the FI solution on fallback edges),
- the effect summaries it consults (callee MOD/REF closed under its own
  alias pairs), and
- the configuration.

So after an edit, the procedures whose flow-sensitive analysis may differ
are exactly the *forward closure* over the new PCG of a seed set capturing
every changed input:

- the edited procedures themselves, and procedures newly reachable;
- procedures whose incoming edge structure changed — including edges whose
  fallback classification flipped, since RPO is a global property of the
  graph and a local edit elsewhere can reclassify untouched edges;
- procedures whose outgoing edge structure changed (conservative: their
  call-site layout is part of their body, so this usually coincides with
  "edited");
- procedures whose own alias pairs or MOD/REF summary changed, and every
  caller of a MOD/REF-changed callee (effect binding);
- when the flow-insensitive solution changed at all, every procedure with
  an incoming fallback edge (fallback entry values come from FI).

The closure follows caller→callee edges: a dirty procedure's re-analysis
can change the values it records at call sites, which feed its callees'
entry environments.  Everything outside the closure receives byte-identical
inputs and therefore reproduces its previous result — which the session
copies instead of recomputing.

USE flows the other way (callee→caller over the reverse traversal), and is
cheap enough that seeds suffice: :func:`repro.summary.use.compute_use`
propagates changes during its reversed-RPO sweep by comparing each freshly
computed summary against the previous one, so only the *seed* procedures —
edited bodies, structure changes, and REF-fallback consumers of a
REF-changed callee — need listing here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Set

from repro.callgraph.pcg import PCG, PCGDelta, diff_pcg
from repro.core.flow_insensitive import FIResult
from repro.summary.alias import AliasInfo, changed_alias_procs
from repro.summary.modref import ModRefInfo, changed_modref_procs


@dataclass(frozen=True)
class DirtyRegion:
    """What one batch of edits invalidates, per downstream pass."""

    #: Procedures whose flow-sensitive analysis must re-run (closure).
    fs_dirty: FrozenSet[str]
    #: Seed procedures for the incremental USE sweep (propagation happens
    #: inside :func:`repro.summary.use.compute_use`).
    use_seeds: FrozenSet[str]
    #: The structural PCG difference that fed the seeds (diagnostics).
    delta: PCGDelta
    #: Whether the flow-insensitive solution changed (forces fallback
    #: receivers dirty).
    fi_changed: bool


def forward_closure(pcg: PCG, seeds: Iterable[str]) -> Set[str]:
    """Seeds plus everything reachable from them over caller→callee edges."""
    closed: Set[str] = set()
    frontier = [proc for proc in seeds if proc in pcg.reachable]
    closed.update(frontier)
    while frontier:
        proc = frontier.pop()
        for edge in pcg.edges_out_of(proc):
            if edge.callee not in closed:
                closed.add(edge.callee)
                frontier.append(edge.callee)
    return closed


def compute_dirty_region(
    edited: Set[str],
    old_pcg: PCG,
    new_pcg: PCG,
    old_aliases: AliasInfo,
    new_aliases: AliasInfo,
    old_modref: ModRefInfo,
    new_modref: ModRefInfo,
    old_fi: FIResult,
    new_fi: FIResult,
) -> DirtyRegion:
    """Derive the dirty region of one edit batch from old/new pipeline inputs.

    Every argument pair is cheap to recompute whole-program (no
    intraprocedural engine involved); only the flow-sensitive pass — the
    expensive one — is gated by the region computed here.  The PCG edge
    keys and the FI snapshot are rendered once per object, so in a session
    the old side is the previous edit's new side, already rendered.
    """
    delta = diff_pcg(old_pcg, new_pcg)
    alias_changed = changed_alias_procs(old_aliases, new_aliases)
    modref_changed = changed_modref_procs(old_modref, new_modref)
    fi_changed = old_fi.fallback_snapshot != new_fi.fallback_snapshot
    nodes = new_pcg.reachable

    seeds: Set[str] = set(edited) & nodes
    seeds |= delta.new_procs
    seeds |= delta.incoming_changed
    seeds |= delta.outgoing_changed
    seeds |= alias_changed & nodes
    seeds |= modref_changed & nodes
    for proc in nodes:
        if proc in seeds:
            continue
        for edge in new_pcg.edges_out_of(proc):
            if edge.callee in modref_changed:
                seeds.add(proc)  # effect summaries at its call sites changed
                break
    if fi_changed:
        seeds.update(
            edge.callee for edge in new_pcg.fallback_edges
        )

    fs_dirty = forward_closure(new_pcg, seeds)

    ref_changed = {
        proc
        for proc in modref_changed
        if old_modref.ref.get(proc) != new_modref.ref.get(proc)
    }
    use_seeds: Set[str] = set(edited) & nodes
    use_seeds |= delta.new_procs
    use_seeds |= delta.outgoing_changed
    for proc in nodes:
        if proc in use_seeds:
            continue
        position = new_pcg.rpo_position(proc)
        for edge in new_pcg.edges_out_of(proc):
            if (
                new_pcg.rpo_position(edge.callee) <= position
                and edge.callee in ref_changed
            ):
                use_seeds.add(proc)  # its REF-fallback input changed
                break

    return DirtyRegion(
        fs_dirty=frozenset(fs_dirty),
        use_seeds=frozenset(use_seeds),
        delta=delta,
        fi_changed=fi_changed,
    )
