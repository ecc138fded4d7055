"""Summary-cache behavior: warm hits, targeted invalidation, disabled mode.

Invalidation is implicit — keys are content fingerprints — so the tests
phrase expectations in terms of *which procedures get re-analyzed* after an
edit: exactly the edited procedure when its interface (MOD/REF, entry
values) is unchanged, and the dependent cone when it is not.
"""

import pytest

from repro.api import CompilationPipeline
from repro.bench.programs import FIGURE1_SOURCE
from repro.core.config import ICPConfig
from repro.ir.lattice import Const
from repro.sched.cache import (
    SummaryCache,
    env_fingerprint,
    procedure_fingerprint,
)
from repro.lang.parser import parse_program

CHAIN = """
global g;
init { g = 5; }
proc main() { call mid(1); }
proc mid(a) { call leaf(a + 1); }
proc leaf(b) { print(b + %s); }
"""


def pipeline(**kwargs):
    return CompilationPipeline(ICPConfig(cache=True, **kwargs))


class TestWarmRuns:
    def test_unchanged_program_is_all_hits(self):
        pipe = pipeline()
        source = CHAIN % "1"
        cold = pipe.run(source)
        warm = pipe.run(source)
        assert cold.sched.tasks_run == 3 and cold.sched.tasks_cached == 0
        assert cold.sched.cache.misses == 3 and cold.sched.cache.hits == 0
        assert warm.sched.tasks_run == 0 and warm.sched.tasks_cached == 3
        assert warm.sched.cache.hits == 3 and warm.sched.cache.misses == 0
        assert warm.sched.cache.hit_rate == 1.0
        assert warm.summary() == cold.summary()

    def test_warm_run_covers_returns_passes_too(self):
        pipe = pipeline(propagate_returns=True, propagate_exit_values=True)
        source = CHAIN % "1"
        cold = pipe.run(source)
        warm = pipe.run(source)
        # fs + returns + returns-exit analyses all replay from the cache.
        assert cold.sched.tasks_run > 3
        assert warm.sched.tasks_run == 0
        assert warm.sched.tasks_cached == cold.sched.tasks_run
        assert warm.sched.cache.hit_rate == 1.0
        assert warm.summary() == cold.summary()

    def test_warm_run_parallel(self):
        pipe = pipeline()
        source = CHAIN % "1"
        pipe.run(source)
        warm = pipe.run(source)
        assert warm.sched.tasks_run == 0
        assert warm.sched.cache.hit_rate == 1.0


class TestInvalidation:
    def test_interface_preserving_leaf_edit_reanalyzes_only_leaf(self):
        pipe = pipeline()
        pipe.run(CHAIN % "1")
        edited = pipe.run(CHAIN % "2")  # leaf body changes; MOD/REF do not
        assert edited.sched.tasks_run == 1
        assert edited.sched.tasks_cached == 2
        assert edited.sched.cache.misses == 1
        assert edited.sched.cache.invalidations == 1

    def test_entry_changing_edit_invalidates_dependent_cone(self):
        pipe = pipeline()
        pipe.run(CHAIN % "1")
        # Changing main's argument shifts mid's and leaf's entry envs: every
        # procedure's key changes even though mid/leaf sources are identical.
        edited = pipe.run(
            (CHAIN % "1").replace("call mid(1);", "call mid(7);")
        )
        assert edited.sched.tasks_run == 3
        assert edited.sched.cache.invalidations == 3

    def test_callee_modref_change_invalidates_callers(self):
        before = """
global g;
proc main() { call leaf(); print(g); }
proc leaf() { print(1); }
"""
        after = """
global g;
proc main() { call leaf(); print(g); }
proc leaf() { g = 2; print(1); }
"""
        pipe = pipeline()
        pipe.run(before)
        edited = pipe.run(after)
        # leaf's MOD set changed, so main's effects fingerprint changed too.
        assert edited.sched.tasks_run == 2
        assert edited.sched.cache.invalidations == 2

    def test_cache_persists_entries_across_edits(self):
        pipe = pipeline()
        pipe.run(CHAIN % "1")
        pipe.run(CHAIN % "2")
        reverted = pipe.run(CHAIN % "1")  # old entries still resident
        assert reverted.sched.tasks_run == 0
        assert reverted.sched.cache.hit_rate == 1.0


class TestSweep:
    """A session's cache keeps the entries of each slot's last two keys."""

    SLOT = ("fs", "leaf")

    def fill(self, cache, *keys):
        for key in keys:
            if cache.lookup(self.SLOT, key) is None:
                cache.store(self.SLOT, key, key)

    def test_keeps_current_and_previous_keys(self):
        cache = SummaryCache()
        self.fill(cache, "k1", "k2", "k3")
        assert cache.sweep() == 1
        assert cache.stats.evictions == 1
        assert len(cache) == cache.stats.entries == 2
        assert cache.lookup(self.SLOT, "k1") is None
        assert cache.lookup(self.SLOT, "k2") == "k2"

    def test_revert_of_the_last_change_hits_after_a_sweep(self):
        cache = SummaryCache()
        self.fill(cache, "k1", "k2")
        cache.sweep()
        assert cache.lookup(self.SLOT, "k1") == "k1"
        self.fill(cache, "k1", "k2", "k1")
        assert cache.sweep() == 0

    def test_repeated_key_does_not_age_the_previous_one(self):
        cache = SummaryCache()
        self.fill(cache, "k1", "k2", "k2", "k2")
        assert cache.sweep() == 0
        assert len(cache) == 2

    def test_evicted_procedures_lose_both_keys(self):
        cache = SummaryCache()
        self.fill(cache, "k1", "k2")
        cache.store(("fs", "main"), "m1", "m1")
        assert cache.evict_procs(["leaf"]) == 2
        assert len(cache) == 1


class TestDisabledCache:
    def test_disabled_cache_matches_seed_behavior(self):
        source = CHAIN % "1"
        plain = CompilationPipeline(ICPConfig())
        assert plain.cache is None
        first = plain.run(source)
        second = plain.run(source)
        # Nothing is memoized: every run analyzes every procedure again.
        assert first.sched.tasks_run == 3 and first.sched.cache is None
        assert second.sched.tasks_run == 3 and second.sched.tasks_cached == 0
        cached = pipeline().run(source)
        assert cached.summary() == first.summary()
        assert cached.fs.constant_formals() == first.fs.constant_formals()
        assert cached.fs.fallback_edges == first.fs.fallback_edges


class TestRunCounters:
    """``PipelineResult.sched`` counts engine runs with or without a cache."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"propagate_returns": True}, {"context_mode": "value-contexts"}],
        ids=["default", "returns", "value_contexts"],
    )
    def test_uncached_runs_are_counted(self, overrides):
        source = FIGURE1_SOURCE
        uncached = CompilationPipeline(ICPConfig(**overrides)).run(source)
        cold = pipeline(**overrides).run(source)
        assert uncached.sched.tasks_run > 0
        assert uncached.sched.tasks_run == (
            cold.sched.tasks_run + cold.sched.tasks_cached
        )
        assert uncached.sched.analysis_seconds > 0.0


class TestCachePrimitives:
    def test_lookup_store_counters(self):
        cache = SummaryCache()
        slot = ("fs", "p")
        assert cache.lookup(slot, "k1") is None
        cache.store(slot, "k1", "result-1")
        assert cache.lookup(slot, "k1") == "result-1"
        assert cache.lookup(slot, "k2") is None  # changed key: invalidation
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.invalidations) == (1, 2, 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0 and cache.stats.lookups == 0

    def test_env_fingerprint_is_type_sensitive(self):
        int_env = {"a": Const(2)}
        float_env = {"a": Const(2.0)}
        assert env_fingerprint(int_env) != env_fingerprint(float_env)

    def test_procedure_fingerprint_tracks_source(self):
        p1 = parse_program("proc main() { print(1); }").procedures[0]
        p2 = parse_program("proc main() { print(2); }").procedures[0]
        p1_again = parse_program("proc main() { print(1); }").procedures[0]
        assert procedure_fingerprint(p1) != procedure_fingerprint(p2)
        assert procedure_fingerprint(p1) == procedure_fingerprint(p1_again)


class TestEnvFingerprintOrdering:
    """The entry-env fingerprint must hash *sorted* names.

    Value contexts key their tables (and their cache slots) on
    ``env_fingerprint``, and entry environments are assembled in different
    orders by different callers (formals in declaration order, globals in
    ref order, merged tables in first-seen order).  If insertion order
    leaked into the hash, identical contexts would tabulate — and cache —
    twice.
    """

    def test_permuted_insertion_orders_collide(self):
        import itertools

        from repro.ir.lattice import BOTTOM, TOP

        values = {"a": Const(1), "b": BOTTOM, "c": TOP, "d": Const(2.5)}
        names = list(values)
        fingerprints = {
            env_fingerprint({name: values[name] for name in order})
            for order in itertools.permutations(names)
        }
        assert len(fingerprints) == 1

    def test_different_bindings_do_not_collide(self):
        base = {"a": Const(1), "b": Const(2)}
        assert env_fingerprint(base) != env_fingerprint(
            {"a": Const(2), "b": Const(1)}
        )
        assert env_fingerprint(base) != env_fingerprint({"a": Const(1)})

    def test_name_value_boundary_is_unambiguous(self):
        # The rendering must not let a name absorb part of a value token
        # ("ab"= vs "a"="b..."-style collisions).
        assert env_fingerprint({"ab": Const(1)}) != env_fingerprint(
            {"a": Const(1), "b": Const(1)}
        )
