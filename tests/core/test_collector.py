"""The cyclic garbage collector's pause around each analysis phase."""

import gc
import sys
import threading

import pytest

from repro.bench.suite import SUITE, build_benchmark_source
from repro.core import collector
from repro.core.collector import collector_paused
from repro.core.config import ICPConfig
from repro.core.driver import CompilationPipeline
from repro.errors import ParseError
from repro.lang.parser import parse_program


@pytest.fixture
def gc_state():
    """Put the collector's switch and thresholds back after the test."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collections():
    """Every collection started while the test runs, as
    ``(generation, collector enabled at that moment)``."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append((info["generation"], gc.isenabled()))

    gc.callbacks.append(record)
    yield seen
    gc.callbacks.remove(record)


@collector_paused
def allocate(count):
    """A paused call that leaves ``count`` tracked objects behind."""
    return [[] for _ in range(count)]


class TestPause:
    def test_nested_pauses_restore_at_the_outermost_exit(self):
        seen = []

        @collector_paused
        def inner():
            seen.append(gc.isenabled())

        @collector_paused
        def outer():
            inner()
            seen.append(gc.isenabled())

        outer()
        assert seen == [False, False]
        assert gc.isenabled()
        assert collector._depth == 0

    def test_overlapping_threads_resume_only_after_both_exit(self):
        entered = [threading.Event(), threading.Event()]
        release = [threading.Event(), threading.Event()]

        @collector_paused
        def phase(index):
            entered[index].set()
            release[index].wait(10)

        threads = [
            threading.Thread(target=phase, args=(index,)) for index in (0, 1)
        ]
        try:
            threads[0].start()
            assert entered[0].wait(10)
            threads[1].start()
            assert entered[1].wait(10)
            assert not gc.isenabled()
            release[0].set()
            threads[0].join(10)
            assert not gc.isenabled()
            release[1].set()
            threads[1].join(10)
            assert gc.isenabled()
        finally:
            for event in release:
                event.set()
            for thread in threads:
                thread.join(10)

    def test_many_threads_lose_no_count(self):
        # A lost update to the depth counter would leave the collector off
        # (or re-enable it under a running phase) once the threads finish.
        seen_enabled = []

        @collector_paused
        def phase():
            if gc.isenabled():
                seen_enabled.append(True)

        def worker():
            for _ in range(2000):
                phase()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert seen_enabled == []
        assert collector._depth == 0
        assert gc.isenabled()

    def test_an_exception_inside_a_phase_restores_the_collector(self):
        with pytest.raises(ParseError):
            parse_program("proc main( {")
        assert gc.isenabled()
        assert collector._depth == 0

    def test_a_caller_that_disabled_collection_keeps_it_off(
        self, gc_state, collections
    ):
        gc.disable()
        allocate(5000)
        assert not gc.isenabled()
        assert collections == []

    def test_a_zero_threshold_stays_zero_and_sees_no_collection(
        self, gc_state, collections
    ):
        gc.set_threshold(0)
        allocate(5000)
        assert gc.isenabled()
        assert gc.get_threshold()[0] == 0
        assert collections == []

    def test_the_exit_collects_the_young_generation_above_its_threshold(
        self, gc_state, collections
    ):
        gc.collect()
        gc.set_threshold(2000, 1000, 1000)
        collections.clear()
        allocate(3000)
        # One young collection, run while the collector was still off,
        # that is, inside the paused call.
        assert collections == [(0, False)]
        collections.clear()
        allocate(100)
        assert collections == []
        assert gc.isenabled()


def test_a_pipeline_run_makes_at_most_one_young_collection_per_phase(
    gc_state, collections
):
    source = build_benchmark_source(SUITE["013.spice2g6"], 2)
    pipeline = CompilationPipeline(ICPConfig())
    gc.collect()
    collections.clear()
    result = pipeline.run(source, run_transform=True)
    generations = [generation for generation, _ in collections]
    assert generations.count(0) == len(generations)
    assert len(generations) <= len(result.timings)
