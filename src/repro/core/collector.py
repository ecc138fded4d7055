"""The cyclic garbage collector, paused for the length of one analysis phase.

No analysis phase makes cyclic garbage: what a phase allocates is either
freed by reference counting or still alive when it returns
(``tests/test_no_cycles.py`` holds every analysis path to that).  CPython's
collector nonetheless traverses those objects every few hundred
allocations, and a collection lands in whichever phase happens to allocate
next.  So each Figure 2 phase runs under :func:`collector_paused`: the
collector stays off while the phase runs, and the phase pays, inside its
own call, for one young-generation collection of what it leaves behind.
Older generations stay on CPython's own schedule.

The pause is process-wide (``gc.disable`` is), so it is counted: the first
of any number of nested or concurrent paused calls switches the collector
off, and the last one out switches it back on, and only if it was on when
the first came in.  A caller that disabled collection, by ``gc.disable()``
or ``gc.set_threshold(0)``, keeps it that way and sees no collection.
"""

from __future__ import annotations

import functools
import gc
import threading

# An RLock: a finalizer run by the exit collection may itself enter a
# paused call on the same thread.
_lock = threading.RLock()
#: Paused calls running now, over all threads.
_depth = 0
#: Whether the collector was enabled when the outermost call came in.
_was_enabled = False


def collector_paused(fn):
    """Decorate ``fn`` to run with the cyclic garbage collector paused."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        _enter()
        try:
            return fn(*args, **kwargs)
        finally:
            _exit()

    return paused


def _enter() -> None:
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1


def _exit() -> None:
    global _depth
    with _lock:
        _depth -= 1
        if _depth or not _was_enabled:
            return
        # Collect before re-enabling, so the collection runs here, inside
        # the phase, and not at whatever allocation comes next.
        threshold = gc.get_threshold()[0]
        if threshold and gc.get_count()[0] > threshold:
            gc.collect(0)
        gc.enable()
