"""Checks that run around every test under ``tests/``."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_stays_enabled():
    """Fail any test that leaves the cyclic garbage collector paused.

    Analysis phases pause the process-wide collector while they run; a
    pause that leaked would silently switch it off for every later test.
    """
    yield
    assert gc.isenabled(), "the cyclic garbage collector was left disabled"
