"""Shared test fixtures."""

import threading

import pytest


@pytest.fixture(autouse=True)
def _no_thread_left_behind():
    """Fail a test that ends with more live threads than it started with:
    the chain walker and the growers draw on worker threads (chain._ahead),
    whichever module's test reaches them."""
    before = threading.active_count()
    yield
    left = threading.active_count() - before
    if left > 0:
        pytest.fail(f"{left} thread(s) still running after the test", pytrace=False)
