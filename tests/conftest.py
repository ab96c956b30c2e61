"""Shared test fixtures."""

import threading

import pytest

# modules whose kernels draw on worker threads
_THREAD_CHECKED = {"test_chain.py", "test_trees.py"}


@pytest.fixture(autouse=True)
def _no_thread_left_behind(request):
    """Fail a test of the chain walker or the growers that ends with more
    live threads than it started with."""
    if request.node.path.name not in _THREAD_CHECKED:
        yield
        return
    before = threading.active_count()
    yield
    left = threading.active_count() - before
    if left > 0:
        pytest.fail(f"{left} thread(s) still running after the test", pytrace=False)
