"""Shared test fixtures."""

import threading

import pytest

# modules whose tests run kernels that draw on worker threads: the chain
# walker and the growers, directly or through the CLI and verify
_THREAD_CHECKED = {"test_chain.py", "test_trees.py", "test_cli.py", "test_acceptance.py"}


@pytest.fixture(autouse=True)
def _no_thread_left_behind(request):
    """Fail a test that runs the chain walker or the growers and ends with
    more live threads than it started with."""
    if request.node.path.name not in _THREAD_CHECKED:
        yield
        return
    before = threading.active_count()
    yield
    left = threading.active_count() - before
    if left > 0:
        pytest.fail(f"{left} thread(s) still running after the test", pytrace=False)
