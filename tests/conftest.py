import tracemalloc

import pytest


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Session-wide dataset cache so expensive builds happen once."""
    return str(tmp_path_factory.mktemp("dataset-cache"))


@pytest.fixture
def traced_peak():
    """``run(fn)`` calls ``fn()`` and returns its result and peak bytes.

    The peak counts what the call allocated above what was live when it
    started; numpy reports its array buffers to ``tracemalloc``, so it
    measures how many matrices a call holds at once.
    """

    def run(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return run
