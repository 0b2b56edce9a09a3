import os
import tracemalloc

import pytest

from randonet import _parallel, embeddings


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


@pytest.fixture
def split_applies(monkeypatch):
    """``split_applies(k)`` makes applies see k usable CPUs, and split down to one entry.

    It returns the list that collects the ``(lo, hi)`` column range of every
    filled range from then on.
    """
    ranges = []
    fill = embeddings.FeatureMap._fill

    def record(self, x, z, lo, hi):
        ranges.append((lo, hi))
        return fill(self, x, z, lo, hi)

    def force(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(_parallel, "MIN_RANGE_ENTRIES", 1)
        monkeypatch.setattr(embeddings.FeatureMap, "_fill", record)
        ranges.clear()
        return ranges

    return force
