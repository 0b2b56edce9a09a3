"""``_parallel.in_threads``: every range once, errors raised in the caller, no thread left."""

import sys
import threading

import pytest

from randonet import _parallel

SPANS = [(0, 4), (4, 8), (8, 10), (10, 11), (11, 20)]
STARTS = [lo for lo, _ in SPANS]


@pytest.fixture
def late_threads(monkeypatch):
    """An event; threads that ``in_threads`` starts run nothing until it is set."""
    go = threading.Event()

    class Late(threading.Thread):
        def run(self):
            go.wait(10)
            super().run()

    monkeypatch.setattr(threading, "Thread", Late)
    return go


def test_runs_every_range_once_with_more_ranges_than_cpus():
    # A short switch interval: a range lost or taken twice between threads
    # shows in the counts.
    spans = [(i, i + 1) for i in range(_parallel.usable_cpus() + 3)]
    seen, before = [], threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(300):
            _parallel.in_threads(lambda lo, hi: seen.append((lo, hi)), spans)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == sorted(spans * 300)
    assert threading.active_count() == before


def test_the_callers_exception_is_raised_after_the_other_ranges_ran(late_threads):
    # The threads start late, so the caller runs every other range itself
    # after its first one raised.
    ran, before = [], threading.active_count()

    def task(lo, hi):
        ran.append((lo, threading.get_ident()))
        if len(ran) == len(SPANS):
            late_threads.set()
        if lo == 0:
            raise KeyError(lo)

    with pytest.raises(KeyError) as raised:
        _parallel.in_threads(task, SPANS)
    assert raised.value.args == (0,)
    assert ran == [(lo, threading.get_ident()) for lo in STARTS]
    assert threading.active_count() == before


def test_a_threads_exception_reaches_the_caller_after_the_other_ranges_ran():
    # The caller holds its first range until a thread has raised in another.
    caller, lock, raised_in, done = threading.get_ident(), threading.Lock(), [], []
    thread_raised, before = threading.Event(), threading.active_count()

    def task(lo, hi):
        if threading.get_ident() == caller:
            if lo == 0:
                assert thread_raised.wait(10)
        else:
            with lock:
                first = not raised_in
                if first:
                    raised_in.append(lo)
            if first:
                thread_raised.set()
                raise KeyError(lo)
        done.append(lo)

    with pytest.raises(KeyError) as raised:
        _parallel.in_threads(task, SPANS)
    assert raised.value.args == tuple(raised_in)
    assert sorted(done + raised_in) == STARTS
    assert threading.active_count() == before


def test_one_range_runs_in_the_caller_and_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a single range starts no thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    ran = []
    _parallel.in_threads(lambda lo, hi: ran.append((lo, hi, threading.get_ident())), [(0, 7)])
    assert ran == [(0, 7, threading.get_ident())]


def test_a_thread_held_in_its_first_range_leaves_the_rest_to_the_caller():
    # A thread's first range waits until every range is run by the caller
    # or held by a thread, so no thread takes a second one.
    caller, lock, ran, held = threading.get_ident(), threading.Lock(), [], []
    settled = threading.Event()

    def task(lo, hi):
        in_caller = threading.get_ident() == caller
        with lock:
            if in_caller:
                ran.append(lo)
            else:
                held.append((threading.get_ident(), lo))
            if len(ran) + len(held) == len(SPANS):
                settled.set()
        if not in_caller:
            assert settled.wait(10)

    _parallel.in_threads(task, SPANS)
    assert ran[0] == STARTS[0]  # the caller takes the first range before any thread starts
    assert sorted(ran + [lo for _, lo in held]) == STARTS
    assert len({thread for thread, _ in held}) == len(held) < len(SPANS)


def test_a_thread_that_starts_late_leaves_its_range_to_the_caller(late_threads):
    ran = []

    def task(lo, hi):
        ran.append((lo, threading.get_ident()))
        if len(ran) == len(SPANS):
            late_threads.set()

    _parallel.in_threads(task, SPANS)
    assert ran == [(lo, threading.get_ident()) for lo in STARTS]
