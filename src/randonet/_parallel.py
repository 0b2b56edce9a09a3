"""How randonet spreads work over the CPUs the process may run on.

``FeatureMap.apply`` fills column ranges of its result on threads,
:func:`randonet.model.evaluate` computes row ranges of its readout product
on threads, :func:`randonet.problems.build_case` computes row blocks of
its parameter table in forked processes, and the COD's pivoted QR splits
two BLAS calls per column and panel on threads. Each takes its count from
:func:`workers`, its cuts from :func:`ranges`, and hands them to
:func:`in_threads`, :func:`in_processes` or, for the many rounds of one
pivoted QR, :meth:`Crew.run`; each runs a single range in the caller
before any other bookkeeping. Every thread belongs to a :class:`Crew`,
which starts its threads when a ``with`` block is entered and joins them
when it is left.

The rule is one worker per usable CPU (the affinity mask, so ``taskset``
limits it; within a pivoted QR, one per thread of its crew), at most one
per ``floor`` units of work and one per block; below twice the floor one
integer comparison returns 1. The floors are ``MIN_RANGE_ENTRIES`` result
entries a thread (evaluate counts branch feature entries),
``MIN_BLOCK_ROWS`` table rows a process, and ``MIN_GEMV_ENTRIES`` trailing
entries for the pivoted QR. Ranges start on block boundaries, so every
GEMM block of an apply and every row tile of the readout product keeps its
shape, and the bits do not depend on the worker count. Each forked split
logs one DEBUG record on this module's logger: what was split, its rows,
the rows of each block and the seconds.

``one_blas_thread`` holds numpy's bundled OpenBLAS at one thread while an
apply or an evaluate runs: at two OpenBLAS threads a split RFFN(2000)
apply ran 2-2.6x slower than at one (2-core x86-64 Xeon).
``scipy_blas_threads`` reads the thread count of scipy's bundled OpenBLAS,
which runs the COD's LAPACK, and ``scipy_blas_core`` the kernels it picked:
the pivoted QR splits only at one thread and on kernels whose bit rules
were measured.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import logging
import multiprocessing
import os
import threading
import time

import numpy as np
import scipy

logger = logging.getLogger(__name__)

# Fewest result entries FeatureMap.apply hands to one thread. A thread
# costs 0.1-0.15 ms to start and join. Split in two at 2 * 2**17 entries,
# applies took 14-23 % less time than in one thread (tanh 200 x 1, RFFN
# 2000 x 100 and JL 100 x 100 maps; one BLAS thread, 2-core x86-64 Xeon);
# split at 2**17 entries, the tanh map took up to 45 % more.
MIN_RANGE_ENTRIES = 1 << 17

# Fewest rows a build hands to one process: 256 rows take 80-200 ms (cases
# 3-5 to case 1), and a worker costs about 7 ms to fork, hear from and join
# from a 100 MB process (2-core x86-64 Xeon).
MIN_BLOCK_ROWS = 256


# Fewest trailing-matrix entries a pivoted QR's per-column dgemv hands to
# one thread. With the port's 0.2 ms of serial work between calls, a dgemv
# split in two took 204-212 us against 142-163 us in one call at 600 x 500
# entries, broke even at 1024 x 1024 and took 542-612 us against 758-778 us
# at 1200 x 1400 (2-core x86-64 Xeon); whole factorizations ran as fast
# with 2**18 to 2**20 here.
MIN_GEMV_ENTRIES = 1 << 19


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, so ``taskset`` limits
    it), or 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def workers(units: int, floor: int, blocks: int, cpus: int | None = None) -> int:
    """Workers for ``units`` of work in ``blocks`` blocks: one per CPU
    (``cpus``, or else the usable ones), at most one per ``floor`` units and
    one per block, and 1 below twice ``floor`` without reading the affinity
    mask."""
    if units < 2 * floor:
        return 1
    return min(usable_cpus() if cpus is None else cpus, units // floor, blocks)


def ranges(blocks: int, block: int, count: int, end: int) -> list:
    """``count`` contiguous ``(lo, hi)`` ranges over ``blocks`` blocks of
    ``block`` items, as even as whole blocks allow; each starts on a block
    and the last ends at ``end``."""
    if count == 1:
        return [(0, end)]
    cuts = [block * (blocks * i // count) for i in range(count)] + [end]
    return list(zip(cuts, cuts[1:]))


def in_threads(task, spans: list) -> None:
    """``task(lo, hi)`` for every range in ``spans``, on a :class:`Crew` of
    one thread per range that lives for this call; a single range runs in
    this thread before any other bookkeeping.

    A worker's exception is raised here, and no thread outlives the call.
    """
    if len(spans) == 1:
        return task(*spans[0])
    with Crew(len(spans)) as crew:
        crew.run(task, spans)


def in_processes(task, spans: list, what: str) -> tuple:
    """``task(lo, hi)`` over the contiguous row ranges ``spans``, one process each.

    ``task`` returns a tuple of arrays whose first axis runs over its rows;
    the ranges' arrays come back concatenated in row order. Without the
    ``fork`` start method, or in a daemonic process (which may not start
    children), one call computes all rows here. Otherwise this process
    computes the first range while each other one runs in a forked process,
    which inherits ``task`` and the module globals instead of unpickling
    them, and sends its arrays back through a pipe. A worker's exception is
    raised here, and no worker outlives the call.
    """
    if (len(spans) == 1 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return task(spans[0][0], spans[-1][1])
    start = time.perf_counter()
    context = multiprocessing.get_context("fork")
    children, done = [], False
    try:
        for lo, hi in spans[1:]:
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_send_rows, args=(task, lo, hi, send), daemon=True)
            child.start()
            send.close()
            children.append((child, receive))
        parts = [task(*spans[0])]
        for child, receive in children:
            try:
                part = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"{what}: a worker exited with code {child.exitcode} before sending its rows"
                ) from None
            if isinstance(part, Exception):
                raise part
            parts.append(part)
        done = True
    finally:
        for child, receive in children:
            if not done:
                child.terminate()
            child.join()
            receive.close()
    blocks = tuple(np.concatenate(arrays) for arrays in zip(*parts))
    logger.debug(
        "%s: %d rows in %d blocks of %s rows, %.3f s", what, spans[-1][1], len(spans),
        "/".join(str(hi - lo) for lo, hi in spans), time.perf_counter() - start,
    )
    return blocks


def _send_rows(task, lo: int, hi: int, send) -> None:
    """A worker of :func:`in_processes`: send ``task(lo, hi)`` or its exception."""
    try:
        part = task(lo, hi)
    except Exception as exc:
        part = exc
    send.send(part)


class Crew:
    """``count - 1`` helper threads for the length of a ``with`` block.

    :meth:`run` shares the ranges of one task among the caller and the
    helpers. :func:`in_threads` runs one task on a crew of its own; a
    pivoted QR keeps one crew for all its rounds, a task per column and one
    per panel, since a thread costs 0.1-0.15 ms to start and join.
    Whoever is free takes the next range, so a helper that wakes late (a
    handoff costs 40-100 us on a 2-core x86-64 Xeon, and more while the
    host lends its second core to others) leaves its ranges to the caller
    instead of holding it up; ranges start on block boundaries, so which
    thread runs one does not change the bits. The helpers start when the
    block is entered and are joined when it is left, also when it raises.
    """

    def __init__(self, count: int):
        self.count = count
        self._helpers = []

    def __enter__(self):
        try:
            for _ in range(self.count - 1):
                self._helpers.append(_Helper())
        except BaseException:
            self.__exit__()
            raise
        return self

    def run(self, task, spans: list) -> None:
        """``task(lo, hi)`` for every range in ``spans``, each taken by the
        caller or a helper, whichever is free first.

        Returns when every range has finished; an exception raised by any
        of them is raised here.
        """
        if len(spans) == 1:
            return task(*spans[0])
        shared = _Round(task, spans)
        for helper in self._helpers:
            helper.post(shared)
        shared.work()
        shared.finished.acquire()
        if shared.errors:
            raise shared.errors[0]

    def __exit__(self, *exc_info):
        for helper in self._helpers:
            helper.post(None)
        for helper in self._helpers:
            helper.thread.join()
        self._helpers = []


class _Round:
    """The ranges of one :meth:`Crew.run`, taken one at a time by its workers.

    ``finished`` is released once, by whoever finishes the last range.
    """

    def __init__(self, task, spans: list):
        self.task, self.spans, self.errors = task, spans, []
        self.lock, self.finished = threading.Lock(), threading.Lock()
        self.finished.acquire()
        self.taken, self.unfinished = 0, len(spans)

    def work(self) -> None:
        """Run ranges until none is left to take."""
        while True:
            with self.lock:
                if self.taken == len(self.spans):
                    return
                lo, hi = self.spans[self.taken]
                self.taken += 1
            try:
                self.task(lo, hi)
            except BaseException as exc:
                self.errors.append(exc)
            with self.lock:
                self.unfinished -= 1
                if self.unfinished == 0:
                    self.finished.release()


class _Helper:
    """One thread of a :class:`Crew`. It works on the latest round posted
    each time it wakes; a round already taken up costs it nothing, and a
    round of None ends it."""

    def __init__(self):
        self.go = threading.Lock()
        self.go.acquire()
        self.round = None
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def post(self, shared) -> None:
        self.round = shared
        try:
            self.go.release()
        except RuntimeError:
            pass  # still awake for an earlier post: it reads this round next

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            shared = self.round
            if shared is None:
                return
            shared.work()


def _bundled_openblas(package, suffix: str):
    """The ``(get, set, core)`` functions of the OpenBLAS that ``package``
    bundles in its ``.libs`` folder: its thread count, a setter for it and
    the name of the kernels it picked for this CPU. None where it bundles
    none that exports them."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        found = [getattr(lib, name + suffix, None) for name in (
            "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads",
            "scipy_openblas_get_corename")]
        if None not in found:
            get, set_, core = found
            get.restype, set_.restype, set_.argtypes = ctypes.c_int, None, [ctypes.c_int]
            core.restype = ctypes.c_char_p
            return get, set_, core
    return None


@functools.cache
def numpy_blas_threads():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy
    bundles. Where numpy bundles none that exports them, ``get`` reads 1,
    so nothing is ever set."""
    found = _bundled_openblas(np, "64_")
    return found[:2] if found else ((lambda: 1), None)


@functools.cache
def scipy_blas_threads():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that scipy
    bundles, which runs its LAPACK. Where scipy bundles none that exports
    them, ``get`` reads 0: a count not known to be one."""
    found = _bundled_openblas(scipy, "")
    return found[:2] if found else ((lambda: 0), None)


@functools.cache
def scipy_blas_core() -> str:
    """The name of the kernels scipy's bundled OpenBLAS picked for this CPU,
    such as ``SkylakeX``, or "" where scipy bundles none that tells."""
    found = _bundled_openblas(scipy, "")
    return found[2]().decode() if found else ""


class OneBlasThread:
    """Context manager that runs its block with numpy's OpenBLAS at one thread.

    The count is process-wide. Only the outermost of nested or concurrent
    blocks, in any thread, reads the caller's count, and the last to leave
    restores it, also when its block raises. A block entered in a thread
    that is already inside one touches neither the lock nor the library.
    scipy's OpenBLAS keeps its count.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()  # .depth: this thread's open blocks
        self._threads = 0  # threads inside a block
        self._saved = 1  # the count the outermost block found

    def __enter__(self):
        depth = getattr(self._local, "depth", 0)
        if not depth:
            with self._lock:
                if self._threads == 0:
                    get, set_ = numpy_blas_threads()
                    self._saved = get()
                    if self._saved != 1:
                        set_(1)
                self._threads += 1
        self._local.depth = depth + 1

    def __exit__(self, *exc_info):
        self._local.depth -= 1
        if self._local.depth:
            return
        with self._lock:
            self._threads -= 1
            if self._threads == 0 and self._saved != 1:
                numpy_blas_threads()[1](self._saved)


one_blas_thread = OneBlasThread()
