"""How randonet spreads work over the CPUs the process may run on.

``FeatureMap.apply`` fills column ranges of its result on threads,
:func:`randonet.model.evaluate` computes row ranges of its readout product
on threads, :func:`randonet.problems.build_case` computes row blocks of
its functions in forked processes (each block draws its own rows of the
parameter table, so the caller holds only its own block's), and the COD
runs its LAPACK calls on scipy's bundled OpenBLAS at one thread per
worker. Each takes its count
from :func:`workers`; the splits take their cuts from :func:`ranges` and
hand them to :func:`in_threads` or :func:`in_processes`, which run a single
range in the caller before any other bookkeeping. Both join every worker
they start before they return, also when a range raises.

The rule is one worker per usable CPU (the affinity mask, so ``taskset``
limits it), at most one per ``floor`` units of work and one per block;
below twice the floor one integer comparison returns 1. The floors are
``MIN_RANGE_ENTRIES`` result entries a thread (evaluate counts branch
feature entries), ``MIN_BLOCK_ROWS`` table rows a process and
``MIN_QR_ENTRIES`` matrix entries an OpenBLAS thread of the COD. Ranges
start on block boundaries, so every GEMM block of an apply and every row
tile of the readout product keeps its shape, and the bits do not depend on
the worker count. Each forked split logs one DEBUG record on this module's
logger: what was split, its rows, the rows of each block and the seconds.

:class:`BlasThreads` holds one bundled OpenBLAS at a thread count while a
``with`` block runs and then restores the caller's. ``one_blas_thread``
holds numpy's at one thread while an apply or an evaluate runs: at two
OpenBLAS threads a split RFFN(2000) apply ran 2-2.6x slower than at one
(2-core x86-64 Xeon). ``scipy_blas`` holds scipy's, which runs the COD's
LAPACK, at the COD's worker count, so the factors depend on the usable
CPUs and the matrix size, not on the caller's count.
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

# Fewest matrix entries a COD hands to one thread of scipy's OpenBLAS.
# geqp3 at one and two threads (2-core x86-64 Xeon): 100 x 1600 took
# 6.1-6.3 against 15-16 ms, 2000 x 100 5.3 against 11 ms, 500 x 800 35-38
# against 38 ms, 1000 x 1000 148-154 against 106-118 ms and 2000 x 1600
# 0.84 against 0.51-0.52 s. So a matrix takes a second thread from 2**20
# entries.
MIN_QR_ENTRIES = 1 << 19


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, so ``taskset`` limits
    it), or 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def workers(units: int, floor: int, blocks: int) -> int:
    """Workers for ``units`` of work in ``blocks`` blocks: one per usable CPU,
    at most one per ``floor`` units and one per block, and 1 below twice
    ``floor`` without reading the affinity mask."""
    return 1 if units < 2 * floor else min(usable_cpus(), units // floor, blocks)


def ranges(blocks: int, block: int, count: int, end: int) -> list:
    """``count`` contiguous ``(lo, hi)`` ranges over ``blocks`` blocks of
    ``block`` items, as even as whole blocks allow; each starts on a block
    and the last ends at ``end``."""
    if count == 1:
        return [(0, end)]
    cuts = [block * (blocks * i // count) for i in range(count)] + [end]
    return list(zip(cuts, cuts[1:]))


def in_threads(task, spans: list) -> None:
    """``task(lo, hi)`` for every range in ``spans``; a single range runs
    in this thread, which starts none.

    Otherwise this thread takes the first range and starts one thread per
    further range; then whoever is free takes the next untaken range, so a
    thread that starts late leaves its range to the caller. Every range
    runs even when one raises; the first exception is raised here once
    every thread has been joined.
    """
    if len(spans) == 1:
        return task(*spans[0])
    untaken, lock, errors = iter(spans), threading.Lock(), []

    def take():
        with lock:
            return next(untaken, None)

    def work(span):
        while span is not None:
            try:
                task(*span)
            except BaseException as exc:
                errors.append(exc)
            span = take()

    first, threads = take(), []
    try:
        for _ in spans[1:]:
            thread = threading.Thread(target=lambda: work(take()))
            thread.start()
            threads.append(thread)
        work(first)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


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


def _bundled_openblas(package, suffix: str):
    """The ``(get, set)`` thread-count functions of the OpenBLAS that
    ``package`` bundles in its ``.libs`` folder, or None where it bundles
    none that exports them."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        get, set_ = (getattr(lib, name + suffix, None) for name in (
            "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"))
        if get is not None and set_ is not None:
            get.restype, set_.restype, set_.argtypes = ctypes.c_int, None, [ctypes.c_int]
            return get, set_
    return None


@functools.cache
def numpy_blas_threads():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy
    bundles. Where numpy bundles none that exports them, ``get`` reads 1
    and ``set`` is None."""
    return _bundled_openblas(np, "64_") or ((lambda: 1), None)


@functools.cache
def scipy_blas_threads():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that scipy
    bundles, which runs its LAPACK. Where scipy bundles none that exports
    them, ``get`` reads 0, a count not known, and ``set`` is None."""
    return _bundled_openblas(scipy, "") or ((lambda: 0), None)


class BlasThreads:
    """Context manager that runs its block with one bundled OpenBLAS at a
    set thread count: ``with blas:`` at one thread, ``with blas(count):`` at
    ``count``.

    ``blas_threads`` returns the library's ``(get, set)`` thread-count
    functions, as :func:`numpy_blas_threads` does. The count is
    process-wide. Only the outermost of nested or concurrent blocks, in any
    thread, reads the caller's count and sets its own; blocks that enter
    while it is open run at that count, and the last to leave restores the
    caller's, also when its block raises. A block entered in a thread that
    is already inside one touches neither the lock nor the library. Where
    the library cannot be set, nothing is.
    """

    def __init__(self, blas_threads):
        self._blas_threads = blas_threads
        self._lock = threading.Lock()
        self._local = threading.local()  # .depth: this thread's open blocks; .count: the next one's
        self._threads = 0  # threads inside a block
        self._saved = self._held = 1  # the count the outermost block found, and the one it set

    def __call__(self, count: int) -> BlasThreads:
        self._local.count = count
        return self

    def __enter__(self):
        count = self._local.__dict__.pop("count", 1)
        depth = getattr(self._local, "depth", 0)
        if not depth:
            with self._lock:
                if self._threads == 0:
                    get, set_ = self._blas_threads()
                    self._saved = self._held = get()
                    if self._saved != count and set_ is not None:
                        set_(count)
                        self._held = count
                self._threads += 1
        self._local.depth = depth + 1

    def __exit__(self, *exc_info):
        self._local.depth -= 1
        if self._local.depth:
            return
        with self._lock:
            self._threads -= 1
            if self._threads == 0 and self._saved != self._held:
                self._blas_threads()[1](self._saved)


one_blas_thread = BlasThreads(numpy_blas_threads)
scipy_blas = BlasThreads(scipy_blas_threads)
