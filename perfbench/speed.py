"""Pace fit and evaluate calls by fixed reference kernels run between them.

On a small shared machine a fit or evaluate call of a few milliseconds
slows down by up to half for stretches of seconds to minutes, while other
tenants load the host, and a run that lands in such a stretch reads slow
throughout. A fixed numpy kernel of the same kind slows down alike: on a
2-vCPU x86-64 host, over one minute, the median of ten RFFN evaluate calls
moved by -27 % to +17 % from its typical value, and its ratio to a
cos-and-matmul kernel timed between the calls by -9 % to +10 %.

So :func:`run_blocks` runs a call in blocks of at least ``BLOCK_S``
seconds, times its kernel before the first block and after every block,
and scales each block by the kernel's nominal time over the mean of the
two kernel times around it. The scaled time reads as seconds at the
machine speed where the kernel takes its nominal time; the kernel never
touches randonet, so a change in the program moves it as it moves wall
time.

Case builds made ahead of the jobs last one to three seconds and are paced
by the QR kernel, which followed them best: over 89 case-1 builds on the
host above, their interquartile range was 28 % of the median in wall time
and 12 % paced (15 % with the evaluate kernel). The builds inside
``pendulum_data`` jobs (15 s) stay in wall time: pacing them by a kernel
timed at their two ends did not narrow their spread. A job's time is its
paced fit and evaluate blocks plus the rest in wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

clock = time.perf_counter

BLOCK_S = 0.04  # shortest timed block of calls


@dataclass
class Kernel:
    run: Callable[[], object]
    nominal_s: float  # its median time on the host named above, one BLAS thread
    spent_s: float = 0.0  # wall time spent timing it, to leave out of jobs

    def time(self) -> float:
        """Median of three runs, so that one preempted run does not count."""
        runs = []
        for _ in range(3):
            start = clock()
            self.run()
            runs.append(clock() - start)
        self.spent_s += sum(runs)
        return sorted(runs)[1]


def _evaluate_kernel():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((500, 100)), rng.standard_normal((100, 200))
    c = rng.standard_normal((100, 500))
    return lambda: c @ np.cos(a @ b)


def _fit_kernel():
    q = np.random.default_rng(1).standard_normal((1200, 100))
    return lambda: scipy.linalg.qr(q, mode="economic", pivoting=True)


# Kernels of the same kind as the calls they pace: transcendental feature
# maps and matrix products for evaluate, a pivoted QR for the fits (and
# the case builds).
EVALUATE = Kernel(_evaluate_kernel(), nominal_s=0.0034)
FIT = Kernel(_fit_kernel(), nominal_s=0.0052)
KERNELS = (EVALUATE, FIT)


def spent_s() -> float:
    """Wall time spent timing kernels so far."""
    return sum(kernel.spent_s for kernel in KERNELS)


class Block(NamedTuple):
    calls: int
    wall_s: float  # the calls' own time, without the kernel runs
    scaled_s: float  # wall_s at the kernel's nominal speed

    def per_call(self, scaled: bool = True) -> float:
        return (self.scaled_s if scaled else self.wall_s) / self.calls


def run_blocks(call, kernel: Kernel, rounds: int, on_result) -> list[Block]:
    """Run ``call`` in ``rounds`` blocks; hand every result to ``on_result``."""
    blocks, before = [], kernel.time()
    for _ in range(rounds):
        calls, wall = 0, 0.0
        while calls == 0 or wall < BLOCK_S:
            start = clock()
            result = call()
            wall += clock() - start
            calls += 1
            on_result(result)
        after = kernel.time()
        blocks.append(Block(calls, wall, wall * 2.0 * kernel.nominal_s / (before + after)))
        before = after
    return blocks
