"""The five benchmark operators and their aligned dataset builders.

Case 1 maps a function to its antiderivative on [0, 1]; case 2 maps a
forcing term to the resulting pendulum angle (single zero initial
condition, gravity constant 9.81); cases 3-5 map a state profile on
[-1, 1] to the right-hand side of a linear diffusion-advection-reaction
PDE, the viscous Burgers PDE, and the Allen-Cahn PDE respectively.

Each build samples input functions (see :mod:`randonet.funcgen`),
evaluates them on an equispaced 100-point sensor grid, and computes the
output columns analytically -- except case 2, where the pendulum ODE is
integrated with an adaptive Dormand-Prince 5(4) scheme at tight
tolerances and the forcing is evaluated analytically inside the
integrator (the sensor grid is only the network's view of u).

The pendulum solve hands copies of its parameter tables to the integrator
as per-sample data; the integrator keeps the rows of the samples still
being integrated at their top (see :mod:`randonet.odeint`), so every
forcing pass reads plain row prefixes. It walks the rows in chunks of
``_FORCING_CHUNK`` rows through two scratch buffers allocated once per
solve, so a right-hand-side call allocates no (rows x terms) array. The
forcing depends on t alone, and Dormand-Prince evaluates its last stage
and the first-same-as-last stage at the same t, so a call whose times
equal the previous call's bit for bit reuses that call's forcing; the rows
change only when the batch shrinks, and then the times do too. Each row's
terms go through the same operations in the same order as a whole-batch
evaluation, so none of this changes an output bit.

The build draws one :func:`~randonet.funcgen.sample_params` table and
walks its rows through buffers allocated once per block (a grid tile and a
few points x terms arrays) with the in-place funcgen kernels; case 1 adds
the base point x0 as one more row and shares ``x - c`` between U and V.

One row kernel computes the U rows, the V rows and the success mask of any
case: case 1's U and V, case 2's pendulum solve and its U, and the
derivatives of cases 3-5, whose right-hand side is applied in the block.
When the sensors are the output points, U is the u already computed for V.
The kernel runs once per build, over contiguous row blocks of the table,
one per CPU the process may run on (so ``taskset`` restricts it): this
process takes the first block and a forked worker each other one. The
workers call elementwise numpy, ``erf`` and row reductions, no BLAS, and
every row goes through the same operations in whatever block it lands, so
the bits do not depend on the worker count. Case 2's replacement draws for
failed samples go through the same kernel in this process.
"""

from __future__ import annotations

import csv
import logging
import multiprocessing
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .funcgen import CaseSamplingConfig, sample_params
from .funcgen import _blocks, _derivatives, _param_names, _primitive
from .model import AlignedDataset
from .odeint import dopri5_batch

__all__ = [
    "CaseStudy",
    "CASE_IDS",
    "case_config",
    "build_case",
    "export_dataset_csv",
    "DATASET_CSV_VERSION",
]

logger = logging.getLogger(__name__)

CASE_IDS = (1, 2, 3, 4, 5)

DATASET_CSV_VERSION = 1

_GRID_POINTS = 100

# Rows of the pendulum forcing evaluated per pass: 128 rows x 200 terms
# keeps one pass's parameter slices and two scratch buffers (1 MB) inside
# a 2 MB L2.
_FORCING_CHUNK = 128

# Fewest rows a build hands to one process: 256 rows take 80-200 ms (cases
# 3-5 to case 1), and a worker costs about 7 ms to fork, hear from and join
# from a 100 MB process (2-core x86-64 Xeon).
_MIN_BLOCK_ROWS = 256


@dataclass(frozen=True)
class CaseStudy:
    """One benchmark operator: grids, sampling ranges, physics constants."""

    id: int
    m: int
    n: int
    sampling: CaseSamplingConfig
    constants: dict

    @property
    def domain(self) -> tuple[float, float]:
        return self.sampling.domain

    def input_grid(self) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], self.m)

    def output_grid(self) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], self.n)


_CASE_DEFAULTS = {
    1: dict(
        sampling=CaseSamplingConfig(
            w_range=(-1.0, 1.0),
            s_range=(0.0, 500.0),
            c_range=(0.0, 1.0),
            a_range=(-1.0, 1.0),
            domain=(0.0, 1.0),
            size=1000,
        ),
        constants={},
    ),
    2: dict(
        sampling=CaseSamplingConfig(
            w_range=(-0.05, 0.05),
            s_range=(0.0, 500.0),
            c_range=(0.0, 1.0),
            a_range=(-0.05, 0.05),
            domain=(0.0, 1.0),
            size=3000,
        ),
        constants={"k": 9.81},
    ),
    3: dict(
        sampling=CaseSamplingConfig(
            w_range=(-1.0, 1.0),
            s_range=(0.0, 50.0),
            c_range=(0.0, 1.0),
            a_range=(-1.0, 1.0),
            domain=(-1.0, 1.0),
            size=2000,
        ),
        constants={"nu": 0.1, "gamma": 0.4, "zeta": -1.0},
    ),
    4: dict(
        sampling=CaseSamplingConfig(
            w_range=(-0.05, 0.05),
            s_range=(0.0, 50.0),
            c_range=(-1.0, 1.0),
            a_range=(-0.05, 0.05),
            domain=(-1.0, 1.0),
            size=2000,
        ),
        constants={"nu": 0.01},
    ),
    5: dict(
        sampling=CaseSamplingConfig(
            w_range=(-0.05, 0.05),
            s_range=(0.0, 50.0),
            c_range=(-1.0, 1.0),
            a_range=(-0.05, 0.05),
            domain=(-1.0, 1.0),
            size=3000,
        ),
        constants={"nu": 0.01},
    ),
}


def case_config(case_id: int, size: int | None = None, seed: int = 0) -> CaseStudy:
    """Benchmark configuration for ``case_id`` with optional size override."""
    if case_id not in _CASE_DEFAULTS:
        raise ValueError(f"case id must be one of {CASE_IDS}, got {case_id}")
    defaults = _CASE_DEFAULTS[case_id]
    sampling = replace(
        defaults["sampling"],
        seed=seed,
        size=defaults["sampling"].size if size is None else size,
    )
    return CaseStudy(
        id=case_id,
        m=_GRID_POINTS,
        n=_GRID_POINTS,
        sampling=sampling,
        constants=dict(defaults["constants"]),
    )


def _workspace(x: np.ndarray, table: np.ndarray, count: int) -> np.ndarray:
    """``count`` (points x terms) buffers, the first ``x`` in every column."""
    ws = np.empty((count, x.size, _blocks(table)[0].shape[1]))
    ws[0] = x[:, None]
    return ws


def _in_row_blocks(kernel, table: np.ndarray, what: str) -> tuple:
    """``kernel(table)``, computed in contiguous row blocks, one per usable CPU.

    ``kernel(rows)`` returns a tuple of arrays whose first axis runs over
    ``rows``; the blocks' arrays come back concatenated in row order. Blocks
    hold at least ``_MIN_BLOCK_ROWS`` rows, and without the ``fork`` start
    method, or in a daemonic process (which may not start children), there
    is one, computed here. Otherwise this process computes the first block
    while each other block runs in a forked process, which inherits
    ``kernel`` and the module globals instead of unpickling them, and sends
    its arrays back through a pipe. A worker's exception is raised here, and
    no worker outlives the call. Each split logs one DEBUG record.
    """
    forks = ("fork" in multiprocessing.get_all_start_methods() and hasattr(os, "sched_getaffinity")
             and not multiprocessing.current_process().daemon)
    count = min(len(os.sched_getaffinity(0)), len(table) // _MIN_BLOCK_ROWS) if forks else 1
    if count <= 1:
        return kernel(table)
    start = time.perf_counter()
    bounds = [len(table) * i // count for i in range(count + 1)]
    context = multiprocessing.get_context("fork")
    workers, done = [], False
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_send_block, args=(kernel, table[lo:hi], send),
                                     daemon=True)
            worker.start()
            send.close()
            workers.append((worker, receive))
        parts = [kernel(table[: bounds[1]])]
        for worker, receive in workers:
            try:
                part = receive.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"{what}: a worker exited with code {worker.exitcode} before sending its rows"
                ) from None
            if isinstance(part, Exception):
                raise part
            parts.append(part)
        done = True
    finally:
        for worker, receive in workers:
            if not done:
                worker.terminate()
            worker.join()
            receive.close()
    blocks = tuple(np.concatenate(arrays) for arrays in zip(*parts))
    logger.debug(
        "%s: %d rows in %d blocks of %s rows, %.3f s", what, len(table), count,
        "/".join(str(hi - lo) for lo, hi in zip(bounds, bounds[1:])),
        time.perf_counter() - start,
    )
    return blocks


def _send_block(kernel, rows: np.ndarray, send) -> None:
    """A worker of :func:`_in_row_blocks`: send ``kernel(rows)`` or its exception."""
    try:
        part = kernel(rows)
    except Exception as exc:
        part = exc
    send.send(part)


def _derivative_rows(table: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """u, ..., u^(order) of every table row at ``x``, shape (order + 1, rows, points)."""
    out = np.empty((order + 1, len(table), x.size))
    points, dx, *ws = _workspace(x, table, 5 if order else 3)
    for j, row in enumerate(table):
        np.subtract(points, _blocks(row)[2], out=dx)
        _derivatives(row, x, dx, ws, out[:, j])
    return out


def _case1_rows(table: np.ndarray, y: np.ndarray, with_u: bool) -> tuple:
    """Rows of V (at ``y``) of the case-1 functions in ``table``, with their
    rows of u at ``y`` if ``with_u`` (else None)."""
    t = np.append(y, 0.0)  # the base point x0 = 0 as one more row
    points, dx, terms = _workspace(t, table, 3)
    prim = np.empty(t.size)
    u_t, v_t = np.empty((2, len(table), y.size))  # one contiguous row per function
    for j, row in enumerate(table):
        np.subtract(points, _blocks(row)[2], out=dx)
        if with_u:
            _derivatives(row, y, dx[:-1], (terms[:-1],), u_t[j : j + 1])
        _primitive(row, t, dx, terms, prim)
        np.subtract(prim[:-1], prim[-1], out=v_t[j])
    return (u_t if with_u else None), v_t


def _gaussian_sums(t, w, neg_s, c, out, dt_buf, terms_buf):
    """Write ``sum_j w_ij exp(neg_s_ij (t_i - c_ij)^2)`` of each row i to ``out``.

    ``w``, ``neg_s`` and ``c`` hold at least ``t.size`` rows; the rows go
    through ``dt_buf`` and ``terms_buf`` in ``_FORCING_CHUNK`` blocks.
    """
    for lo in range(0, t.size, _FORCING_CHUNK):
        hi = min(lo + _FORCING_CHUNK, t.size)
        dt, terms = dt_buf[: hi - lo], terms_buf[: hi - lo]
        np.subtract(t[lo:hi, None], c[lo:hi], out=dt)
        np.multiply(neg_s[lo:hi], dt, out=terms)
        np.multiply(terms, dt, out=terms)
        np.exp(terms, out=terms)
        np.multiply(w[lo:hi], terms, out=terms)
        np.add.reduce(terms, axis=1, out=out[lo:hi])


def _pendulum_solve(
    table: np.ndarray, k_const: float, y_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate v'' = -k sin v + u(t) for the forcings in ``table``'s rows.

    Returns the (n, batch) angle matrix and a per-sample success mask.
    """
    w, s, c, a0, a1, a2 = _blocks(table)
    # Own copies: the integrator moves the rows of its args in place.
    args = (w.copy(), -s, c.copy(), a0.copy(), a1.copy(), a2.copy())
    dt_buf, terms_buf = (np.empty((_FORCING_CHUNK, w.shape[1])) for _ in range(2))
    last_t, forcing = None, None

    def rhs(t, y, w, neg_s, c, a0, a1, a2):
        nonlocal last_t, forcing
        # Compared as bytes, so a time of -0.0 never reuses the sum at 0.0.
        # The rows change only when the batch shrinks, which changes t's length.
        t_bytes = t.tobytes()
        if t_bytes != last_t:
            forcing = np.empty(t.size)
            _gaussian_sums(t, w, neg_s, c, forcing, dt_buf, terms_buf)
            forcing += a0 + t * (a1 + a2 * t)
            last_t = t_bytes
        return np.column_stack([y[:, 1], -k_const * np.sin(y[:, 0]) + forcing])

    values, ok = dopri5_batch(
        rhs, (y_grid[0], y_grid[-1]), np.zeros((len(table), 2)), y_grid, args=args
    )
    return values[:, :, 0].T, ok


# Right-hand sides of cases 3-5 from (u, u', u'') and the case constants.
_RHS = {
    3: lambda u, du, d2u, k: k["nu"] * d2u + k["gamma"] * du + k["zeta"] * u,
    4: lambda u, du, d2u, k: k["nu"] * d2u - u * du,
    5: lambda u, du, d2u, k: k["nu"] * d2u + u - u**3,
}


def _case_rows(case: CaseStudy, rows: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Rows of U (at ``x``) and V (at ``y``) of the functions in ``rows``, and
    which of them succeeded (only the pendulum solve can fail)."""
    same_grid = np.array_equal(x, y)
    u_t, ok = None, np.ones(len(rows), dtype=bool)
    if case.id == 1:
        u_t, v_t = _case1_rows(rows, y, same_grid)
    elif case.id == 2:
        v, ok = _pendulum_solve(rows, case.constants["k"], y)
        v_t = v.T
    else:
        u_t, du, d2u = _derivative_rows(rows, y, 2)
        v_t = _RHS[case.id](u_t, du, d2u, case.constants)
    # On the benchmark grids the sensors are the output points: U is u there.
    if u_t is None or not same_grid:
        u_t = _derivative_rows(rows, x, 0)[0]
    return u_t, v_t, ok


def build_case(case: CaseStudy, with_params: bool = False):
    """Build the aligned dataset for a case study.

    Returns the dataset, or ``(dataset, table)`` when ``with_params`` is
    true (needed by the CSV export): ``table`` is the
    :func:`~randonet.funcgen.sample_params` table of the functions in the
    dataset's columns, with any case-2 replacement draws in place.
    """
    table = sample_params(case.sampling)
    x, y = case.input_grid(), case.output_grid()
    u_t, v_t, ok = _in_row_blocks(lambda rows: _case_rows(case, rows, x, y), table,
                                  f"case {case.id}")
    retries = 0
    max_retries = 100
    while not ok.all():
        failed = np.flatnonzero(~ok)
        if retries + failed.size > max_retries:
            raise RuntimeError(
                f"pendulum integration failed for {failed.size} samples after "
                f"{retries} replacement draws"
            )
        logger.warning(
            "pendulum integrator did not converge for %d sample(s); resampling", failed.size
        )
        replacements = sample_params(
            replace(case.sampling, size=failed.size), start_index=case.sampling.size + retries
        )
        retries += failed.size
        u_t[failed], v_t[failed], ok[failed] = _case_rows(case, replacements, x, y)
        table[failed] = replacements
    ds = AlignedDataset(x=x, y=y, U=u_t.T, V=np.ascontiguousarray(v_t.T))
    return (ds, table) if with_params else ds


def export_dataset_csv(path, case: CaseStudy, ds: AlignedDataset, table) -> None:
    """Write a dataset to CSV, one row per function.

    Column order: the function parameters ``w_0..w_{J-1}, s_0..s_{J-1},
    c_0..c_{J-1}, a0, a1, a2``, then the input samples ``u_0..u_{m-1}`` on
    the input grid, then the output samples ``v_0..v_{n-1}`` on the output
    grid. The parameters are the rows of ``table`` (see
    :func:`build_case`) as they are. A ``#``-prefixed header block records
    the case id, constants, grids, and seed.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# randonet-dataset v{DATASET_CSV_VERSION}\n")
        fh.write(f"# case={case.id} seed={case.sampling.seed} size={case.sampling.size}\n")
        consts = " ".join(f"{k}={v!r}" for k, v in sorted(case.constants.items()))
        fh.write(f"# constants: {consts}\n")
        fh.write("# input_grid: " + " ".join(repr(v) for v in ds.x) + "\n")
        fh.write("# output_grid: " + " ".join(repr(v) for v in ds.y) + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            _param_names(case.sampling.n_terms)
            + [f"u_{j}" for j in range(case.m)]
            + [f"v_{j}" for j in range(case.n)]
        )
        for row in np.hstack([table, ds.U.T, ds.V.T]):
            writer.writerow([f"{v:.17g}" for v in row])
