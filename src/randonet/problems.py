"""The five benchmark operators and their aligned dataset builders.

Case 1 maps a function to its antiderivative on [0, 1]; case 2 maps a
forcing term to the resulting pendulum angle (single zero initial
condition, gravity constant 9.81); cases 3-5 map a state profile on
[-1, 1] to the right-hand side of a linear diffusion-advection-reaction
PDE, the viscous Burgers PDE, and the Allen-Cahn PDE respectively.

Each builder samples input functions (see :mod:`randonet.funcgen`),
evaluates them on an equispaced 100-point sensor grid, and computes the
output columns analytically -- except case 2, where the pendulum ODE is
integrated with an adaptive Dormand-Prince 5(4) scheme at tight
tolerances and the forcing is evaluated analytically inside the
integrator (the sensor grid is only the network's view of u).

The pendulum forcing keeps the parameter rows of the samples still being
integrated contiguous at the top of its tables: when the integrator drops
samples, the remaining rows move down in place, so every pass reads plain
row slices. It walks the rows in chunks of ``_FORCING_CHUNK`` rows through
two scratch buffers allocated once per solve, so a right-hand-side call
allocates no (rows x terms) array. The forcing depends on t alone, and
Dormand-Prince evaluates its last stage and the first-same-as-last stage at
the same t, so a call whose samples and times equal the previous call's
bit for bit reuses that call's forcing. Each row's terms go through the
same operations in the same order as a whole-batch evaluation, so none of
this changes an output bit. Cases 3-5 evaluate u, u' and u'' of a function
from one shared exponential, again bit for bit equal to the separate
evaluators.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace

import numpy as np

from .funcgen import (
    CaseSamplingConfig,
    RandomFunctionParams,
    _u_derivatives,
    eval_antiderivative,
    eval_u,
    sample_params,
)
from .model import AlignedDataset
from .odeint import dopri5_batch

__all__ = [
    "ODESolverConfig",
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


@dataclass(frozen=True)
class ODESolverConfig:
    """Adaptive Dormand-Prince 5(4) settings for the pendulum ground truth."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


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


def _input_matrix(params: list[RandomFunctionParams], x: np.ndarray) -> np.ndarray:
    return np.column_stack([eval_u(p, x) for p in params])


def _assemble(case: CaseStudy, params, v_columns) -> AlignedDataset:
    x = case.input_grid()
    y = case.output_grid()
    return AlignedDataset(x=x, y=y, U=_input_matrix(params, x), V=np.column_stack(v_columns))


def _case1_full(case: CaseStudy) -> tuple[AlignedDataset, list[RandomFunctionParams]]:
    params = sample_params(case.sampling)
    y = case.output_grid()
    v_cols = [eval_antiderivative(p, y, x0=0.0) for p in params]
    return _assemble(case, params, v_cols), params


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


def _keep_rows(tables, rows, scratch):
    """Move ``rows`` of each table to its top, in place and in order.

    ``rows`` must be increasing, so ``rows[j] >= j``: a block's
    destination lies below every source row of the blocks after it. Each
    block passes through ``scratch`` (``_FORCING_CHUNK`` rows).
    """
    for table in tables:
        for lo in range(0, rows.size, _FORCING_CHUNK):
            hi = min(lo + _FORCING_CHUNK, rows.size)
            block = scratch[: hi - lo]
            np.take(table, rows[lo:hi], axis=0, out=block, mode="clip")
            table[lo:hi] = block


def _pendulum_solve(
    params: list[RandomFunctionParams],
    k_const: float,
    y_grid: np.ndarray,
    ode: ODESolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate v'' = -k sin v + u(t) for a batch of forcings.

    Returns the (n, batch) angle matrix and a per-sample success mask.
    """
    w = np.stack([p.w for p in params])
    neg_s = -np.stack([p.s for p in params])
    c = np.stack([p.c for p in params])
    a0 = np.array([p.a0 for p in params])
    a1 = np.array([p.a1 for p in params])
    a2 = np.array([p.a2 for p in params])
    dt_buf, terms_buf = (np.empty((_FORCING_CHUNK, w.shape[1])) for _ in range(2))
    # live[i] is the sample whose parameters sit in row i of w, neg_s and
    # c; slot maps a sample to that row, or to -1 once it was dropped.
    live = np.arange(len(params))
    slot = live.copy()
    last_t, forcing = None, None

    def rhs(t, y, idx):
        nonlocal live, last_t, forcing
        if not np.array_equal(idx, live):
            rows = slot[idx]
            if not (np.all(rows >= 0) and np.all(np.diff(rows) > 0)):
                raise ValueError(
                    "pendulum forcing: idx must list, in increasing order, samples "
                    "not dropped by an earlier call (the active set never grows)"
                )
            _keep_rows((w, neg_s, c), rows, dt_buf)
            slot[live] = -1
            slot[idx] = np.arange(idx.size)
            live = idx.copy()
            last_t = None
        # Compared as bytes, so a time of -0.0 never reuses the sum at 0.0.
        t_bytes = t.tobytes()
        if t_bytes != last_t:
            forcing = np.empty(idx.size)
            _gaussian_sums(t, w, neg_s, c, forcing, dt_buf, terms_buf)
            forcing += a0[idx] + t * (a1[idx] + a2[idx] * t)
            last_t = t_bytes
        return np.column_stack([y[:, 1], -k_const * np.sin(y[:, 0]) + forcing])

    y0 = np.zeros((len(params), 2))
    values, ok = dopri5_batch(
        rhs,
        (y_grid[0], y_grid[-1]),
        y0,
        y_grid,
        rtol=ode.rel_tol,
        atol=ode.abs_tol,
        max_steps=ode.max_steps,
    )
    return values[:, :, 0].T, ok


def _case2_full(
    case: CaseStudy, ode: ODESolverConfig
) -> tuple[AlignedDataset, list[RandomFunctionParams]]:
    params = sample_params(case.sampling)
    k_const = case.constants["k"]
    y = case.output_grid()
    v_mat, ok = _pendulum_solve(params, k_const, y, ode)
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
        replacements = [
            sample_params(replace(case.sampling, size=1), start_index=case.sampling.size + retries + j)[0]
            for j in range(failed.size)
        ]
        retries += failed.size
        v_new, ok_new = _pendulum_solve(replacements, k_const, y, ode)
        for slot, p_new, col, good in zip(failed, replacements, v_new.T, ok_new):
            params[slot] = p_new
            v_mat[:, slot] = col
            ok[slot] = good
    return _assemble(case, params, list(v_mat.T)), params


def _rhs_case3(u, du, d2u, constants):
    return constants["nu"] * d2u + constants["gamma"] * du + constants["zeta"] * u


def _rhs_case4(u, du, d2u, constants):
    return constants["nu"] * d2u - u * du


def _rhs_case5(u, du, d2u, constants):
    return constants["nu"] * d2u + u - u**3


def _build_rhs_case(case: CaseStudy, rhs) -> tuple[AlignedDataset, list[RandomFunctionParams]]:
    params = sample_params(case.sampling)
    x = case.input_grid()
    y = case.output_grid()
    # On the benchmark grids the sensors are the output points, so the u
    # evaluated for V is also the U column.
    same_grid = np.array_equal(x, y)
    U = np.empty((x.size, len(params)))
    V = np.empty((y.size, len(params)))
    for j, p in enumerate(params):
        u, du, d2u = _u_derivatives(p, y)
        U[:, j] = u if same_grid else eval_u(p, x)
        V[:, j] = rhs(u, du, d2u, case.constants)
    return AlignedDataset(x=x, y=y, U=U, V=V), params


def build_case(
    case: CaseStudy, with_params: bool = False, ode: ODESolverConfig | None = None
):
    """Build the aligned dataset for a case study.

    Returns the dataset, or ``(dataset, params)`` when ``with_params`` is
    true (needed by the CSV export). ``ode`` sets the case-2 integrator.
    """
    if case.id == 1:
        result = _case1_full(case)
    elif case.id == 2:
        result = _case2_full(case, ode or ODESolverConfig())
    else:
        result = _build_rhs_case(case, {3: _rhs_case3, 4: _rhs_case4, 5: _rhs_case5}[case.id])
    return result if with_params else result[0]


def export_dataset_csv(path, case: CaseStudy, ds: AlignedDataset, params) -> None:
    """Write a dataset to CSV, one row per function.

    Column order: the function parameters ``w_0..w_{J-1}, s_0..s_{J-1},
    c_0..c_{J-1}, a0, a1, a2``, then the input samples ``u_0..u_{m-1}`` on
    the input grid, then the output samples ``v_0..v_{n-1}`` on the output
    grid. A ``#``-prefixed header block records the case id, constants,
    grids, and seed.
    """
    n_terms = case.sampling.n_terms
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# randonet-dataset v{DATASET_CSV_VERSION}\n")
        fh.write(f"# case={case.id} seed={case.sampling.seed} size={case.sampling.size}\n")
        consts = " ".join(f"{k}={v!r}" for k, v in sorted(case.constants.items()))
        fh.write(f"# constants: {consts}\n")
        fh.write("# input_grid: " + " ".join(repr(v) for v in ds.x) + "\n")
        fh.write("# output_grid: " + " ".join(repr(v) for v in ds.y) + "\n")
        writer = csv.writer(fh)
        header = (
            [f"w_{j}" for j in range(n_terms)]
            + [f"s_{j}" for j in range(n_terms)]
            + [f"c_{j}" for j in range(n_terms)]
            + ["a0", "a1", "a2"]
            + [f"u_{j}" for j in range(case.m)]
            + [f"v_{j}" for j in range(case.n)]
        )
        writer.writerow(header)
        for i, p in enumerate(params):
            row = np.concatenate([p.w, p.s, p.c, [p.a0, p.a1, p.a2], ds.U[:, i], ds.V[:, i]])
            writer.writerow([f"{v:.17g}" for v in row])
