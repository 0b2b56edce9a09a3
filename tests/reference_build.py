"""The per-function dataset path, kept as a bitwise reference for the builders.

Every function is drawn with one ``Generator.uniform`` call per parameter
block into its own ``Params``, evaluated with freshly allocated numpy
expressions, and the pendulum forcing gathers list-stacked
(rows x terms) tables on every call. ``problems.build_case`` must give the
same bits.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.special import erf

from randonet.funcgen import _DEGENERATE_SHAPE, DEFAULT_TERMS, _blocks
from randonet.model import AlignedDataset
from randonet.odeint import dopri5_batch


class Params(NamedTuple):
    """The parameters of one function, block by block."""

    w: np.ndarray
    s: np.ndarray
    c: np.ndarray
    a0: float
    a1: float
    a2: float


def draw_one(cfg, index):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))
    w = rng.uniform(cfg.w_range[0], cfg.w_range[1], DEFAULT_TERMS)
    s = rng.uniform(cfg.s_range[0], cfg.s_range[1], DEFAULT_TERMS)
    c = rng.uniform(cfg.c_range[0], cfg.c_range[1], DEFAULT_TERMS)
    a0, a1, a2 = rng.uniform(cfg.a_range[0], cfg.a_range[1], 3)
    return Params(w=w, s=s, c=c, a0=float(a0), a1=float(a1), a2=float(a2))


def draw(cfg, start_index=0):
    return [draw_one(cfg, start_index + i) for i in range(cfg.size)]


def as_table(params):
    return np.stack([np.concatenate([p.w, p.s, p.c, [p.a0, p.a1, p.a2]]) for p in params])


def as_params(table):
    """The functions in the rows of ``table``, one ``Params`` each."""
    return [Params(*_blocks(row)) for row in table]


def eval_u(p, x):
    x = np.asarray(x, dtype=np.float64)
    dx = x[..., None] - p.c
    rbf = np.sum(p.w * np.exp(-p.s * dx * dx), axis=-1)
    return rbf + p.a0 + x * (p.a1 + p.a2 * x)


def u_derivatives(p, x):
    """(u, u', u'') at ``x``, sharing one ``dx`` and one ``exp`` per term."""
    x = np.asarray(x, dtype=np.float64)
    dx = x[..., None] - p.c
    decay = np.exp(-p.s * dx * dx)
    gauss = p.w * decay
    u = np.sum(gauss, axis=-1) + p.a0 + x * (p.a1 + p.a2 * x)
    du = np.sum(-2.0 * p.s * dx * p.w * decay, axis=-1) + p.a1 + 2.0 * p.a2 * x
    d2u = np.sum(gauss * (4.0 * p.s * p.s * dx * dx - 2.0 * p.s), axis=-1) + 2.0 * p.a2
    return u, du, d2u


def eval_antiderivative(p, x, x0=0.0):
    x = np.asarray(x, dtype=np.float64)

    def primitive(t):
        t = np.asarray(t, dtype=np.float64)
        degenerate = p.s < _DEGENERATE_SHAPE
        root = np.sqrt(np.where(degenerate, 1.0, p.s))
        dt = t[..., None] - p.c
        gauss_term = 0.5 * np.sqrt(np.pi) / root * erf(root * dt)
        linear_term = np.broadcast_to(t[..., None], dt.shape)
        terms = np.where(degenerate, linear_term, gauss_term)
        poly = t * (p.a0 + t * (p.a1 / 2.0 + t * p.a2 / 3.0))
        return np.sum(p.w * terms, axis=-1) + poly

    return primitive(x) - primitive(np.float64(x0))


RHS = {
    3: lambda u, du, d2u, k: k["nu"] * d2u + k["gamma"] * du + k["zeta"] * u,
    4: lambda u, du, d2u, k: k["nu"] * d2u - u * du,
    5: lambda u, du, d2u, k: k["nu"] * d2u + u - u**3,
}


def reference_rhs(params, k_const):
    """Pendulum right-hand side from whole-batch numpy expressions that
    gather (rows x terms) copies of w, s and c on every call."""
    w = np.stack([p.w for p in params])
    s = np.stack([p.s for p in params])
    c = np.stack([p.c for p in params])
    a0 = np.array([p.a0 for p in params])
    a1 = np.array([p.a1 for p in params])
    a2 = np.array([p.a2 for p in params])

    def rhs(t, y, idx):
        dt = t[:, None] - c[idx]
        forcing = np.sum(w[idx] * np.exp(-s[idx] * dt * dt), axis=1)
        forcing += a0[idx] + t * (a1[idx] + a2[idx] * t)
        return np.column_stack([y[:, 1], -k_const * np.sin(y[:, 0]) + forcing])

    return rhs


def reference_pendulum_solve(params, k_const, y_grid):
    values, ok = dopri5_batch(
        reference_rhs(params, k_const),
        (y_grid[0], y_grid[-1]),
        np.zeros((len(params), 2)),
        y_grid,
        args=(np.arange(len(params)),),
    )
    return values[:, :, 0].T, ok


def _pendulum_columns(case, params, solve):
    """Case-2 outputs with one-at-a-time replacement draws past ``size``."""
    k_const, y = case.constants["k"], case.output_grid()
    v_mat, ok = solve(params, k_const, y)
    retries = 0
    while not ok.all():
        failed = np.flatnonzero(~ok)
        replacements = [
            draw_one(replace(case.sampling, size=1), case.sampling.size + retries + j)
            for j in range(failed.size)
        ]
        retries += failed.size
        v_new, ok_new = solve(replacements, k_const, y)
        for slot, p_new, col, good in zip(failed, replacements, v_new.T, ok_new):
            params[slot] = p_new
            v_mat[:, slot] = col
            ok[slot] = good
    return np.column_stack(list(v_mat.T))


def build(case, solve=reference_pendulum_solve):
    """``(dataset, table)`` of ``case`` built function by function."""
    params = draw(case.sampling)
    x, y = case.input_grid(), case.output_grid()
    if case.id == 1:
        V = np.column_stack([eval_antiderivative(p, y, x0=0.0) for p in params])
    elif case.id == 2:
        V = _pendulum_columns(case, params, solve)
    else:
        V = np.column_stack([RHS[case.id](*u_derivatives(p, y), case.constants) for p in params])
    U = np.column_stack([eval_u(p, x) for p in params])
    return AlignedDataset(x=x, y=y, U=U, V=V), as_table(params)
