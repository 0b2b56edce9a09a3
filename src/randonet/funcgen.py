"""Random analytic input functions and exact calculus on them.

An input function is a 200-term Gaussian radial-basis mixture plus a
quadratic polynomial,

    u(x) = sum_j w_j * exp(-s_j * (x - c_j)^2) + a0 + a1*x + a2*x^2,

with all parameters drawn i.i.d. uniform from per-case ranges. Values,
first and second derivatives, and the antiderivative are evaluated in
closed form (the antiderivative through ``erf``), so dataset targets carry
no discretization error. ``erf`` comes from ``scipy.special``, which is
imported with the first antiderivative, so only a process that builds
case 1 or calls :func:`eval_antiderivative` loads it (about 0.24 s and
17 MB in a fresh process, 3.5 MB once ``scipy.linalg`` is loaded).

A function is one row of 3J + 3 parameters laid out as the CSV's columns
(``w_0..w_{J-1}, s_.., c_.., a0, a1, a2``); only this module knows that
layout. Table row i is one ``random(3J + 3)`` call on stream
``SeedSequence((seed, i))``, so samples can be drawn in parallel; each
block is then scaled in place to ``lo + (hi - lo) * draw``, the values
``Generator.uniform`` gives drawing w, s, c, then (a0, a1, a2). Builds
and the evaluators (which take one row) run the same kernels, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_count, check_seed, finite_array, real_array

__all__ = [
    "DEFAULT_TERMS",
    "CaseSamplingConfig",
    "sample_params",
    "eval_u",
    "eval_du",
    "eval_d2u",
    "eval_antiderivative",
]

DEFAULT_TERMS = 200

# Below this the RBF term is evaluated by its s -> 0 limit (constant w in
# u, slope w in the antiderivative) to avoid 0/0 in the erf form.
_DEGENERATE_SHAPE = 1e-12


def _blocks(table: np.ndarray):
    """w, s, c (views) and a0, a1, a2 (scalars of a row, columns of a table)."""
    j = (table.shape[-1] - 3) // 3
    return (table[..., :j], table[..., j : 2 * j], table[..., 2 * j : 3 * j],
            *table[..., 3 * j :].T)


def _param_names(n_terms: int) -> list[str]:
    """Names of a row's values, in order (the CSV's parameter columns)."""
    return [f"{name}_{j}" for name in "wsc" for j in range(n_terms)] + ["a0", "a1", "a2"]


def _checked_row(row) -> np.ndarray:
    """``row`` as float64; ``ValueError`` unless it is one finite real row of
    3J + 3 values (J >= 1) with every s >= 0."""
    row = real_array(row, "row")
    if row.ndim != 1 or row.size < 6 or row.size % 3:
        raise ValueError(f"a parameter row is 1-D with 3J + 3 values (J >= 1), got {row.shape}")
    if not np.all(np.isfinite(row)) or np.any(_blocks(row)[1] < 0):
        raise ValueError("parameters must be finite with shape parameters s >= 0")
    return row


@dataclass(frozen=True)
class CaseSamplingConfig:
    """Uniform sampling ranges for one case study's function dataset.

    ``a_range`` applies to each of a0, a1, a2. ``domain`` is the interval
    the functions are evaluated on (the grids of the dataset builders).
    Every drawn function has :data:`DEFAULT_TERMS` Gaussian terms.
    """

    w_range: tuple[float, float]
    s_range: tuple[float, float]
    c_range: tuple[float, float]
    a_range: tuple[float, float]
    domain: tuple[float, float]
    size: int
    seed: int = 0

    def __post_init__(self):
        for name in ("w_range", "s_range", "c_range", "a_range"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(hi - lo) and lo <= hi):
                raise ValueError(f"{name} needs low <= high and a finite width, got ({lo}, {hi})")
        if self.s_range[0] < 0:
            raise ValueError(f"s_range must have a lower bound >= 0, got {self.s_range}")
        if not (np.all(np.isfinite(self.domain)) and self.domain[0] < self.domain[1]):
            raise ValueError(f"domain must be finite with a < b, got {self.domain}")
        object.__setattr__(self, "size", check_count(self.size, "size"))
        object.__setattr__(self, "seed", check_seed(self.seed, "seed"))


def sample_params(cfg: CaseSamplingConfig, start_index: int = 0) -> np.ndarray:
    """Draw the (``cfg.size``, 3 :data:`DEFAULT_TERMS` + 3) parameter table; row i
    comes from stream ``start_index + i`` (builders draw replacements
    deterministically from indices past ``cfg.size``)."""
    start_index = check_count(start_index, "start_index", minimum=0)
    table = np.empty((cfg.size, 3 * DEFAULT_TERMS + 3))
    for i, row in enumerate(table):
        np.random.default_rng(np.random.SeedSequence((cfg.seed, start_index + i))).random(out=row)
    ranges = (cfg.w_range, cfg.s_range, cfg.c_range, *[cfg.a_range] * 3)
    for block, (lo, hi) in zip(_blocks(table), ranges):
        block *= hi - lo
        block += lo
    return table


def _derivatives(row, x, dx, ws, out) -> None:
    """Write u, u', u'' (as many as ``out`` has rows) at the 1-D points ``x``.

    ``dx`` holds ``x - c``; ``ws`` holds one buffer of its shape for u alone,
    three with derivatives. Terms run in the order of ``w exp(-s dx dx)``,
    ``-2 s dx w exp(..)`` and ``w exp(..) (4 s s dx dx - 2 s)``.
    """
    w, s, _, a0, a1, a2 = _blocks(row)
    decay = np.multiply(-s, dx, out=ws[0])
    decay *= dx
    np.exp(decay, out=decay)
    gauss = np.multiply(w, decay, out=ws[1] if len(out) > 1 else decay)
    np.add.reduce(gauss, axis=1, out=out[0])
    out[0] += a0
    out[0] += x * (a1 + a2 * x)
    if len(out) > 1:
        terms = np.multiply(-2.0 * s, dx, out=ws[2])
        terms *= w
        terms *= decay
        np.add.reduce(terms, axis=1, out=out[1])
        out[1] += a1
        out[1] += 2.0 * a2 * x
    if len(out) > 2:
        np.multiply(4.0 * s * s, dx, out=terms)
        terms *= dx
        terms -= 2.0 * s
        terms *= gauss
        np.add.reduce(terms, axis=1, out=out[2])
        out[2] += 2.0 * a2


def _primitive(row, t, dx, terms, out) -> None:
    """Write a primitive of u (see :func:`eval_antiderivative`) at the 1-D
    points ``t`` to ``out``; ``dx`` holds ``t - c``, ``terms`` is its size."""
    from scipy.special import erf

    w, s, _, a0, a1, a2 = _blocks(row)
    degenerate = s < _DEGENERATE_SHAPE
    root = np.sqrt(np.where(degenerate, 1.0, s))
    np.multiply(root, dx, out=terms)
    erf(terms, out=terms)
    terms *= 0.5 * np.sqrt(np.pi) / root
    if degenerate.any():
        terms[:, degenerate] = t[:, None]
    terms *= w
    np.add.reduce(terms, axis=1, out=out)
    out += t * (a0 + t * (a1 / 2.0 + t * a2 / 3.0))


def _evaluate(row, x, order: int) -> np.ndarray:
    row, x = _checked_row(row), finite_array(x, "x")
    dx = np.subtract(x.reshape(-1, 1), _blocks(row)[2])
    out = np.empty((order + 1, x.size))
    _derivatives(row, x.reshape(-1), dx, np.empty((3 if order else 1,) + dx.shape), out)
    return out[order].reshape(x.shape)[()]


def eval_u(row, x) -> np.ndarray:
    """Evaluate u(x) of one table row; ``x`` may be a scalar or an array."""
    return _evaluate(row, x, 0)


def eval_du(row, x) -> np.ndarray:
    """Evaluate u'(x)."""
    return _evaluate(row, x, 1)


def eval_d2u(row, x) -> np.ndarray:
    """Evaluate u''(x)."""
    return _evaluate(row, x, 2)


def eval_antiderivative(row, x, x0: float = 0.0) -> np.ndarray:
    """Evaluate the antiderivative V(x) - V(x0) of u.

    Each RBF term integrates to ``w * sqrt(pi) / (2 sqrt(s)) * erf(sqrt(s)
    (x - c))``; terms with ``s`` below ``1e-12`` use the limiting slope
    ``w * x``. ``x0`` is evaluated as one more point of the same pass; it
    must be a scalar.
    """
    row, x, x0 = _checked_row(row), finite_array(x, "x"), finite_array(x0, "x0")
    if x0.ndim != 0:
        raise ValueError(f"x0 must be a scalar, got shape {x0.shape}")
    t = np.append(x.reshape(-1), x0)
    dx = np.subtract(t[:, None], _blocks(row)[2])
    out = np.empty(t.size)
    _primitive(row, t, dx, np.empty_like(dx), out)
    return (out[:-1] - out[-1]).reshape(x.shape)[()]
