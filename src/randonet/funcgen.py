"""Random analytic input functions and exact calculus on them.

An input function is a 200-term Gaussian radial-basis mixture plus a
quadratic polynomial,

    u(x) = sum_j w_j * exp(-s_j * (x - c_j)^2) + a0 + a1*x + a2*x^2,

with all parameters drawn i.i.d. uniform from per-case ranges. Values,
first and second derivatives, and the antiderivative are evaluated in
closed form (the antiderivative through ``erf``), so dataset targets carry
no discretization error.

A dataset's parameters form one table laid out as the CSV's parameter
columns (``w_0..w_{J-1}, s_.., c_.., a0, a1, a2``). Row i is one
``random(3J + 3)`` call on stream ``SeedSequence((seed, i))``, so samples
can be drawn in parallel; each block is then scaled in place to
``lo + (hi - lo) * draw``, the values ``Generator.uniform`` gives drawing
w, s, c, then (a0, a1, a2). Builds and the public evaluators run the same
kernels, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

__all__ = [
    "DEFAULT_TERMS",
    "RandomFunctionParams",
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


def _blocks(row: np.ndarray):
    """Views of w, s and c and the scalars a0, a1, a2 of one table row."""
    j = (row.size - 3) // 3
    return (row[:j], row[j : 2 * j], row[2 * j : 3 * j], *row[3 * j :])


@dataclass(frozen=True)
class RandomFunctionParams:
    """Parameters of one analytic input function."""

    w: np.ndarray
    s: np.ndarray
    c: np.ndarray
    a0: float
    a1: float
    a2: float

    def __post_init__(self):
        w, s, c = (np.asarray(v, dtype=np.float64) for v in (self.w, self.s, self.c))
        if not (w.shape == s.shape == c.shape and w.ndim == 1):
            raise ValueError(
                f"w, s, c must be equal-length 1-D arrays, got {w.shape}, {s.shape}, {c.shape}"
            )
        for name, arr in (("w", w), ("s", s), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if np.any(s < 0):
            raise ValueError("shape parameters s must be >= 0")
        if not all(np.isfinite(v) for v in (self.a0, self.a1, self.a2)):
            raise ValueError("polynomial coefficients must be finite")

    @classmethod
    def from_row(cls, row) -> RandomFunctionParams:
        """The function in one row of a :func:`sample_params` table."""
        return cls(*_blocks(np.asarray(row, dtype=np.float64)))

    @property
    def row(self) -> np.ndarray:
        """The parameters as one :func:`sample_params` table row."""
        return np.concatenate([self.w, self.s, self.c, [self.a0, self.a1, self.a2]])


@dataclass(frozen=True)
class CaseSamplingConfig:
    """Uniform sampling ranges for one case study's function dataset.

    ``a_range`` applies to each of a0, a1, a2. ``domain`` is the interval
    the functions are evaluated on (the grids of the dataset builders).
    """

    w_range: tuple[float, float]
    s_range: tuple[float, float]
    c_range: tuple[float, float]
    a_range: tuple[float, float]
    domain: tuple[float, float]
    size: int
    seed: int = 0
    n_terms: int = DEFAULT_TERMS

    def __post_init__(self):
        for name in ("w_range", "s_range", "c_range", "a_range"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(hi - lo) and lo <= hi):
                raise ValueError(f"{name} needs low <= high and a finite width, got ({lo}, {hi})")
        if self.s_range[0] < 0:
            raise ValueError(f"s_range must have a lower bound >= 0, got {self.s_range}")
        if not (np.all(np.isfinite(self.domain)) and self.domain[0] < self.domain[1]):
            raise ValueError(f"domain must be finite with a < b, got {self.domain}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")


def sample_params(cfg: CaseSamplingConfig, start_index: int = 0) -> np.ndarray:
    """Draw the (``cfg.size``, 3 ``n_terms`` + 3) parameter table; row i
    comes from stream ``start_index + i`` (builders draw replacements
    deterministically from indices past ``cfg.size``)."""
    j = cfg.n_terms
    table = np.empty((cfg.size, 3 * j + 3))
    for i, row in enumerate(table):
        np.random.default_rng(np.random.SeedSequence((cfg.seed, start_index + i))).random(out=row)
    for k, (lo, hi) in enumerate((cfg.w_range, cfg.s_range, cfg.c_range, cfg.a_range)):
        block = table[:, k * j : (k + 1) * j if k < 3 else None]
        block *= hi - lo
        block += lo
    if not np.all(np.isfinite(table)) or np.any(table[:, j : 2 * j] < 0):
        raise ValueError("sampled parameters must be finite with shape parameters s >= 0")
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


def _evaluate(p: RandomFunctionParams, x, order: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    dx = np.subtract(x.reshape(-1, 1), p.c)
    out = np.empty((order + 1, x.size))
    _derivatives(p.row, x.reshape(-1), dx, np.empty((3 if order else 1,) + dx.shape), out)
    return out[order].reshape(x.shape)[()]


def eval_u(p: RandomFunctionParams, x) -> np.ndarray:
    """Evaluate u(x); ``x`` may be a scalar or an array."""
    return _evaluate(p, x, 0)


def eval_du(p: RandomFunctionParams, x) -> np.ndarray:
    """Evaluate u'(x)."""
    return _evaluate(p, x, 1)


def eval_d2u(p: RandomFunctionParams, x) -> np.ndarray:
    """Evaluate u''(x)."""
    return _evaluate(p, x, 2)


def eval_antiderivative(p: RandomFunctionParams, x, x0: float = 0.0) -> np.ndarray:
    """Evaluate the antiderivative V(x) - V(x0) of u.

    Each RBF term integrates to ``w * sqrt(pi) / (2 sqrt(s)) * erf(sqrt(s)
    (x - c))``; terms with ``s`` below ``1e-12`` use the limiting slope
    ``w * x``. ``x0`` is evaluated as one more point of the same pass.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.append(x.reshape(-1), x0)
    dx = np.subtract(t[:, None], p.c)
    out = np.empty(t.size)
    _primitive(p.row, t, dx, np.empty_like(dx), out)
    return (out[:-1] - out[-1]).reshape(x.shape)[()]
