"""Random analytic input functions and exact calculus on them.

An input function is a 200-term Gaussian radial-basis mixture plus a
quadratic polynomial,

    u(x) = sum_j w_j * exp(-s_j * (x - c_j)^2) + a0 + a1*x + a2*x^2,

with all parameters drawn i.i.d. uniform from per-case ranges. Values,
first and second derivatives, and the antiderivative are evaluated in
closed form (the antiderivative through ``erf``), so dataset targets carry
no discretization error.

Sampling derives one RNG stream per function from ``(seed, index)`` via
``SeedSequence``, so generation can be parallelized over samples without
changing the output. Within a stream the draw order is w, s, c, then
(a0, a1, a2).
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
        w = np.asarray(self.w, dtype=np.float64)
        s = np.asarray(self.s, dtype=np.float64)
        c = np.asarray(self.c, dtype=np.float64)
        if not (w.shape == s.shape == c.shape and w.ndim == 1):
            raise ValueError(
                f"w, s, c must be equal-length 1-D arrays, got {w.shape}, {s.shape}, {c.shape}"
            )
        for name, arr in (("w", w), ("s", s), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(s < 0):
            raise ValueError("shape parameters s must be >= 0")
        if not all(np.isfinite(v) for v in (self.a0, self.a1, self.a2)):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c", c)


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
            if not lo <= hi:
                raise ValueError(f"{name} must satisfy low <= high, got ({lo}, {hi})")
        if not self.domain[0] < self.domain[1]:
            raise ValueError(f"domain must satisfy a < b, got {self.domain}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")


def _draw_one(cfg: CaseSamplingConfig, index: int) -> RandomFunctionParams:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))
    w = rng.uniform(cfg.w_range[0], cfg.w_range[1], cfg.n_terms)
    s = rng.uniform(cfg.s_range[0], cfg.s_range[1], cfg.n_terms)
    c = rng.uniform(cfg.c_range[0], cfg.c_range[1], cfg.n_terms)
    a0, a1, a2 = rng.uniform(cfg.a_range[0], cfg.a_range[1], 3)
    return RandomFunctionParams(w=w, s=s, c=c, a0=float(a0), a1=float(a1), a2=float(a2))


def sample_params(cfg: CaseSamplingConfig, start_index: int = 0) -> list[RandomFunctionParams]:
    """Draw ``cfg.size`` function parameter sets.

    ``start_index`` shifts the per-sample stream indices; dataset builders
    use indices past ``cfg.size`` to draw replacements deterministically.
    """
    return [_draw_one(cfg, start_index + i) for i in range(cfg.size)]


def eval_u(p: RandomFunctionParams, x) -> np.ndarray:
    """Evaluate u(x); ``x`` may be a scalar or an array."""
    x = np.asarray(x, dtype=np.float64)
    dx = x[..., None] - p.c
    rbf = np.sum(p.w * np.exp(-p.s * dx * dx), axis=-1)
    return rbf + p.a0 + x * (p.a1 + p.a2 * x)


def eval_du(p: RandomFunctionParams, x) -> np.ndarray:
    """Evaluate u'(x)."""
    x = np.asarray(x, dtype=np.float64)
    dx = x[..., None] - p.c
    rbf = np.sum(-2.0 * p.s * dx * p.w * np.exp(-p.s * dx * dx), axis=-1)
    return rbf + p.a1 + 2.0 * p.a2 * x


def eval_d2u(p: RandomFunctionParams, x) -> np.ndarray:
    """Evaluate u''(x)."""
    x = np.asarray(x, dtype=np.float64)
    dx = x[..., None] - p.c
    gauss = p.w * np.exp(-p.s * dx * dx)
    rbf = np.sum(gauss * (4.0 * p.s * p.s * dx * dx - 2.0 * p.s), axis=-1)
    return rbf + 2.0 * p.a2


def _u_derivatives(p: RandomFunctionParams, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, u', u'') at ``x``, sharing one ``dx`` and one ``exp`` per term.

    Uses the expressions of :func:`eval_u`, :func:`eval_du` and
    :func:`eval_d2u` in the same operation order, so each result equals its
    public evaluator's bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    dx = x[..., None] - p.c
    decay = np.exp(-p.s * dx * dx)
    gauss = p.w * decay
    u = np.sum(gauss, axis=-1) + p.a0 + x * (p.a1 + p.a2 * x)
    du = np.sum(-2.0 * p.s * dx * p.w * decay, axis=-1) + p.a1 + 2.0 * p.a2 * x
    d2u = np.sum(gauss * (4.0 * p.s * p.s * dx * dx - 2.0 * p.s), axis=-1) + 2.0 * p.a2
    return u, du, d2u


def eval_antiderivative(p: RandomFunctionParams, x, x0: float = 0.0) -> np.ndarray:
    """Evaluate the antiderivative V(x) - V(x0) of u.

    Each RBF term integrates to ``w * sqrt(pi) / (2 sqrt(s)) * erf(sqrt(s)
    (x - c))``; terms with ``s`` below ``1e-12`` use the limiting slope
    ``w * x``.
    """
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
