"""Batched adaptive Dormand-Prince 5(4) integration with dense output.

Integrates a batch of independent small ODE systems that share a time span
and output grid. Every sample carries its own time, step size, and error
control, so the result for one sample is independent of which other
samples are in the batch; the batching only amortizes Python and numpy
overhead across samples that are advanced in lockstep iterations.

The integrator owns the set of samples still being integrated. Their
state sits in the first rows of every state array, in the original
sample order, and so do their rows of the per-sample data ``args`` that
the right-hand side receives: when samples finish or fail, the rows of
the others move up in place. The right-hand side thus reads plain row
prefixes, and they change only when the batch shrinks.

The embedded 4th-order error estimate drives a standard PI-free step
controller (safety 0.9, exponent -1/5, growth clamped to [0.2, 5]); a NaN
estimate shrinks the step by 0.2, so the sample fails by step underflow. The
first-same-as-last property of the pair is exploited, so an accepted step
costs six right-hand-side evaluations. Output values are read from a cubic
Hermite interpolant over each accepted step rather than forcing the
integrator through the output times.
"""

from __future__ import annotations

import numpy as np

from ._checks import finite_array

__all__ = ["dopri5_batch"]

# Dormand & Prince (1980) RK5(4)7M tableau, stages 2 to 6. The seventh
# stage sits at (t + h, y_new): its row of A is _B5, so it is the FSAL
# evaluation of the accepted 5th-order solution.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: weights of the embedded error estimate.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXPONENT = -1.0 / 5.0

# Rows moved per block when finished samples leave the batch.
_COMPACT_CHUNK = 128


def _rms_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(x * x, axis=-1))


def _initial_step(f, t0, y0, f0, rtol, atol, span):
    """Per-sample starting step (Hairer-Norsett-Wanner algorithm)."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-300))
    h0 = np.minimum(h0, span)
    y1 = y0 + h0[:, None] * f0
    f1 = f(t0 + h0, y1)
    d2 = _rms_norm((f1 - f0) / scale) / h0
    dmax = np.maximum(np.maximum(d1, d2), 1e-300)
    h1 = np.where(dmax <= 1e-15, np.maximum(1e-6, h0 * 1e-3), (0.01 / dmax) ** 0.2)
    return np.minimum(100.0 * h0, np.minimum(h1, span))


def _hermite(theta, h, y0, f0, y1, f1):
    """Cubic Hermite interpolant on one step, evaluated at theta in [0, 1]."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return (
        h00[:, None] * y0
        + (h10 * h)[:, None] * f0
        + h01[:, None] * y1
        + (h11 * h)[:, None] * f1
    )


def _compact(arrays, keep) -> None:
    """Move rows ``keep`` of each array to its top, in place and in order.

    ``keep`` is increasing, so ``keep[j] >= j``: a block's destination lies
    below every source row of the blocks after it. Each block moves through
    one temporary of at most ``_COMPACT_CHUNK`` rows.
    """
    for a in arrays:
        for lo in range(0, keep.size, _COMPACT_CHUNK):
            rows = keep[lo : lo + _COMPACT_CHUNK]
            a[lo : lo + rows.size] = a[rows]


def dopri5_batch(
    f,
    t_span: tuple[float, float],
    y0: np.ndarray,
    t_eval: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 1_000_000,
    args: tuple = (),
):
    """Integrate a batch of independent ODE systems.

    Parameters
    ----------
    f : callable
        ``f(t, y, *rows) -> dydt`` with ``t`` of shape (k,), ``y`` of shape
        (k, dim) and ``rows`` the first k rows of each array in ``args``:
        the data of the k samples still being integrated, in their
        original order. The rows change only when k falls. Each step ends
        with the first-same-as-last call at (t + h, y_new), whose ``t``
        repeats the sixth stage's bit for bit (c6 = 1), except on a final
        step clipped to ``t1``, where it is ``t1``.
    t_span : (float, float)
        Common integration interval (t0 < t1) of finite length.
    y0 : ndarray, shape (batch, dim)
        Initial states, real and finite.
    t_eval : ndarray, shape (n_eval,)
        Finite, non-decreasing output times inside ``t_span``.
    rtol, atol : float
        Relative/absolute error tolerances of the embedded estimate: finite,
        >= 0 and not both 0.
    max_steps : int
        Per-sample accepted-plus-rejected step budget, >= 1.
    args : tuple of ndarray
        Per-sample data, one row per sample. The integrator reorders the
        rows of these arrays in place, so pass arrays the caller owns.

    Returns
    -------
    values : ndarray, shape (batch, n_eval, dim)
        Dense-output states at ``t_eval`` (garbage rows for failed samples).
    ok : ndarray of bool, shape (batch,)
        False where the sample hit step underflow or the step budget.

    Raises
    ------
    ValueError
        Before any right-hand-side call, naming the argument, when one
        other than ``f`` breaks its description above.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    if not 0 < span < np.inf:
        raise ValueError(f"t_span must be increasing with a finite length, got {t_span}")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0 <= tol < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {tol}")
    if rtol == atol == 0:
        raise ValueError("rtol and atol must not both be 0")
    if not max_steps >= 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    y0 = np.atleast_2d(finite_array(y0, "y0"))
    batch, dim = y0.shape
    if any(len(a) != batch for a in args):
        raise ValueError(f"every array in args needs one row per sample ({batch})")
    t_eval = finite_array(t_eval, "t_eval")
    if t_eval.size and (t_eval[0] < t0 - 1e-12 * span or t_eval[-1] > t1 + 1e-12 * span):
        raise ValueError("t_eval must lie inside t_span")
    if np.any(np.diff(t_eval) < 0):
        raise ValueError("t_eval must be non-decreasing")
    n_eval = t_eval.size

    values = np.zeros((batch, n_eval, dim))
    ok = np.ones(batch, dtype=bool)
    h_min = 16.0 * np.finfo(np.float64).eps * span

    def f_live(t, y):
        return np.asarray(f(t, y, *(a[: t.size] for a in args)), dtype=np.float64)

    # The state of the live samples sits in the first ``live`` rows, in the
    # original order; sample[i] is the sample of row i.
    t = np.full(batch, t0)
    y = y0.copy()
    k1 = f_live(t, y)
    h = _initial_step(f_live, t, y, k1, rtol, atol, span)
    sample = np.arange(batch)

    # Emit output points that coincide with t0.
    at_start = int(np.count_nonzero(t_eval <= t0 + 1e-12 * span))
    values[:, :at_start, :] = y[:, None, :]
    next_eval = np.full(batch, at_start, dtype=np.int64)
    state = (t, y, k1, h, next_eval, sample) + tuple(args)

    # Every live sample takes one step, accepted or rejected, per pass.
    live = batch if at_start < n_eval else 0
    steps = 0
    while live:
        ta, ya, k1a, pending = t[:live], y[:live], k1[:live], next_eval[:live]
        ha = np.minimum(h[:live], t1 - ta)
        last = ha >= (t1 - ta) - 1e-14 * span

        # Stages k2..k6 (k1 carried over via FSAL); k7 = f(t_new, y_new)
        # is evaluated once and becomes the next step's k1.
        stages = [k1a]
        for stage in range(5):
            incr = sum(coeff * stages[j] for j, coeff in enumerate(_A[stage]))
            ys = ya + ha[:, None] * incr
            ts = ta + _C[stage + 1] * ha
            stages.append(f_live(ts, ys))
        y_new = ya + ha[:, None] * sum(b * k for b, k in zip(_B5[:6], stages))
        t_new = np.where(last, t1, ta + ha)
        k7 = f_live(t_new, y_new)
        stages.append(k7)

        err = ha[:, None] * sum(e * k for e, k in zip(_E, stages))
        scale = atol + rtol * np.maximum(np.abs(ya), np.abs(y_new))
        err_norm = _rms_norm(err / scale)

        accept = err_norm <= 1.0
        with np.errstate(divide="ignore"):
            factor = _SAFETY * err_norm**_ORDER_EXPONENT
        # fmax takes the bound over a NaN: a NaN error shrinks the step.
        factor = np.fmin(np.fmax(factor, _MIN_FACTOR), _MAX_FACTOR)

        # Dense output: emit every pending output time inside an accepted step.
        while True:
            due = accept & (pending < n_eval)
            due[due] = t_eval[pending[due]] <= t_new[due] + 1e-14 * span
            if not due.any():
                break
            sel = np.flatnonzero(due)
            theta = np.clip((t_eval[pending[sel]] - ta[sel]) / ha[sel], 0.0, 1.0)
            interp = _hermite(theta, ha[sel], ya[sel], k1a[sel], y_new[sel], k7[sel])
            values[sample[sel], pending[sel], :] = interp
            pending[sel] += 1

        h[:live] = ha * np.where(accept, factor, np.minimum(factor, 1.0))
        np.copyto(ta, t_new, where=accept)
        np.copyto(ya, y_new, where=accept[:, None])
        np.copyto(k1a, k7, where=accept[:, None])

        steps += 1
        failed = ~(h[:live] >= h_min) | (steps >= max_steps)
        ok[sample[:live][failed]] = False

        running = ta < t1 - 1e-14 * span
        waiting = ~failed & (pending < n_eval)
        # Samples that reached t1 with pending outputs get them from the
        # final state (guards tiny float gaps at the right endpoint).
        for i in np.flatnonzero(waiting & ~running):
            values[sample[i], pending[i]:, :] = ya[i]
        alive = waiting & running
        if not alive.all():
            keep = np.flatnonzero(alive)
            _compact(state, keep)
            live = keep.size

    return values, ok
