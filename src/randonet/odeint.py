"""Batched adaptive Dormand-Prince 5(4) integration with dense output.

Integrates a batch of independent small ODE systems that share a time span
and output grid. Every sample carries its own time, step size, and error
control, so the result for one sample is independent of which other
samples are in the batch; the batching only amortizes Python and numpy
overhead across samples that are advanced in lockstep iterations.

The embedded 4th-order error estimate drives a standard PI-free step
controller (safety 0.9, exponent -1/5, growth clamped to [0.2, 5]). The
first-same-as-last property of the pair is exploited, so an accepted step
costs six right-hand-side evaluations. Output values are read from a cubic
Hermite interpolant over each accepted step rather than forcing the
integrator through the output times.
"""

from __future__ import annotations

import numpy as np

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


def dopri5_batch(
    f,
    t_span: tuple[float, float],
    y0: np.ndarray,
    t_eval: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = 1_000_000,
):
    """Integrate a batch of independent ODE systems.

    Parameters
    ----------
    f : callable
        ``f(t, y, idx) -> dydt`` with ``t`` of shape (k,), ``y`` of shape
        (k, dim) and ``idx`` the (k,) indices of the samples being
        evaluated, so sample-specific data can be gathered. ``idx`` is
        increasing, and the active set it names never grows: a sample
        that finished or failed is not passed again. Each step ends with
        the first-same-as-last call at (t + h, y_new), whose ``t`` repeats
        the sixth stage's bit for bit (c6 = 1), except on a final step
        clipped to ``t1``, where it is ``t1``.
    t_span : (float, float)
        Common integration interval (t0 < t1).
    y0 : ndarray, shape (batch, dim)
        Initial states.
    t_eval : ndarray, shape (n_eval,)
        Non-decreasing output times inside ``t_span``.
    rtol, atol : float
        Relative/absolute error tolerances of the embedded estimate.
    max_steps : int
        Per-sample accepted-plus-rejected step budget.

    Returns
    -------
    values : ndarray, shape (batch, n_eval, dim)
        Dense-output states at ``t_eval`` (garbage rows for failed samples).
    ok : ndarray of bool, shape (batch,)
        False where the sample hit step underflow or the step budget.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    if span <= 0:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    y0 = np.atleast_2d(np.asarray(y0, dtype=np.float64))
    batch, dim = y0.shape
    t_eval = np.asarray(t_eval, dtype=np.float64)
    if t_eval.size and (t_eval[0] < t0 - 1e-12 * span or t_eval[-1] > t1 + 1e-12 * span):
        raise ValueError("t_eval must lie inside t_span")
    n_eval = t_eval.size

    values = np.zeros((batch, n_eval, dim))
    ok = np.ones(batch, dtype=bool)
    h_min = 16.0 * np.finfo(np.float64).eps * span

    def f_all(t, y, idx):
        return np.asarray(f(t, y, idx), dtype=np.float64)

    idx = np.arange(batch)
    t = np.full(batch, t0)
    y = y0.copy()
    k1 = f_all(t, y, idx)
    h = _initial_step(lambda tt, yy: f_all(tt, yy, idx), t, y, k1, rtol, atol, span)
    next_eval = np.zeros(batch, dtype=np.int64)
    steps = np.zeros(batch, dtype=np.int64)

    # Emit output points that coincide with t0.
    at_start = t_eval <= t0 + 1e-12 * span
    if at_start.any():
        values[:, at_start, :] = y[:, None, :]
        next_eval[:] = int(np.count_nonzero(at_start))

    active = idx[next_eval < n_eval] if n_eval else np.empty(0, dtype=np.int64)
    while active.size:
        ta = t[active]
        ya = y[active]
        k1a = k1[active]
        ha = np.minimum(h[active], t1 - ta)
        last = ha >= (t1 - ta) - 1e-14 * span

        # Stages k2..k6 (k1 carried over via FSAL); k7 = f(t_new, y_new)
        # is evaluated once and becomes the next step's k1.
        stages = [k1a]
        for stage in range(5):
            incr = sum(coeff * stages[j] for j, coeff in enumerate(_A[stage]))
            ys = ya + ha[:, None] * incr
            ts = ta + _C[stage + 1] * ha
            stages.append(f_all(ts, ys, active))
        y_new = ya + ha[:, None] * sum(b * k for b, k in zip(_B5[:6], stages))
        t_new = np.where(last, t1, ta + ha)
        k7 = f_all(t_new, y_new, active)
        stages.append(k7)

        err = ha[:, None] * sum(e * k for e, k in zip(_E, stages))
        scale = atol + rtol * np.maximum(np.abs(ya), np.abs(y_new))
        err_norm = _rms_norm(err / scale)

        accept = err_norm <= 1.0
        with np.errstate(divide="ignore"):
            factor = _SAFETY * err_norm**_ORDER_EXPONENT
        factor = np.clip(np.where(np.isfinite(factor), factor, _MAX_FACTOR), _MIN_FACTOR, _MAX_FACTOR)

        acc_idx = active[accept]
        if acc_idx.size:
            # Dense output: emit every pending output time inside the step.
            t_prev = ta[accept]
            h_acc = ha[accept]
            y_prev = ya[accept]
            f_prev = k1a[accept]
            y_next = y_new[accept]
            f_next = k7[accept]
            t_next = t_new[accept]
            pending = next_eval[acc_idx]
            while True:
                has_more = pending < n_eval
                due = has_more.copy()
                due[has_more] = t_eval[pending[has_more]] <= t_next[has_more] + 1e-14 * span
                if not due.any():
                    break
                sel = np.flatnonzero(due)
                theta = (t_eval[pending[sel]] - t_prev[sel]) / h_acc[sel]
                theta = np.clip(theta, 0.0, 1.0)
                interp = _hermite(theta, h_acc[sel], y_prev[sel], f_prev[sel], y_next[sel], f_next[sel])
                values[acc_idx[sel], pending[sel], :] = interp
                pending[sel] += 1
            next_eval[acc_idx] = pending

            t[acc_idx] = t_next
            y[acc_idx] = y_next
            k1[acc_idx] = f_next
            h[acc_idx] = h_acc * factor[accept]

        rej = ~accept
        rej_idx = active[rej]
        if rej_idx.size:
            h[rej_idx] = ha[rej] * np.minimum(factor[rej], 1.0)

        steps[active] += 1
        failed = (h[active] < h_min) | (steps[active] >= max_steps)
        if failed.any():
            ok[active[failed]] = False

        alive = ok & (next_eval < n_eval) & (t < t1 - 1e-14 * span)
        # Samples that reached t1 with pending outputs get them from the
        # final state (guards tiny float gaps at the right endpoint).
        done_gap = ok & (next_eval < n_eval) & ~(t < t1 - 1e-14 * span)
        for i in idx[done_gap]:
            values[i, next_eval[i]:, :] = y[i]
            next_eval[i] = n_eval
        active = idx[alive]

    return values, ok
