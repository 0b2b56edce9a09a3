"""Input checks shared by the package; each raises ``ValueError`` naming its
argument. This module imports no other module of the package."""

from __future__ import annotations

import numpy as np


def real_array(a, name: str, order: str = "K") -> np.ndarray:
    """``a`` as a float64 array in ``order``, rejected when it is complex:
    the cast would keep only its real part, with a ComplexWarning at most."""
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    return np.asarray(arr, dtype=np.float64, order=order)


def finite_array(a, name: str, order: str = "K") -> np.ndarray:
    """:func:`real_array`, rejected when it holds a NaN or an infinity.

    A finite sum proves every entry finite in one pass with no boolean
    temporary. Only a non-finite sum, which finite entries can also reach by
    overflow, takes the exact check: min and max propagate NaN and reach
    +-inf. Such a sum draws numpy's RuntimeWarning; ``np.errstate`` would
    cost about as much as the second pass it saves on small inputs.
    """
    arr = real_array(a, name, order)
    if not np.isfinite(arr.sum()) and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_tol(tol) -> None:
    """Reject a rank tolerance that is not positive and finite, NaN included:
    an infinite one cuts every value and trains an all-zero readout."""
    if tol is not None and not 0.0 < float(tol) < np.inf:
        raise ValueError(f"tolerance must be positive and finite or None (auto), got {tol}")


def check_reg(reg) -> None:
    """Reject a Tikhonov weight that is negative or not finite, NaN included."""
    if not 0 <= reg < np.inf:
        raise ValueError(f"regularization weight must be >= 0 and finite, got {reg}")


def check_seed(seed, name: str):
    """``seed`` with every integer a Python ``int`` and every sequence a
    tuple, nested as given, so ``SeedSequence`` reads the same entropy from
    it; rejected when it does not fix its draws: ``None``, which draws fresh
    entropy, or one that ``SeedSequence`` refuses (negative, not integer)."""
    message = f"{name} must be a non-negative integer or a tuple of them, got {seed!r}"
    if seed is None:
        raise ValueError(message)
    try:
        np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise ValueError(message) from None
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return tuple(check_seed(v, name) for v in seed)


def check_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an ``int``, or a ``ValueError`` naming ``name`` unless it is
    an integer >= ``minimum``; numpy integers pass, and ``bool`` does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
