"""Regularized pseudo-inversion kernels for dense real matrices.

Everything in this module operates on plain 2-D float64 ``numpy`` arrays.
Inputs are validated to be real and finite on entry; factorizations are pure
functions of their inputs, so results are deterministic. One set of COD
factors should be applied from one thread at a time: LAPACK's unblocked
``ormqr`` loop may write to the factor storage and restore it as it runs.

Two factorizations give a (regularized) Moore-Penrose pseudo-inverse:

* the SVD (:func:`tsvd_factorize` / :func:`tsvd_pinv_apply`), applied as
  ``V diag(f(sigma)) U^T`` with one of two filters: ``1 / sigma`` on the
  singular values above a rank cutoff (truncated SVD), or the Tikhonov
  filter ``sigma / (sigma^2 + reg^2)`` on all of them;
* the complete orthogonal decomposition built from column-pivoted QR
  (:func:`cod_factorize` / :func:`cod_pinv_apply`), which inverts an
  ill-conditioned matrix through orthogonal transforms and one triangular
  back substitution.

Without a given tolerance both cut at :func:`auto_tolerance`, each on its
own scale: the SVD on the largest singular value sigma_1, the COD on the
first pivot ``|R_11|`` of its column-pivoted QR (the largest column
norm). On one matrix the two auto cutoffs can differ by up to a factor
sqrt(cols).

Both applies compute ``B @ A+``. The readout solves only need that side:
a features x samples matrix ``A`` is inverted against targets that share
its sample axis. A left solve ``A+ @ B`` is ``(B.T @ (A.T)+).T``, with the
transposed matrix factored instead.

The COD takes two stages, as LAPACK's ``xGELSY`` does, but keeps its own
rank rule. One column-pivoted QR ``A P = Q R`` (``geqp3``) fixes the
numerical rank r as the count of leading pivots ``|R_ii|`` above the
tolerance. When r equals the column count, the leading block of R is
already the triangular core. Otherwise the kept r-by-cols trapezoid is
compressed from the right, ``R[:r] = [T11 0] Z`` (``tzrzf``), at a cost of
``4 r^2 (cols - r)`` instead of a second dense QR. Neither orthogonal
factor is ever formed: ``Q`` and ``Z`` are stored as their Householder
reflectors, and every apply, whatever its count of right-hand sides,
reaches them through ``ormrz`` and ``ormqr`` around one ``trtrs`` solve.

Both LAPACK steps of a COD, ``geqp3`` and ``tzrzf``, run with scipy's
bundled OpenBLAS at one thread per worker of :mod:`randonet._parallel`:
one per usable CPU from ``2 * MIN_QR_ENTRIES`` matrix entries, one below.
The caller's count is restored afterwards, so the factors depend on the
usable CPUs and the matrix size, not on the caller's count. Each
factorization logs its shape, thread count and seconds on
``randonet._parallel`` at DEBUG.

As in ``xGELSY``, a factorization holds one matrix-sized buffer: the
pivoted QR runs in one Fortran-ordered working copy of the input, leaves
the ``Q`` reflectors and ``R`` side by side in it, and ``tzrzf``
compresses the trapezoid in the top r rows of that same array.
:func:`cod_factorize` is the one COD entry point: it makes the working
copy, or with ``overwrite_a=True`` uses a Fortran-ordered float64 argument
as it. Every LAPACK routine is called through its capsule in
``scipy.linalg.cython_lapack``, with each operand's leading dimension, so
the factors are read in place as strided views, without the copies of
scipy's f2py wrappers.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack

from . import _parallel
from ._checks import check_reg, check_tol, finite_array

__all__ = [
    "TruncatedSVDFactors",
    "CODFactors",
    "auto_tolerance",
    "tsvd_factorize",
    "tsvd_pinv_apply",
    "cod_factorize",
    "cod_pinv_apply",
]

_EPS = float(np.finfo(np.float64).eps)


def _as_matrix(a, name: str, order: str = "K") -> np.ndarray:
    arr = finite_array(a, name, order)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {arr.shape}")
    return arr


def auto_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """Default rank cutoff ``max(rows, cols) * eps * sigma_max``.

    :func:`tsvd_factorize` passes the largest singular value sigma_1 as
    ``sigma_max``, :func:`cod_factorize` the first pivot ``|R_11|`` of its
    column-pivoted QR, the largest column norm, which lies in
    [sigma_1 / sqrt(cols), sigma_1]: on one matrix the two auto cutoffs
    differ by up to a factor sqrt(cols).
    """
    return max(shape) * _EPS * sigma_max


def _resolve_tol(tol, shape, sigma_max) -> float:
    check_tol(tol)
    return auto_tolerance(shape, sigma_max) if tol is None else float(tol)


@dataclass(frozen=True)
class TruncatedSVDFactors:
    """SVD factors ``A ~= left @ diag(singular_values) @ right.T`` and their filter.

    ``left_vectors`` is (rows, r) and ``right_vectors`` is (cols, r), both
    with orthonormal columns; ``singular_values`` holds the r kept values,
    non-increasing. :func:`tsvd_factorize` documents which triplets are
    kept and the filter that ``regularization`` selects.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    rank_tolerance: float
    regularization: float

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left_vectors.shape[0], self.right_vectors.shape[0])


@dataclass(frozen=True)
class CODFactors:
    """Complete orthogonal decomposition of a dense matrix.

    The factors are stored once, in the compact form LAPACK leaves them,
    for ``A[:, perm] = Q1 [T11 0] Z``. ``q_reflectors`` (rows, r) holds
    below its diagonal the first r Householder vectors of the pivoted QR,
    with scalars ``q_tau``; they define ``Q1``. ``rz`` is r-by-cols with the
    upper-triangular ``T11`` in its first r columns and, when r < cols, the
    ``tzrzf`` reflectors of ``Z`` in the rest, with scalars ``z_tau``
    (empty when ``Z`` is the identity). Both are views of the one working
    array: ``q_reflectors`` its first r columns, ``rz`` its top r rows, a
    strided view whose leading dimension is the row count. Entries of
    ``rz`` below the diagonal of ``T11`` therefore belong to the ``Q``
    reflectors and are not referenced as part of ``T11``. ``rank`` is r
    and ``rank_tolerance`` the cutoff that fixed it, the two fields
    :class:`TruncatedSVDFactors` also answers to.
    """

    permutation: np.ndarray
    q_reflectors: np.ndarray
    q_tau: np.ndarray
    rz: np.ndarray
    z_tau: np.ndarray
    rank: int
    rank_tolerance: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.q_reflectors.shape[0], self.rz.shape[1])


def _capsule_function(name: str, nargs: int):
    """The ``cython_lapack`` routine ``name``, callable through ``ctypes``.

    Every argument is passed by address, as in Fortran; the capsules wrap
    the LAPACK that scipy itself links, so results are those of scipy's
    own wrappers.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


# Argument counts, the trailing info included.
_LAPACK = {
    name: _capsule_function(name, nargs)
    for name, nargs in (("dgeqp3", 9), ("dtzrzf", 8), ("dormqr", 13), ("dormrz", 14),
                        ("dtrtrs", 10))
}


def _ld(mat: np.ndarray) -> int:
    """Leading dimension of a float64 matrix stored by columns, or a view of one."""
    rows, cols = mat.shape
    ld = mat.strides[1] // mat.itemsize if cols > 1 else rows
    if mat.dtype != np.float64 or (rows > 1 and mat.strides[0] != mat.itemsize) or ld < rows:
        raise ValueError(f"LAPACK operand must be float64 in column layout, got {mat.strides}")
    return max(ld, 1)


def _lapack(name: str, *args) -> None:
    """Call ``name`` with ``args`` (bytes, ints, arrays) and check its info."""
    info = ctypes.c_int(0)
    refs = []
    for arg in args:
        if isinstance(arg, bytes):
            refs.append(ctypes.c_char_p(arg))
        elif isinstance(arg, np.ndarray):
            refs.append(ctypes.c_void_p(arg.ctypes.data))
        else:
            refs.append(ctypes.byref(ctypes.c_int(arg)))
    _LAPACK[name](*refs, ctypes.byref(info))
    if info.value != 0:
        raise RuntimeError(f"LAPACK {name} failed with info={info.value}")


def _lapack_with_work(name: str, *args, lwork: int | None = None) -> None:
    """Call ``name``, whose last arguments are ``work, lwork, info``.

    ``lwork=None`` takes the size from LAPACK's own workspace query, as
    scipy's wrappers do, and that size selects the blocked code path.
    """
    if lwork is None:
        query = np.empty(1)
        _lapack(name, *args, query, -1)
        lwork = int(query[0])
    _lapack(name, *args, np.empty(max(lwork, 1)), lwork)


def _reflector_lwork(nrhs: int) -> int | None:
    # With one right-hand side, the minimal workspace makes ormqr/ormrz
    # take their unblocked loop; the blocked one would form a triangular
    # block factor per 32 reflectors to update a single column.
    return 1 if nrhs == 1 else None


def _apply_q(factors: CODFactors, c: np.ndarray) -> None:
    """``c = Q @ c`` in place through ``ormqr``; ``c`` is (rows, k).

    ``Q`` is the product of the r stored reflectors. When only the first r
    rows of ``c`` are nonzero, ``Q @ c`` is ``Q1 @ c[:r]``.
    """
    qr = factors.q_reflectors
    _lapack_with_work("dormqr", b"L", b"N", *c.shape, factors.rank,
                      qr, _ld(qr), factors.q_tau, c, _ld(c),
                      lwork=_reflector_lwork(c.shape[1]))


def _apply_z(factors: CODFactors, c: np.ndarray) -> None:
    """``c = Z @ c`` in place through ``ormrz``; nothing when ``Z`` is the identity."""
    if factors.z_tau.size == 0:
        return
    rz = factors.rz
    r, cols = rz.shape
    _lapack_with_work("dormrz", b"L", b"N", *c.shape, r, cols - r, rz, _ld(rz),
                      factors.z_tau, c, _ld(c), lwork=_reflector_lwork(c.shape[1]))


def _solve_t11(factors: CODFactors, c: np.ndarray) -> None:
    """Solve ``T11.T x = c`` in place; ``T11`` is read in the factor storage."""
    rz = factors.rz
    _lapack("dtrtrs", b"U", b"T", b"N", factors.rank, c.shape[1],
            rz, _ld(rz), c, _ld(c))


def tsvd_factorize(a, tol=None, reg=0.0) -> TruncatedSVDFactors:
    """SVD of ``a`` with the truncated or the Tikhonov filter.

    Parameters
    ----------
    a : array_like, shape (rows, cols)
        Finite dense matrix.
    tol : float, optional
        Rank cutoff at ``reg = 0``. ``None`` selects :func:`auto_tolerance`.
    reg : float
        Tikhonov weight, finite and >= 0. At 0 the factors keep exactly the
        singular values above ``tol``, filtered by ``1 / sigma``. Above 0 they keep
        every triplet, filtered by ``sigma / (sigma^2 + reg^2)``: the apply
        then minimizes ``||X A - B||^2 + reg^2 ||X||^2``. Note the squared ``reg``:
        for ``reg != 1`` this differs from the ``sigma / (sigma^2 + reg)``
        convention.

    Returns
    -------
    TruncatedSVDFactors
        An all-zero matrix is no error: at ``reg = 0`` it yields rank 0.
    """
    a = _as_matrix(a, "A")
    check_reg(reg)
    if reg > 0 and tol is not None:
        raise ValueError(f"tol cuts no singular value at reg > 0, got tol={tol} with reg={reg}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    sigma_max = float(s[0]) if s.size else 0.0
    tol = _resolve_tol(tol, a.shape, sigma_max)
    v = vt.T
    if reg == 0:
        r = int(np.count_nonzero(s > tol))
        # Contiguous copies of the kept triplets: products with views of the
        # full factors round differently.
        u, s, v = np.ascontiguousarray(u[:, :r]), s[:r].copy(), np.ascontiguousarray(v[:, :r])
    return TruncatedSVDFactors(u, s, v, tol, float(reg))


def _rhs_matrix(factors, b) -> np.ndarray:
    b = _as_matrix(b, "B")
    rows, cols = factors.shape
    if b.shape[1] != cols:
        raise ValueError(
            f"pseudo-inverse apply needs B with {cols} columns to match "
            f"factors of shape {(rows, cols)}, got B of shape {b.shape}"
        )
    return b


def tsvd_pinv_apply(factors: TruncatedSVDFactors, b) -> np.ndarray:
    """Apply the filtered pseudo-inverse from the right: ``B @ A+``.

    ``A+ = V diag(f(sigma)) U^T`` over the kept triplets, with the filter
    of the factors (see :func:`tsvd_factorize`); rank-0 factors return the
    least-norm solution of an all-zero system, i.e. zeros.
    """
    b = _rhs_matrix(factors, b)
    if factors.rank == 0:
        return np.zeros((b.shape[0], factors.shape[0]))
    s, reg = factors.singular_values, factors.regularization
    core = b @ factors.right_vectors
    # A division, not a product with 1 / sigma, keeps the truncated bits.
    core = core / s if reg == 0.0 else core * (s / (s * s + reg * reg))
    return core @ factors.left_vectors.T


def cod_factorize(a, tol=None, overwrite_a=False) -> CODFactors:
    """Complete orthogonal decomposition with numerical rank detection.

    One column-pivoted QR ``A[:, perm] = Q R`` fixes the numerical rank r
    as the number of leading pivots with ``|R_ii| > tol``; ``Q`` is kept as
    its Householder reflectors. If r equals the column count, ``R`` is the
    triangular core and nothing else is factored. Otherwise the kept
    r-by-cols trapezoid is compressed to ``R[:r] = [T11 0] Z`` by
    ``tzrzf``, whose cost is ``4 r^2 (cols - r)``; ``Z`` is kept as
    reflectors too. Neither orthogonal factor is formed here.

    The work runs in one Fortran-ordered float64 array (see the module
    docstring). By default that is a copy, and ``a`` is not modified. With
    ``overwrite_a=True`` a Fortran-ordered float64 ``a`` is that array: it
    is overwritten, the returned factors keep it alive as their reflector
    storage, and the caller must not read it again. A read-only ``a`` is
    copied all the same, and any other input is converted once, as by
    ``np.asfortranarray``, so a caller that holds a C-ordered matrix while
    the call runs holds two. Either way the factors are the same bits.
    """
    work = _as_matrix(a, "A", order="F")
    if np.may_share_memory(work, a) and not (overwrite_a and work.flags.writeable):
        work = work.copy(order="F")
    rows, cols = work.shape
    threads = _parallel.workers(rows * cols, _parallel.MIN_QR_ENTRIES, cols)
    start = time.perf_counter()
    jpvt, q_tau = np.zeros(cols, dtype=np.intc), np.empty(min(rows, cols))
    with _parallel.scipy_blas(threads):
        _lapack_with_work("dgeqp3", rows, cols, work, _ld(work), jpvt, q_tau)
        diag = np.abs(np.diag(work))
        sigma_max = float(diag[0]) if diag.size else 0.0
        tol = _resolve_tol(tol, work.shape, sigma_max)
        keep = diag > tol
        rank = int(diag.size if keep.all() else keep.argmin())
        rz, z_tau = work[:rank], np.zeros(0)
        if 0 < rank < cols:
            z_tau = np.empty(rank)
            _lapack_with_work("dtzrzf", rank, cols, rz, _ld(rz), z_tau)
    _parallel.logger.debug("COD of %d x %d: %d BLAS thread(s), %.3f s",
                           rows, cols, threads, time.perf_counter() - start)
    return CODFactors(
        permutation=jpvt - 1,
        q_reflectors=work[:, :rank],
        q_tau=q_tau[:rank],
        rz=rz,
        z_tau=z_tau,
        rank=rank,
        rank_tolerance=tol,
    )


def cod_pinv_apply(factors: CODFactors, b) -> np.ndarray:
    """Apply the COD pseudo-inverse from the right: ``B @ A+``.

    With ``A[:, perm] = Q1 [T11 0] Z`` the action is a product with the
    leading r rows of ``Z``, one triangular back substitution on ``T11``
    and a product with ``Q1``; it agrees with the truncated-SVD route on
    the same numerical rank. It runs as the transposed problem
    ``(B A+).T = Q1 T11^-T [I 0] Z P.T B.T`` for any count k of
    right-hand sides: the rows of ``B`` are gathered by ``perm`` into one
    Fortran-ordered (max(rows, cols), k) buffer, and ``ormrz``, ``trtrs``
    and ``ormqr`` work in it, reading the factors where they lie.
    """
    b = _rhs_matrix(factors, b)
    rows, cols = factors.shape
    r = factors.rank
    nrhs = b.shape[0]
    if r == 0:
        return np.zeros((nrhs, rows))
    perm = factors.permutation
    buf = np.empty((max(rows, cols), nrhs), order="F")
    # Each right-hand side goes to its own contiguous column: buf[:cols].T
    # is not contiguous when rows > cols, and np.take would then gather
    # into a B-sized copy first. perm is in range; mode="clip" skips
    # numpy's buffered bounds check.
    for i in range(nrhs):
        np.take(b[i], perm, out=buf[:cols, i], mode="clip")
    _apply_z(factors, buf[:cols])
    _solve_t11(factors, buf[:r])
    buf[r:rows] = 0.0
    _apply_q(factors, buf[:rows])
    return np.ascontiguousarray(buf[:rows].T)
