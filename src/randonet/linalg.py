"""Regularized pseudo-inversion kernels for dense real matrices.

Everything in this module operates on plain 2-D float64 ``numpy`` arrays.
Inputs are validated to be finite on entry; factorizations are pure
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
factor is formed: ``Q`` and ``Z`` are stored as their Householder
reflectors and reach right-hand sides through ``ormqr`` and ``ormrz``.
Only when the right-hand sides outnumber the rank are the r columns of
``Q`` and rows of ``Z`` that act on them formed, for one matrix product
each.

As in ``xGELSY``, a factorization holds one matrix-sized buffer: the
pivoted QR runs in one Fortran-ordered working copy of the input, leaves
the ``Q`` reflectors and ``R`` side by side in it, and ``tzrzf``
compresses the trapezoid in the top r rows of that same array.
``cod_factorize`` makes the working copy; ``inplace_cod_factorize`` uses
a Fortran-ordered argument as it. The routines that read the factors in
place (``tzrzf``, ``ormrz``, ``ormqr`` and ``trtrs``) take the working
array's leading dimension, which scipy's f2py wrappers cannot pass, so
they are called through the capsules of ``scipy.linalg.cython_lapack``:
the same LAPACK build, without the copies of strided views.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack, lapack

__all__ = [
    "TruncatedSVDFactors",
    "CODFactors",
    "auto_tolerance",
    "tsvd_factorize",
    "tsvd_pinv_apply",
    "cod_factorize",
    "inplace_cod_factorize",
    "cod_pinv_apply",
]

_EPS = float(np.finfo(np.float64).eps)


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {arr.shape}")
    # min and max propagate NaN and reach +-inf, with no boolean temporary.
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def auto_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """Default rank cutoff ``max(rows, cols) * eps * sigma_max``."""
    return max(shape) * _EPS * sigma_max


def _resolve_tol(tol, shape, sigma_max) -> float:
    if tol is None:
        return auto_tolerance(shape, sigma_max)
    tol = float(tol)
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive or None (auto), got {tol}")
    return tol


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
    reflectors and are not referenced as part of ``T11``.
    """

    permutation: np.ndarray
    q_reflectors: np.ndarray
    q_tau: np.ndarray
    rz: np.ndarray
    z_tau: np.ndarray
    numerical_rank: int
    rank_tolerance: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.q_reflectors.shape[0], self.rz.shape[1])


def _lapack_check(name: str, info: int) -> None:
    if info != 0:
        raise RuntimeError(f"LAPACK {name} failed with info={info}")


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
    for name, nargs in (("dtzrzf", 8), ("dormqr", 13), ("dormrz", 14), ("dtrtrs", 10))
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
    _lapack_check(name, info.value)


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
    _lapack_with_work("dormqr", b"L", b"N", *c.shape, factors.numerical_rank,
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
    _lapack("dtrtrs", b"U", b"T", b"N", factors.numerical_rank, c.shape[1],
            rz, _ld(rz), c, _ld(c))


def _leading_q(factors: CODFactors) -> np.ndarray:
    """``Q1``, the first r columns of the pivoted QR's Q: (rows, r)."""
    _, work, info = lapack.dorgqr(factors.q_reflectors, factors.q_tau, lwork=-1)
    _lapack_check("orgqr", info)
    q1, _, info = lapack.dorgqr(factors.q_reflectors, factors.q_tau, lwork=int(work[0]))
    _lapack_check("orgqr", info)
    return q1


def _leading_z(factors: CODFactors) -> np.ndarray:
    """The first r rows of a nontrivial ``Z`` with the permutation folded back in.

    The result ``Zp`` is (r, cols) and satisfies ``A ~= Q1 @ T11 @ Zp``.
    ``ormrz`` forms it as ``[I 0] @ Z``, applying ``Z`` from the right.
    """
    rz = factors.rz
    r, cols = rz.shape
    z = np.eye(r, cols, order="F")
    _lapack_with_work("dormrz", b"R", b"N", r, cols, r, cols - r, rz, _ld(rz),
                      factors.z_tau, z, _ld(z), lwork=_reflector_lwork(r))
    out = np.empty_like(z)
    out[:, factors.permutation] = z
    return out


def tsvd_factorize(a, tol=None, reg=0.0) -> TruncatedSVDFactors:
    """SVD of ``a`` with the truncated or the Tikhonov filter.

    Parameters
    ----------
    a : array_like, shape (rows, cols)
        Finite dense matrix.
    tol : float, optional
        Rank cutoff. ``None`` selects :func:`auto_tolerance`.
    reg : float
        Tikhonov weight, >= 0. At 0 the factors keep exactly the singular
        values above ``tol``, filtered by ``1 / sigma``. Above 0 they keep
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
    if not reg >= 0:
        raise ValueError(f"regularization weight must be >= 0, got {reg}")
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


def _check_pinv_shapes(factors, b: np.ndarray) -> None:
    rows, cols = factors.shape
    if b.shape[1] != cols:
        raise ValueError(
            f"pseudo-inverse apply needs B with {cols} columns to match "
            f"factors of shape {(rows, cols)}, got B of shape {b.shape}"
        )


def tsvd_pinv_apply(factors: TruncatedSVDFactors, b) -> np.ndarray:
    """Apply the filtered pseudo-inverse from the right: ``B @ A+``.

    ``A+ = V diag(f(sigma)) U^T`` over the kept triplets, with the filter
    of the factors (see :func:`tsvd_factorize`); rank-0 factors return the
    least-norm solution of an all-zero system, i.e. zeros.
    """
    b = _as_matrix(b, "B")
    _check_pinv_shapes(factors, b)
    if factors.rank == 0:
        return np.zeros((b.shape[0], factors.shape[0]))
    s, reg = factors.singular_values, factors.regularization
    core = b @ factors.right_vectors
    # A division, not a product with 1 / sigma, keeps the truncated bits.
    core = core / s if reg == 0.0 else core * (s / (s * s + reg * reg))
    return core @ factors.left_vectors.T


def cod_factorize(a, tol=None) -> CODFactors:
    """Complete orthogonal decomposition with numerical rank detection.

    One column-pivoted QR ``A[:, perm] = Q R`` fixes the numerical rank r
    as the number of leading pivots with ``|R_ii| > tol``; ``Q`` is kept as
    its Householder reflectors. If r equals the column count, ``R`` is the
    triangular core and nothing else is factored. Otherwise the kept
    r-by-cols trapezoid is compressed to ``R[:r] = [T11 0] Z`` by
    ``tzrzf``, whose cost is ``4 r^2 (cols - r)``; ``Z`` is kept as
    reflectors too. Neither orthogonal factor is formed here.

    The input is not modified: the work runs in one Fortran-ordered copy
    of it (see the module docstring). :func:`inplace_cod_factorize` skips
    that copy.
    """
    return _cod_factorize(np.array(a, dtype=np.float64, order="F"), tol)


def inplace_cod_factorize(a, tol=None) -> CODFactors:
    """:func:`cod_factorize` that takes over its argument.

    A Fortran-ordered float64 ``a`` is factored in its own storage,
    without a copy: it is overwritten, the returned factors keep it alive
    as their reflector storage, and the caller must not read it again.
    Any other input is converted once, as by ``np.asfortranarray``, and
    that copy is factored instead, so a caller that holds a C-ordered
    matrix while the call runs holds two. The factors are bit-identical
    to those of :func:`cod_factorize`.
    """
    return _cod_factorize(np.asfortranarray(a, dtype=np.float64), tol)


def _cod_factorize(work: np.ndarray, tol) -> CODFactors:
    """The shared core: factors the Fortran-ordered float64 ``work`` in place."""
    work = _as_matrix(work, "A")
    cols = work.shape[1]
    # overwrite_a on the query too, or f2py copies the matrix for it.
    lwork = int(lapack.dgeqp3(work, lwork=-1, overwrite_a=1)[3][0])
    qr, jpvt, q_tau, scratch, info = lapack.dgeqp3(work, lwork=lwork, overwrite_a=1)
    del scratch  # geqp3's workspace, not to be held through tzrzf
    _lapack_check("geqp3", info)
    diag = np.abs(np.diag(qr))
    sigma_max = float(diag[0]) if diag.size else 0.0
    tol = _resolve_tol(tol, qr.shape, sigma_max)
    keep = diag > tol
    rank = int(diag.size if keep.all() else keep.argmin())
    rz, z_tau = qr[:rank], np.zeros(0)
    if 0 < rank < cols:
        z_tau = np.empty(rank)
        _lapack_with_work("dtzrzf", rank, cols, rz, _ld(rz), z_tau)
    return CODFactors(
        permutation=jpvt - 1,
        q_reflectors=qr[:, :rank],
        q_tau=q_tau[:rank],
        rz=rz,
        z_tau=z_tau,
        numerical_rank=rank,
        rank_tolerance=tol,
    )


def cod_pinv_apply(factors: CODFactors, b) -> np.ndarray:
    """Apply the COD pseudo-inverse from the right: ``B @ A+``.

    With ``A[:, perm] = Q1 [T11 0] Z`` the action is a product with the
    leading r rows of ``Z``, one triangular back substitution on ``T11``
    and a product with ``Q1``; it agrees with the truncated-SVD route on
    the same numerical rank. It runs as the transposed problem
    ``(B A+).T = Q1 T11^-T [I 0] Z P.T B.T``, in one Fortran-ordered
    (max(rows, cols), k) buffer, and reads the factors where they lie.
    """
    b = _as_matrix(b, "B")
    _check_pinv_shapes(factors, b)
    rows, cols = factors.shape
    r = factors.numerical_rank
    nrhs = b.shape[0]
    if r == 0:
        return np.zeros((nrhs, rows))
    perm = factors.permutation
    # The orthogonal factors reach the right-hand sides as reflectors,
    # except when those outnumber the rank: forming the r columns of Q and
    # rows of Z that act then costs no more than applying the reflectors to
    # r of them, and one matrix product runs about twice as fast as the
    # blocked reflector updates.
    if nrhs > r:
        if factors.z_tau.size:
            y = np.asfortranarray((b @ _leading_z(factors).T).T)
        else:
            # Gathered straight into Fortran order: b[:, perm] of a
            # Fortran-ordered B (the trunk solve's V.T) would need a copy.
            y = np.empty((cols, nrhs), order="F")
            np.take(b.T, perm, axis=0, out=y, mode="clip")
        _solve_t11(factors, y)
        return y.T @ _leading_q(factors).T
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
