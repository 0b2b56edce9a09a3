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
factor is formed: ``Q`` and ``Z`` are stored as their Householder
reflectors and reach right-hand sides through ``ormqr`` and ``ormrz``.
Only when the right-hand sides outnumber the rank are the r columns of
``Q`` and rows of ``Z`` that act on them formed, for one matrix product
each.

Which routine runs the pivoted QR depends on the matrix and the threads.
A matrix wider and taller than 128 columns (LAPACK's crossover to its
unblocked ``dlaqp2``), factored while scipy's OpenBLAS runs one thread on
the kernels its split rules were measured on (``SkylakeX``) and at least
two workers are usable (see :mod:`randonet._parallel`), goes to
``_pivoted_qr``, a port of ``geqp3``'s driver and of its panel kernel
``dlaqps``. It calls the routines LAPACK calls (``dnrm2``, ``idamax``,
``dswap``, ``dgemv``, ``dlarfg``, ``dgemm``, ``dlaqp2``) on the same
operands, and splits the trailing ``dgemv`` of each column and the
``dgemm`` that closes each panel into column ranges on a crew of threads.
Panels too small to split run ``dlaqps`` itself.
Its factors are those of one ``dgeqp3`` call at one thread, bit for bit.
Every other matrix, and every matrix at more OpenBLAS threads (where
``geqp3`` is the faster: 1.5 s against about 2.4 s on a 2000 x 2400 matrix
at two threads), takes one ``dgeqp3`` call. Each factorization logs its
route on ``randonet._parallel`` at DEBUG.

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
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_blas, cython_lapack, lapack

from . import _parallel

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
    _check_finite(arr, name)
    return arr


def _check_finite(arr: np.ndarray, name: str) -> None:
    """Reject an array holding a NaN or an infinity, reading it once when it is finite.

    A finite sum proves every entry finite, in one pass with no boolean
    temporary. A NaN or an infinity makes the sum non-finite, but so can
    finite entries whose sum overflows, so only a non-finite sum takes the
    exact check: min and max propagate NaN and reach +-inf. Such a sum
    draws numpy's RuntimeWarning (overflow, or an invalid ``inf - inf``);
    silencing it with ``np.errstate`` would cost about as much as the
    second pass it saves on small inputs.
    """
    if not np.isfinite(arr.sum()) and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} contains non-finite entries")


def auto_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """Default rank cutoff ``max(rows, cols) * eps * sigma_max``.

    :func:`tsvd_factorize` passes the largest singular value sigma_1 as
    ``sigma_max``, :func:`cod_factorize` the first pivot ``|R_11|`` of its
    column-pivoted QR, the largest column norm, which lies in
    [sigma_1 / sqrt(cols), sigma_1]: on one matrix the two auto cutoffs
    differ by up to a factor sqrt(cols).
    """
    return max(shape) * _EPS * sigma_max


def _check_tol(tol) -> None:
    """Reject a rank tolerance that is not positive and finite, NaN included:
    an infinite one cuts every value and trains an all-zero readout."""
    if tol is not None and not 0.0 < float(tol) < np.inf:
        raise ValueError(f"tolerance must be positive and finite or None (auto), got {tol}")


def _check_reg(reg) -> None:
    """Reject a Tikhonov weight that is negative or not finite, NaN included."""
    if not 0 <= reg < np.inf:
        raise ValueError(f"regularization weight must be >= 0 and finite, got {reg}")


def _resolve_tol(tol, shape, sigma_max) -> float:
    _check_tol(tol)
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


def _capsule_function(module, name: str, nargs: int, restype=None):
    """The ``cython_blas``/``cython_lapack`` routine ``name``, callable through ``ctypes``.

    Every argument is passed by address, as in Fortran; the capsules wrap
    the BLAS and LAPACK that scipy itself links, so results are those of
    scipy's own wrappers.
    """
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(restype, *[ctypes.c_void_p] * nargs)(address)


# Argument counts, the trailing info included.
_LAPACK = {
    name: _capsule_function(cython_lapack, name, nargs)
    for name, nargs in (("dtzrzf", 8), ("dormqr", 13), ("dormrz", 14), ("dtrtrs", 10))
}

# The routines of geqp3's driver and panel loop, with their argument counts
# and return types.
_QP3 = {
    name: _capsule_function(module, name, nargs, restype)
    for module, name, nargs, restype in (
        (cython_blas, "dnrm2", 3, ctypes.c_double), (cython_blas, "idamax", 3, ctypes.c_int),
        (cython_blas, "dswap", 5, None), (cython_blas, "dgemv", 11, None),
        (cython_blas, "dgemm", 13, None), (cython_lapack, "dlarfg", 5, None),
        (cython_lapack, "dlaqps", 14, None), (cython_lapack, "dlaqp2", 10, None),
        (cython_lapack, "dlamch", 1, ctypes.c_double),
    )
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
    _check_reg(reg)
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
    jpvt, q_tau = _geqp3(work)
    diag = np.abs(np.diag(work))
    sigma_max = float(diag[0]) if diag.size else 0.0
    tol = _resolve_tol(tol, work.shape, sigma_max)
    keep = diag > tol
    rank = int(diag.size if keep.all() else keep.argmin())
    rz, z_tau = work[:rank], np.zeros(0)
    if 0 < rank < cols:
        z_tau = np.empty(rank)
        _lapack_with_work("dtzrzf", rank, cols, rz, _ld(rz), z_tau)
    return CODFactors(
        permutation=jpvt - 1,
        q_reflectors=work[:, :rank],
        q_tau=q_tau[:rank],
        rz=rz,
        z_tau=z_tau,
        numerical_rank=rank,
        rank_tolerance=tol,
    )


# LAPACK's crossover for xGEQRF (ILAENV's third setting), which geqp3 reads:
# its last NX columns, all of them when min(rows, cols) <= NX, are factored
# by the unblocked dlaqp2.
_NX = 128

# Bit rules of the port's split BLAS calls, found by test on the
# kernels in _SPLIT_CORES (scipy's OpenBLAS 0.3.30 at one thread, x86-64
# AVX-512); on any other kernels the port is not taken. A range of the
# trailing dgemv starts on a multiple of _GEMV_COLUMNS columns from the
# call's first column; a range of the panel update dgemm starts on a
# multiple of _GEMM_COLUMNS columns and has at least 2 * _GEMM_COLUMNS of
# them. Cuts elsewhere moved the last bits of some columns.
_SPLIT_CORES = ("SkylakeX",)
_GEMV_COLUMNS = 4
_GEMM_COLUMNS = 48
# Every dgemm range does more than this many multiply-adds: at or below
# about 1e6 OpenBLAS takes its small-matrix kernel, whose bits differ. It
# is the dgemm's only floor, and it keeps the bits: tests lower the speed
# floor _parallel.MIN_GEMV_ENTRIES to force splits, but must never lower
# this one.
_GEMM_BITS_FLOOR = 1 << 20


def _geqp3(work: np.ndarray) -> tuple:
    """Column-pivoted QR of ``work`` in place, as LAPACK's ``dgeqp3`` leaves it.

    Returns the 1-based pivots and the reflector scalars. The route is the
    one the module docstring gives; each call logs one DEBUG record on
    ``randonet._parallel``.
    """
    rows, cols = work.shape
    start = time.perf_counter()
    # overwrite_a on the query too, or f2py copies the matrix for it.
    lwork = int(lapack.dgeqp3(work, lwork=-1, overwrite_a=1)[3][0])
    count = 1
    if (min(rows, cols) > _NX and _parallel.scipy_blas_threads()[0]() == 1
            and _parallel.scipy_blas_core() in _SPLIT_CORES):
        count = _parallel.workers(rows * cols, _parallel.MIN_GEMV_ENTRIES,
                                  -(-cols // _GEMV_COLUMNS))
    if count < 2:
        _, jpvt, tau, scratch, info = lapack.dgeqp3(work, lwork=lwork, overwrite_a=1)
        del scratch  # geqp3's workspace, not to be held through tzrzf
        _lapack_check("geqp3", info)
        route = "LAPACK geqp3"
    else:
        with _parallel.Crew(count) as crew:
            # geqp3's workspace query returns 2 cols + (cols + 1) nb.
            jpvt, tau, panels, split = _pivoted_qr(work, (lwork - 2 * cols) // (cols + 1), crew)
        route = f"{panels} panels ({split} split)"
    _parallel.logger.debug("pivoted QR of %d x %d: %d worker(s), %s, %.3f s",
                           rows, cols, count, route, time.perf_counter() - start)
    return jpvt, tau


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _double(value: float):
    return ctypes.byref(ctypes.c_double(value))


_N, _T, _EPSILON = (ctypes.c_char_p(flag) for flag in (b"N", b"T", b"E"))
_ONE, _MINUS_ONE, _ZERO = (_double(value) for value in (1.0, -1.0, 0.0))
_NONE = np.zeros(0, dtype=np.intp)  # no norm to recompute


def _pivoted_qr(work: np.ndarray, nb: int, crew) -> tuple:
    """LAPACK's ``dgeqp3`` driver on ``work``, with panels of ``nb`` columns.

    A port of the reference driver and of its panel kernel (:func:`_laqps`)
    that calls the BLAS and LAPACK routines they call, in the same order
    and on the same operands, so the factors are those of ``dgeqp3``, bit
    for bit. ``crew`` runs column ranges of the trailing ``dgemv`` of each
    column and of the ``dgemm`` that closes each panel (see the bit rules
    above). A panel whose trailing matrix is too small to split runs
    LAPACK's own ``dlaqps`` on the same operands: unsplit, the port's
    Python per column costs more than it saves. Returns the 1-based pivots,
    the reflector scalars, the number of panels and how many of them the
    port ran.
    """
    rows, cols = work.shape
    if not work.flags.f_contiguous:
        raise ValueError("the pivoted QR needs a Fortran-ordered working array")
    minmn = min(rows, cols)
    base = work.ctypes.data
    jpvt = np.arange(1, cols + 1, dtype=np.int32)
    tau = np.zeros(minmn)
    vn1 = np.array([_QP3["dnrm2"](_int(rows), base + 8 * rows * j, _int(1))
                    for j in range(cols)])
    vn2 = vn1.copy()
    f = np.empty(cols * nb)
    # dlaqps's auxv, or dlaqp2's work, in the first row; the other two are
    # the norm downdate's scratch.
    aux = np.empty((3, cols))
    tol3z = np.sqrt(_QP3["dlamch"](_EPSILON))
    top = minmn - _NX if 2 <= nb < minmn and _NX < minmn else 0
    j = panels = split = 0
    while j < top:
        port = _parallel.workers((rows - j) * (cols - j), _parallel.MIN_GEMV_ENTRIES, cols - j,
                                 crew.count) > 1
        kb = (_laqps if port else _lapack_laqps)(
            work, j, min(nb, top - j), jpvt, tau, vn1, vn2, f, aux, tol3z, crew)
        j += kb
        panels += 1
        split += port
    if j < minmn:
        _QP3["dlaqp2"](_int(rows), _int(cols - j), _int(j), base + 8 * rows * j, _int(rows),
                       jpvt[j:].ctypes.data, tau[j:].ctypes.data, vn1[j:].ctypes.data,
                       vn2[j:].ctypes.data, aux.ctypes.data)
    return jpvt, tau, panels, split


def _lapack_laqps(work, offset, nb, jpvt, tau, vn1, vn2, f, aux, tol3z, crew) -> int:
    """LAPACK's ``dlaqps`` itself, on the operands :func:`_laqps` takes."""
    m, n = work.shape[0], work.shape[1] - offset
    kb = ctypes.c_int(0)
    _QP3["dlaqps"](_int(m), _int(n), _int(offset), _int(nb), ctypes.byref(kb),
                   work.ctypes.data + 8 * m * offset, _int(m), jpvt[offset:].ctypes.data,
                   tau[offset:].ctypes.data, vn1[offset:].ctypes.data,
                   vn2[offset:].ctypes.data, aux.ctypes.data, f.ctypes.data, _int(n))
    return kb.value


def _laqps(work, offset, nb, jpvt, tau, vn1, vn2, fbuf, aux, tol3z, crew) -> int:
    """LAPACK's ``dlaqps``: factor up to ``nb`` columns from column ``offset``
    of ``work``, as ``dgeqp3`` calls it. Returns the columns factored.

    ``A`` below is the panel ``work[:, offset:]`` and ``F`` its (n, nb)
    update matrix, laid out in ``fbuf`` as ``dgeqp3`` lays it in its
    workspace. The panel ends early when a partial column norm has lost
    too many digits (LAPACK Working Note 176); those norms are recomputed
    after the panel's update.
    """
    m, n = work.shape[0], work.shape[1] - offset
    f = fbuf[:n * nb].reshape((n, nb), order="F")
    a_base, f_base, aux_base = work.ctypes.data + 8 * m * offset, f.ctypes.data, aux.ctypes.data
    tau_base, vn1_base = tau.ctypes.data + 8 * offset, vn1.ctypes.data + 8 * offset
    vn1, vn2, jpvt = vn1[offset:], vn2[offset:], jpvt[offset:]
    dgemv, dlarfg, dswap = _QP3["dgemv"], _QP3["dlarfg"], _QP3["dswap"]

    def at(i, j):
        return a_base + 8 * (i + m * j)

    def f_at(i, j):
        return f_base + 8 * (i + n * j)

    lastrk = min(m, n + offset)
    small = [_int(i) for i in range(nb + 1)]
    one, ld_a, ld_f = small[1], _int(m), _int(n)
    flagged = _NONE
    k = 0
    while k < nb and flagged is _NONE:
        rk = offset + k
        pvt = k + _QP3["idamax"](_int(n - k), vn1_base + 8 * k, one) - 1
        if pvt != k:
            dswap(ld_a, at(0, pvt), one, at(0, k), one)
            dswap(small[k], f_at(pvt, 0), ld_f, f_at(k, 0), ld_f)
            jpvt[pvt], jpvt[k] = jpvt[k], jpvt[pvt]
            vn1[pvt], vn2[pvt] = vn1[k], vn2[k]
        rows, tau_k, v = _int(m - rk), tau_base + 8 * k, at(rk, k)
        if k > 0:
            dgemv(_N, rows, small[k], _MINUS_ONE, at(rk, 0), ld_a, f_at(k, 0), ld_f, _ONE, v, one)
        if rk < m - 1:
            dlarfg(rows, v, v + 8, one, tau_k)
        else:
            dlarfg(one, v, v, one, tau_k)
        akk = work[rk, offset + k]
        work[rk, offset + k] = 1.0
        if k < n - 1:
            def gemv(lo, hi):
                dgemv(_T, rows, _int(hi - lo), tau_k, at(rk, k + 1 + lo), ld_a, v, one, _ZERO,
                      f_at(k + 1 + lo, k), one)

            crew.run(gemv, _gemv_spans(crew, m - rk, n - k - 1))
        f[:k + 1, k] = 0.0
        if k > 0:
            dgemv(_T, rows, small[k], _double(-tau[offset + k]), at(rk, 0), ld_a, v, one, _ZERO,
                  aux_base, one)
            dgemv(_N, ld_f, small[k], _ONE, f_base, ld_f, aux_base, one, _ONE, f_at(0, k), one)
        if k < n - 1:
            dgemv(_N, _int(n - k - 1), small[k + 1], _MINUS_ONE, f_at(k + 1, 0), ld_f,
                  at(rk, 0), ld_a, _ONE, at(rk, k + 1), ld_a)
        if rk < lastrk - 1:
            lost = _downdate_norms(work[rk, offset + k + 1:], vn1[k + 1:], vn2[k + 1:], tol3z,
                                   aux[1:])
            if lost.size:
                flagged = k + 1 + lost
        work[rk, offset + k] = akk
        k += 1
    rk = offset + k
    if k < min(n, m - offset):
        def gemm(lo, hi):
            _QP3["dgemm"](_N, _T, _int(m - rk), _int(hi - lo), small[k], _MINUS_ONE,
                          at(rk, 0), ld_a, f_at(k + lo, 0), ld_f, _ONE, at(rk, k + lo), ld_a)

        crew.run(gemm, _gemm_spans(crew, m - rk, n - k, k))
    for j in flagged.tolist():
        vn1[j] = vn2[j] = _QP3["dnrm2"](_int(m - rk), at(rk, j), one)
    return k


def _downdate_norms(row, vn1, vn2, tol3z, buf) -> np.ndarray:
    """``dlaqps``'s LAWN 176 downdate of the partial column norms ``vn1`` in
    place, after the reflector row ``row``; ``vn2`` holds each norm as last
    computed and ``buf`` two rows of scratch. Returns the indices of the
    columns whose norm must be recomputed instead; theirs and the zero norms
    are left as they are.
    """
    live = None if vn1.all() else np.flatnonzero(vn1)
    if live is not None:
        row, norms, exact = row[live], vn1[live], vn2[live]
    else:
        norms, exact = vn1, vn2
    temp, ratio = buf[0, :norms.size], buf[1, :norms.size]
    np.abs(row, out=temp)
    temp /= norms
    np.subtract(1.0, temp, out=ratio)
    temp += 1.0
    temp *= ratio
    np.maximum(temp, 0.0, out=temp)
    np.divide(norms, exact, out=ratio)
    ratio *= ratio
    ratio *= temp
    lost = ratio <= tol3z
    np.sqrt(temp, out=temp)
    if not lost.any():
        lost = _NONE
    else:
        temp[lost] = 1.0  # flagged norms are recomputed, not downdated
        lost = np.flatnonzero(lost)
    if live is None:
        vn1 *= temp
        return lost
    vn1[live] = norms * temp
    return live[lost]


def _gemv_spans(crew, rows: int, cols: int) -> list:
    """Column ranges of a (rows, cols) trailing ``dgemv`` for ``crew``."""
    blocks = -(-cols // _GEMV_COLUMNS)
    count = _parallel.workers(rows * cols, _parallel.MIN_GEMV_ENTRIES, blocks, crew.count)
    return _parallel.ranges(blocks, _GEMV_COLUMNS, count, cols)


def _gemm_spans(crew, rows: int, cols: int, depth: int) -> list:
    """Column ranges of a (rows, cols, depth) panel update ``dgemm`` for
    ``crew``: the most that keep every range at least two ``_GEMM_COLUMNS``
    blocks wide and above ``_GEMM_BITS_FLOOR`` multiply-adds."""
    blocks = -(-cols // _GEMM_COLUMNS)
    count = _parallel.workers(rows * cols * depth, _GEMM_BITS_FLOOR, blocks // 2, crew.count)
    while count > 1:
        spans = _parallel.ranges(blocks, _GEMM_COLUMNS, count, cols)
        if all(hi - lo >= 2 * _GEMM_COLUMNS and rows * (hi - lo) * depth > _GEMM_BITS_FLOOR
               for lo, hi in spans):
            return spans
        count -= 1
    return [(0, cols)]


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
