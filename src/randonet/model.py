"""Operator networks with random features and a one-shot linear readout.

A model is a tanh trunk map over output locations, a branch map over the
discretized input function, and a readout matrix ``W`` combining them:

    prediction at y for input u  =  T(y) @ W @ B(u),

with ``T(y)`` the (1, N) trunk feature row and ``B(u)`` the (M, 1) branch
feature column. ``W`` is the only trained quantity and is obtained in one
shot from regularized linear least squares.

For aligned data (all functions share one output grid) the double-sided
system ``V = T W B`` is solved as ``W = pinv(T) V pinv(B)`` with the
pseudo-inverses taken by complete orthogonal decomposition (default) or
Tikhonov regularization, the paper's two solvers. For unaligned data (one
output location per sample) the same unknowns are solved through a
collocation matrix whose rows are elementwise products of trunk and
branch feature rows.

Both fits run one routine: check the settings and specs, build the
feature matrices, factor each one once, apply the pseudo-inverses and
record the same ``train_metadata``. They differ only in the matrices they
build (trunk and branch, or the collocation matrix) and in how W comes out
of the applies. Every matrix that training factors is feature-major,
features x samples (the trunk is built as ``T.T``), and every solve applies
a pseudo-inverse from the right, ``X @ pinv(A)``.

A fit whose largest matrix holds more than 2^22 float64 entries (32 MiB)
first calls glibc's ``malloc_trim(0)``. glibc maps a block that large
afresh, so it cannot reuse the free pages that earlier frees left resident
in the heap; handing those back first makes the fit's peak its live data
plus that matrix. Smaller fits skip the call, and so does a process whose
C library has no ``malloc_trim``; the call moves no bits.

A fit is reproducible bit for bit with the same numpy, scipy and BLAS
builds, the same usable CPUs and the same BLAS thread count. The COD's
factors do not depend on the caller's thread count (see
:mod:`randonet.linalg`), but the readout's last bits do; the feature maps
do not, and the numerical ranks of the paper-size fits did not at one and
two OpenBLAS threads.

:func:`evaluate` holds numpy's OpenBLAS at one thread, so a model's
predictions do not depend on the BLAS thread count, and splits a large
readout product into row ranges on threads (see :mod:`randonet._parallel`).
"""

from __future__ import annotations

import ctypes
import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import _npz, _parallel, linalg
from ._checks import check_reg, check_tol, finite_array
from .embeddings import EmbeddingSpec, FeatureMap, build_feature_map

__all__ = [
    "AlignedDataset",
    "UnalignedDataset",
    "RandONetModel",
    "TrainingError",
    "SOLVERS",
    "train_aligned",
    "train_unaligned",
    "evaluate",
    "explode_aligned",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

SOLVERS = ("cod", "tikhonov")

MODEL_FORMAT_VERSION = 1

# Largest N*M*S for which train_unaligned builds its collocation matrix.
MAX_COLLOCATION_ENTRIES = 5_000_000

# Trunk rows per block of evaluate's split readout product; every row range
# starts on a block. BLAS GEMM kernels compute the rows of a row-major
# product in tiles, and the rows of a partial tile round differently, so a
# range that starts inside a tile moves last bits. 48 is a multiple of the
# common double tile heights (2, 4, 6, 8, 12, 16, 24): on a 2-core AVX-512
# Xeon ranges starting at multiples of 12, 24 or 48 rows kept the bits of
# one product, and those starting at multiples of 4, 8, 16 or 32 did not.
_READOUT_ROWS = 48


# A fit whose largest matrix holds more float64 entries than this first hands
# the C heap's free pages back to the OS. 2^22 entries are 32 MiB, glibc's
# ceiling for its dynamic mmap threshold (DEFAULT_MMAP_THRESHOLD_MAX in
# mallopt(3)): a larger block is always mapped afresh and cannot reuse the
# pages that earlier frees left resident in the heap.
_TRIM_ENTRIES = 1 << 22


def _find_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _find_malloc_trim()


def _trim_heap(entries: int) -> None:
    """``malloc_trim(0)`` if ``entries`` exceeds :data:`_TRIM_ENTRIES`."""
    if entries > _TRIM_ENTRIES and _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class TrainingError(RuntimeError):
    """Raised when a least-squares solve produces non-finite weights."""


@dataclass(frozen=True)
class AlignedDataset:
    """Input/output function pairs sharing fixed sensor and output grids.

    ``U`` is (m, s): column i holds input function i sampled on the m
    sensor locations ``x``. ``V`` is (n, s): the matching outputs on the
    n output locations ``y``.
    """

    x: np.ndarray
    y: np.ndarray
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        x, y = finite_array(self.x, "x"), finite_array(self.y, "y")
        # C order is the layout feature maps read, so applying one to U (a
        # column subset from split included) copies nothing.
        u = finite_array(self.U, "U", order="C")
        v = finite_array(self.V, "V")
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("grids must be 1-D")
        if u.ndim != 2 or v.ndim != 2:
            raise ValueError("U and V must be 2-D (functions in columns)")
        if u.shape != (x.size, v.shape[1]) or v.shape[0] != y.size:
            raise ValueError(
                f"inconsistent shapes: x {x.shape}, y {y.shape}, U {u.shape}, V {v.shape}"
            )
        if u.shape[1] == 0:
            raise ValueError(f"a dataset needs at least one function, got U of shape {u.shape}")
        for name, arr, what in (("x", x, "sensor"), ("y", y, "output location")):
            if arr.size == 0:
                raise ValueError(f"a dataset needs at least one {what}, got {name} of shape "
                                 f"{arr.shape}")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("grids must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "V", v)

    @property
    def n_functions(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class UnalignedDataset:
    """One output value per sample, at a sample-specific location.

    ``U`` is (m, S) with repeated columns allowed, ``Y`` is (d, S) with the
    query location of each sample, ``V`` is (S,) with the scalar outputs.
    """

    U: np.ndarray
    Y: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        # C order, as in AlignedDataset: applying the branch copies nothing.
        u = finite_array(self.U, "U", order="C")
        y = np.atleast_2d(finite_array(self.Y, "Y"))
        v = finite_array(self.V, "V").ravel()
        if u.ndim != 2:
            raise ValueError("U must be 2-D (samples in columns)")
        if not (u.shape[1] == y.shape[1] == v.size):
            raise ValueError(
                f"sample counts differ: U {u.shape}, Y {y.shape}, V ({v.size},)"
            )
        if v.size == 0:
            raise ValueError(f"a dataset needs at least one sample, got U of shape {u.shape}")
        for name, arr, what in (("U", u, "sensor"), ("Y", y, "location coordinate")):
            if arr.shape[0] == 0:
                raise ValueError(f"a dataset needs at least one {what}, got {name} of shape "
                                 f"{arr.shape}")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "V", v)

    @property
    def n_samples(self) -> int:
        return self.V.size


@dataclass(frozen=True)
class RandONetModel:
    """Trained operator network: trunk and branch maps plus readout W."""

    trunk: FeatureMap
    branch: FeatureMap
    readout: np.ndarray
    train_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        w = finite_array(self.readout, "readout")
        expected = (self.trunk.spec.feature_dim, self.branch.spec.feature_dim)
        if w.shape != expected:
            raise ValueError(f"readout must have shape {expected}, got {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "readout", w)


def _check_solver(solver: str, tol, reg: float) -> None:
    """Reject an unknown solver, a bad ``reg`` or ``tol`` and a setting the
    solver would ignore."""
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    check_reg(reg)
    if solver == "tikhonov" and tol is not None:
        raise ValueError(f"solver 'tikhonov' takes no tol, got {tol}")
    if solver == "cod" and reg != 0:
        raise ValueError(f"solver 'cod' takes no regularization weight, got {reg}")
    check_tol(tol)


def _check_dataset(ds, kind) -> None:
    """``TypeError`` naming both types unless ``ds`` is a ``kind``."""
    if not isinstance(ds, kind):
        raise TypeError(f"expected an {kind.__name__}, got {type(ds).__name__}")


def _fit(ds, trunk_spec, branch_spec, solver: str, tol, reg: float, location_dim: int,
         count: dict, largest, matrices, solve) -> RandONetModel:
    """The one training routine behind :func:`train_aligned` and
    :func:`train_unaligned`.

    It runs :func:`_check_solver`, rejects a map given as anything but an
    :class:`EmbeddingSpec` and one whose input dimension is not the data's
    (the row count of ``ds.U`` for the branch, ``location_dim`` for the
    trunk) and builds both maps. It then runs :func:`_trim_heap` on
    ``largest(N, M)``, the entries of the largest matrix the fit builds for
    N trunk and M branch features, and calls ``matrices(trunk, branch)``
    for the named matrices to factor. Each is factored once and dropped:
    'cod' by :func:`linalg.cod_factorize` in its own storage, 'tikhonov' by
    one SVD filtered with weight ``reg``. ``solve(pinv)`` returns W from the
    applies ``pinv[name](b) = b @ pinv(matrix)``.

    ``train_metadata`` holds the settings, ``train_seconds`` and ``stages``
    (the differences of four ``perf_counter`` readings, which lie close
    together, so each difference is exact and the stages sum to
    ``train_seconds``), ``count``, the ``{name}_rank`` and
    ``{name}_rank_tolerance`` of each matrix when ``reg = 0`` (when the
    factorization truncates) and ``readout_norm``. A W that is not finite
    raises :class:`TrainingError` quoting the settings and rank facts.
    """
    _check_solver(solver, tol, reg)
    for spec in (trunk_spec, branch_spec):
        if not isinstance(spec, EmbeddingSpec):
            raise TypeError(f"expected an EmbeddingSpec, got {type(spec).__name__}")
    sensors = ds.U.shape[0]
    if branch_spec.input_dim != sensors:
        raise ValueError(
            f"branch input_dim {branch_spec.input_dim} does not match sensor count {sensors}"
        )
    if trunk_spec.input_dim != location_dim:
        where = "scalar" if location_dim == 1 else f"{location_dim}-D"
        raise ValueError(f"trunk input_dim must be {location_dim} for {where} output locations")
    trunk, branch = build_feature_map(trunk_spec), build_feature_map(branch_spec)
    _trim_heap(largest(trunk_spec.feature_dim, branch_spec.feature_dim))

    start = time.perf_counter()
    mats = matrices(trunk, branch)
    featured = time.perf_counter()
    pinv, ranks = {}, {}
    for name in list(mats):
        if solver == "cod":
            factors = linalg.cod_factorize(mats.pop(name), tol, overwrite_a=True)
            pinv[name] = functools.partial(linalg.cod_pinv_apply, factors)
        else:
            factors = linalg.tsvd_factorize(mats.pop(name), reg=reg)
            pinv[name] = functools.partial(linalg.tsvd_pinv_apply, factors)
        if reg == 0:
            ranks.update({f"{name}_rank": factors.rank,
                          f"{name}_rank_tolerance": factors.rank_tolerance})
    factorized = time.perf_counter()
    w = solve(pinv)
    end = time.perf_counter()
    settings = {"solver": solver, "tol": tol, "reg": reg}
    if not np.all(np.isfinite(w)):
        facts = ", ".join(f"{key}={value!r}" for key, value in {**settings, **ranks}.items())
        raise TrainingError(f"solver produced non-finite weights ({facts})")
    metadata = {**settings, "train_seconds": end - start,
                "stages": {"features": featured - start, "factorize": factorized - featured,
                           "solve": end - factorized},
                **count, **ranks, "readout_norm": float(np.linalg.norm(w))}
    return RandONetModel(trunk=trunk, branch=branch, readout=w, train_metadata=metadata)


def train_aligned(
    ds: AlignedDataset,
    trunk_spec: EmbeddingSpec,
    branch_spec: EmbeddingSpec,
    solver: str = "cod",
    tol: float | None = None,
    reg: float = 0.0,
) -> RandONetModel:
    """Solve ``W = pinv(T) V pinv(B)`` on an aligned dataset.

    Parameters
    ----------
    ds : AlignedDataset
    trunk_spec, branch_spec : EmbeddingSpec
        The maps are ``build_feature_map`` of these specs. The trunk must
        accept 1-D locations; the branch input dimension must equal the
        sensor count of ``ds``.
    solver : {'cod', 'tikhonov'}
        Pseudo-inversion route for both matrices.
    tol : float, optional
        Rank tolerance for 'cod' (None = auto); 'tikhonov' takes none.
    reg : float
        Tikhonov weight, finite and >= 0; 'cod' takes 0 only.

    Notes
    -----
    A dataset that is not an :class:`AlignedDataset` or a map that is not
    an :class:`EmbeddingSpec` raises ``TypeError``; these, an unknown
    solver, a negative or non-finite ``reg`` and a setting the solver would
    ignore are rejected before any feature is built. The trunk matrix is
    built feature-major, as ``T.T`` (N, n), so both solves are right
    applies: ``pinv(T) V = (V.T pinv(T.T)).T``. The two pseudo-inverses are
    each computed once and applied to the (n, s) matrix V in one order,
    the branch's first: ``W = pinv(T) (V pinv(B))``, at ``n s M + N n M``
    multiply-adds for N trunk and M branch features. Wall time of the
    solve is recorded in ``train_metadata['train_seconds']`` and split into
    ``train_metadata['stages']``, the seconds of ``features`` (trunk and
    branch matrices), ``factorize`` (the COD or the SVD of each matrix,
    Tikhonov's included) and ``solve`` (applying the pseudo-inverses). A
    truncating fit ('cod', or 'tikhonov' at ``reg = 0``) also records the
    numerical rank and rank tolerance of each matrix as ``trunk_rank``,
    ``trunk_rank_tolerance``, ``branch_rank`` and ``branch_rank_tolerance``;
    a :class:`TrainingError` quotes them with the solver settings. Every
    fit records ``readout_norm``, the Frobenius norm of W: how much
    cancellation each prediction carries.

    The 'cod' route consumes the trunk and branch matrices it builds: both
    are built in Fortran order and factored in their own storage, so the
    fit holds each once. When the larger of the two holds more than
    ``2^22`` entries (32 MiB, the paper-size RFFN(2000) branches of cases 2
    and 5), glibc's ``malloc_trim(0)`` runs once before either is built,
    so the fit's peak memory is its live data plus that matrix. The checks,
    factorizations, timings and metadata are those of
    :func:`train_unaligned`: one routine serves both fits.
    """
    _check_dataset(ds, AlignedDataset)

    def matrices(trunk, branch):
        # (N, n) and (M, s), Fortran-ordered as apply returns them: the
        # in-place COD factors them where they lie.
        return {"trunk": trunk.apply(ds.y[None, :]), "branch": branch.apply(ds.U)}

    return _fit(ds, trunk_spec, branch_spec, solver, tol, reg, 1,
                {"n_train_functions": ds.n_functions},
                lambda n_feat, m_feat: max(n_feat * ds.y.size, m_feat * ds.n_functions),
                matrices,
                lambda pinv: pinv["trunk"](pinv["branch"](ds.V).T).T)


def train_unaligned(
    ds: UnalignedDataset,
    trunk_spec: EmbeddingSpec,
    branch_spec: EmbeddingSpec,
    solver: str = "cod",
    tol: float | None = None,
    reg: float = 0.0,
) -> RandONetModel:
    """Solve the readout from per-sample collocation rows.

    Builds the (N*M, S) matrix ``Z`` whose row ``q = k + i*N`` is the
    elementwise product of trunk feature row k and branch feature row i,
    solves ``omega = V pinv(Z)``, and reshapes ``omega`` back into W.

    ``Z`` holds ``N*M*S`` doubles and its pivoted QR costs
    ``O(N*M*S * min(N*M, S))``, so the build refuses instances with
    ``N*M*S`` above :data:`MAX_COLLOCATION_ENTRIES` rather than thrash
    memory. A truncating fit records the numerical rank and rank
    tolerance of ``Z`` in ``train_metadata`` as ``collocation_rank`` and
    ``collocation_rank_tolerance``. ``train_metadata['stages']`` splits
    ``train_seconds`` as in :func:`train_aligned`, with the build of ``Z``
    counted under ``features``, and ``readout_norm`` is recorded as there.

    ``Z`` is built in Fortran order, as the transpose of a C-ordered
    (S, M*N) product, and the 'cod' route factors it in its own storage.
    A ``Z`` of more than ``2^22`` entries (32 MiB) is preceded by one call
    of glibc's ``malloc_trim(0)``, as in :func:`train_aligned`.
    A dataset that is not an :class:`UnalignedDataset` raises
    ``TypeError`` first. Bad maps and solver settings are rejected next, by
    the routine that :func:`train_aligned` runs too: the branch input
    dimension must equal the row count of ``U`` and the trunk's that of
    ``Y``. The budget is
    checked after them and before any feature is built.
    """
    _check_dataset(ds, UnalignedDataset)

    def matrices(trunk, branch):
        n_feat, m_feat = trunk_spec.feature_dim, branch_spec.feature_dim
        entries = n_feat * m_feat * ds.n_samples
        if entries > MAX_COLLOCATION_ENTRIES:
            raise ValueError(
                f"collocation matrix would hold {entries} entries "
                f"(N={n_feat}, M={m_feat}, S={ds.n_samples}), above the budget of "
                f"{MAX_COLLOCATION_ENTRIES}; Z holds N*M*S doubles, its pivoted QR costs "
                "O(N M S min(N M, S)), and the unaligned solve is meant for sparse outputs only"
            )
        # (N, S) and (M, S) in Fortran order, so their transposes are C-ordered.
        t_mat, b_mat = trunk.apply(ds.Y), branch.apply(ds.U)
        product = np.multiply(b_mat.T[:, :, None], t_mat.T[:, None, :], order="C")  # (S, M, N)
        return {"collocation": product.reshape(ds.n_samples, -1).T}

    return _fit(ds, trunk_spec, branch_spec, solver, tol, reg, ds.Y.shape[0],
                {"n_train_samples": ds.n_samples},
                lambda n_feat, m_feat: n_feat * m_feat * ds.n_samples, matrices,
                lambda pinv: pinv["collocation"](ds.V[None, :]).reshape(
                    branch_spec.feature_dim, trunk_spec.feature_dim).T)


def evaluate(model: RandONetModel, u_samples, y_points) -> np.ndarray:
    """Evaluate the learned operator.

    Parameters
    ----------
    model : RandONetModel
    u_samples : array_like, shape (m,) or (m, k)
        One or more discretized input functions (columns).
    y_points : array_like, shape (q,) or (d, q)
        Output locations: shape (q,) for a trunk of ``input_dim`` 1, and
        (d, q), one location per column, for a trunk of ``input_dim`` d > 1.

    Returns
    -------
    ndarray
        Shape (q,) for a single input function, else (q, k).

    Raises
    ------
    ValueError
        If ``y_points`` does not have the shape above, or either argument
        is complex or holds a NaN or an infinity; checked before any
        feature is built.

    Notes
    -----
    numpy's OpenBLAS runs at one thread for the whole call, and the
    caller's count is restored afterwards. ``T W B`` splits into ranges of
    ``_READOUT_ROWS`` trunk rows by the rule of ``FeatureMap.apply``, with
    the branch feature entries as its work.
    """
    u, y = finite_array(u_samples, "u_samples"), finite_array(y_points, "y_points")
    dim = model.trunk.spec.input_dim
    if dim == 1:
        if y.ndim > 1:
            raise ValueError(f"y_points must be 1-D, got shape {y.shape}")
        y = np.atleast_1d(y)[None, :]
    elif y.ndim != 2 or y.shape[0] != dim:
        raise ValueError(f"y_points must have shape ({dim}, q) for a trunk of input_dim "
                         f"{dim}, got shape {y.shape}")
    single = u.ndim == 1
    if single:
        u = u[:, None]
    with _parallel.one_blas_thread:
        t_mat = model.trunk.apply(y).T  # (q, N), C-ordered
        b_mat = model.branch.apply(u)  # (M, k), Fortran-ordered
        out = _readout_product(t_mat, model.readout, b_mat)
    return out[:, 0] if single else out


def _readout_product(t_mat: np.ndarray, w: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    """``t_mat @ w @ b_mat``, in ranges of whole ``_READOUT_ROWS`` row blocks,
    the last one holding the partial block, one on each worker thread."""
    q, (m_feat, k) = t_mat.shape[0], b_mat.shape
    blocks = max(q // _READOUT_ROWS, 1)
    count = _parallel.workers(m_feat * k, _parallel.MIN_RANGE_ENTRIES, blocks)
    out = np.empty((q, k))

    def product(lo, hi):
        np.matmul(t_mat[lo:hi] @ w, b_mat, out=out[lo:hi])

    _parallel.in_threads(product, _parallel.ranges(blocks, _READOUT_ROWS, count, q))
    return out


def explode_aligned(ds: AlignedDataset) -> UnalignedDataset:
    """Rewrite an aligned dataset as one sample per output location.

    Function j occupies columns ``j*n .. j*n + n - 1`` (the column-major
    flattening of V), so the result has ``S = n * s`` samples.
    """
    n = ds.y.size
    s = ds.n_functions
    return UnalignedDataset(
        U=np.repeat(ds.U, n, axis=1),
        Y=np.tile(ds.y, s)[None, :],
        V=ds.V.flatten(order="F"),
    )


def save_model(model: RandONetModel, path) -> None:
    """Serialize a trained model (embedding specs, training metadata, W).

    The whole payload is built before any file is touched, so metadata that
    is not JSON raises with the file at ``path`` as it was. A path is written
    through :func:`randonet._npz.write_replacing`, under the name given: ``np.savez``
    would append ``.npz`` to a path without that suffix. An open file is
    written directly.
    """
    payload = dict(
        format_version=MODEL_FORMAT_VERSION,
        trunk_spec=json.dumps(model.trunk.spec.to_dict()),
        branch_spec=json.dumps(model.branch.spec.to_dict()),
        readout=model.readout,
        metadata=json.dumps(model.train_metadata),
    )
    if hasattr(path, "write"):
        np.savez(path, **payload)
    else:
        _npz.write_replacing(path, lambda fh: np.savez(fh, **payload))


def _integer(arr: np.ndarray) -> int:
    if arr.shape != () or arr.dtype.kind not in "iu":
        raise ValueError(f"expected an integer, got a {arr.dtype} array of shape {arr.shape}")
    return int(arr)


def _json_object(arr: np.ndarray) -> dict:
    value = json.loads(str(arr))
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got a {type(value).__name__}")
    return value


def load_model(path) -> RandONetModel:
    """Load a model saved by :func:`save_model`.

    Feature maps are re-sampled from their stored specs (seed, dims, kind),
    which reproduces the saved model's predictions bit-for-bit on the same
    platform. The ``solver_used`` entry of older files repeats
    ``train_metadata['solver']`` and is not read. A file that is not an
    ``.npz`` archive, or lacks an entry or holds one that does not parse
    (``format_version`` an integer; the specs and ``metadata`` JSON
    objects; ``readout`` a finite matrix of the maps' shape), raises
    ``ValueError`` naming the entry.
    """
    with _npz.entries(path, "model file") as entry:
        version = entry("format_version", _integer)
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        trunk, branch = (build_feature_map(entry(name, lambda arr: EmbeddingSpec.from_dict(
            _json_object(arr)))) for name in ("trunk_spec", "branch_spec"))
        metadata = entry("metadata", _json_object)
        return entry("readout", lambda readout: RandONetModel(
            trunk=trunk, branch=branch, readout=readout, train_metadata=metadata))
