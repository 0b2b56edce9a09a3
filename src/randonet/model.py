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

Every matrix that training factors is feature-major, features x samples
(the trunk is built as ``T.T``), and every solve applies a pseudo-inverse
from the right, ``X @ pinv(A)``.

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

import contextlib
import json
import os
import time
import uuid
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import _parallel, linalg
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


def _metadata(solver, tol, reg, start, featured, factorized, end) -> dict:
    """The ``train_metadata`` entries that both solves record.

    ``stages`` holds the seconds of the three training stages between four
    clock readings. The readings come from one ``perf_counter`` run and lie
    close together, so each difference is exact and the stages sum to
    ``train_seconds``.
    """
    return {
        "solver": solver,
        "tol": tol,
        "reg": reg,
        "train_seconds": end - start,
        "stages": {
            "features": featured - start,
            "factorize": factorized - featured,
            "solve": end - factorized,
        },
    }


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


def _check_inputs(trunk_spec, branch_spec, solver: str, tol, reg: float,
                  sensors: int, location_dim: int) -> None:
    """:func:`_check_solver`, and reject a map given as anything but an
    :class:`EmbeddingSpec` or one whose input dimension is not the data's:
    ``sensors`` for the branch, ``location_dim`` for the trunk."""
    _check_solver(solver, tol, reg)
    for spec in (trunk_spec, branch_spec):
        if not isinstance(spec, EmbeddingSpec):
            raise TypeError(f"expected an EmbeddingSpec, got {type(spec).__name__}")
    if branch_spec.input_dim != sensors:
        raise ValueError(
            f"branch input_dim {branch_spec.input_dim} does not match sensor count {sensors}"
        )
    if trunk_spec.input_dim != location_dim:
        where = "scalar" if location_dim == 1 else f"{location_dim}-D"
        raise ValueError(f"trunk input_dim must be {location_dim} for {where} output locations")


def _pinv_pair(mat: np.ndarray, solver: str, tol, reg: float, name: str):
    """Factor ``mat`` once; return (apply, rank_facts), ``apply(b) = b @ pinv(mat)``.

    'cod' hands ``mat`` to :func:`linalg.cod_factorize` with
    ``overwrite_a=True``, which factors it in its own storage when it is
    Fortran-ordered, so the caller must not read ``mat`` afterwards.
    'tikhonov' takes one SVD, filtered with weight ``reg``; at ``reg = 0``
    that is the SVD truncated at the auto tolerance. ``rank_facts`` holds ``{name}_rank`` and
    ``{name}_rank_tolerance`` whenever ``reg = 0``, that is, whenever the
    factorization truncates.
    """
    if solver == "cod":
        factors = linalg.cod_factorize(mat, tol, overwrite_a=True)
        apply_ = linalg.cod_pinv_apply
    else:
        factors, apply_ = linalg.tsvd_factorize(mat, reg=reg), linalg.tsvd_pinv_apply
    ranks = {f"{name}_rank": factors.rank, f"{name}_rank_tolerance": factors.rank_tolerance}
    return (lambda b: apply_(factors, b)), (ranks if reg == 0 else {})


def _trained_model(trunk: FeatureMap, branch: FeatureMap, w: np.ndarray,
                   metadata: dict) -> RandONetModel:
    """The model, with ``readout_norm`` (the Frobenius norm of ``w``) added
    to ``metadata``, or a :class:`TrainingError` quoting the solver
    settings and rank facts of ``metadata`` when ``w`` is not finite."""
    if not np.all(np.isfinite(w)):
        facts = ", ".join(f"{key}={value!r}" for key, value in metadata.items()
                          if key in ("solver", "tol", "reg") or "_rank" in key)
        raise TrainingError(f"solver produced non-finite weights ({facts})")
    metadata["readout_norm"] = float(np.linalg.norm(w))
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
    A map that is not an :class:`EmbeddingSpec`, an unknown solver, a
    negative or non-finite ``reg`` or a setting the solver would ignore is
    rejected before any feature is built. The trunk matrix is
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
    fit holds each once.
    """
    _check_inputs(trunk_spec, branch_spec, solver, tol, reg, ds.x.size, 1)
    trunk, branch = build_feature_map(trunk_spec), build_feature_map(branch_spec)

    start = time.perf_counter()
    # (N, n) and (M, s), Fortran-ordered as apply returns them: the in-place
    # COD factors them where they lie.
    t_mat = trunk.apply(ds.y[None, :])
    b_mat = branch.apply(ds.U)
    featured = time.perf_counter()
    trunk_apply, trunk_ranks = _pinv_pair(t_mat, solver, tol, reg, "trunk")
    branch_apply, branch_ranks = _pinv_pair(b_mat, solver, tol, reg, "branch")
    del t_mat, b_mat
    factorized = time.perf_counter()
    w = trunk_apply(branch_apply(ds.V).T).T
    end = time.perf_counter()
    metadata = {**_metadata(solver, tol, reg, start, featured, factorized, end),
                "n_train_functions": ds.n_functions, **trunk_ranks, **branch_ranks}
    return _trained_model(trunk, branch, w, metadata)


def _collocation_matrix(trunk: FeatureMap, branch: FeatureMap, ds: UnalignedDataset):
    """The (M*N, S) collocation matrix ``Z``, Fortran-ordered.

    Row ``k + i*N`` is the elementwise product of trunk feature row k and
    branch feature row i.
    """
    # (N, S) and (M, S) in Fortran order, so their transposes are C-ordered.
    t_mat = trunk.apply(ds.Y)
    b_mat = branch.apply(ds.U)
    product = np.multiply(b_mat.T[:, :, None], t_mat.T[:, None, :], order="C")  # (S, M, N)
    return product.reshape(ds.n_samples, -1).T


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
    Bad maps and solver settings are rejected first, as by
    :func:`train_aligned`: the branch input dimension must equal the row
    count of ``U`` and the trunk's that of ``Y``.
    """
    _check_inputs(trunk_spec, branch_spec, solver, tol, reg, ds.U.shape[0], ds.Y.shape[0])
    n_feat = trunk_spec.feature_dim
    m_feat = branch_spec.feature_dim
    n_samples = ds.n_samples
    entries = n_feat * m_feat * n_samples
    if entries > MAX_COLLOCATION_ENTRIES:
        raise ValueError(
            f"collocation matrix would hold {entries} entries "
            f"(N={n_feat}, M={m_feat}, S={n_samples}), above the budget of "
            f"{MAX_COLLOCATION_ENTRIES}; Z holds N*M*S doubles, its pivoted QR costs "
            "O(N M S min(N M, S)), and the unaligned solve is meant for sparse outputs only"
        )

    trunk, branch = build_feature_map(trunk_spec), build_feature_map(branch_spec)

    start = time.perf_counter()
    z = _collocation_matrix(trunk, branch, ds)
    featured = time.perf_counter()
    collocation_apply, collocation_ranks = _pinv_pair(z, solver, tol, reg, "collocation")
    del z
    factorized = time.perf_counter()
    omega = collocation_apply(ds.V[None, :])
    w = omega.reshape(m_feat, n_feat).T
    end = time.perf_counter()
    metadata = {**_metadata(solver, tol, reg, start, featured, factorized, end),
                "n_train_samples": n_samples, **collocation_ranks}
    return _trained_model(trunk, branch, w, metadata)


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


def _write_replacing(path, write) -> None:
    """Call ``write`` on a new file next to ``path``, then move that file onto
    ``path``, so readers never see a partial file and a failed write leaves
    the file it was replacing whole. The new file has the mode a plain
    ``open(path, "wb")`` gives a new file (``mkstemp`` would make it 0600).
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_model(model: RandONetModel, path) -> None:
    """Serialize a trained model (embedding specs, training metadata, W).

    The whole payload is built before any file is touched, so metadata that
    is not JSON raises with the file at ``path`` as it was. A path is written
    through :func:`_write_replacing`, under the name given: ``np.savez``
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
        _write_replacing(path, lambda fh: np.savez(fh, **payload))


def load_model(path) -> RandONetModel:
    """Load a model saved by :func:`save_model`.

    Feature maps are re-sampled from their stored specs (seed, dims, kind),
    which reproduces the saved model's predictions bit-for-bit on the same
    platform. The ``solver_used`` entry of older files repeats
    ``train_metadata['solver']`` and is not read. A file that is not an
    ``.npz`` archive with a ``format_version`` entry raises ``ValueError``.
    """
    def not_a_model(reason) -> ValueError:
        return ValueError(f"{path} is not a randonet model file: {reason}")

    # Our own handle for a path: np.load leaks its file when a truncated zip makes it raise.
    with (contextlib.nullcontext(path) if hasattr(path, "read") else open(path, "rb")) as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise not_a_model(exc) from None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise not_a_model("a single array, not an .npz archive")
        with data:
            if "format_version" not in data.files:
                raise not_a_model("no format_version entry")
            version = int(data["format_version"])
            if version != MODEL_FORMAT_VERSION:
                raise ValueError(f"unsupported model format version {version}")
            trunk = build_feature_map(EmbeddingSpec.from_dict(json.loads(str(data["trunk_spec"]))))
            branch = build_feature_map(
                EmbeddingSpec.from_dict(json.loads(str(data["branch_spec"]))))
            readout = data["readout"]
            metadata = json.loads(str(data["metadata"]))
    return RandONetModel(trunk=trunk, branch=branch, readout=readout, train_metadata=metadata)
