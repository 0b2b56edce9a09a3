"""Operator networks with random features and a one-shot linear readout.

A model is a tanh trunk map over output locations, a branch map over the
discretized input function, and a readout matrix ``W`` combining them:

    prediction at y for input u  =  T(y) @ W @ B(u),

with ``T(y)`` the (1, N) trunk feature row and ``B(u)`` the (M, 1) branch
feature column. ``W`` is the only trained quantity and is obtained in one
shot from regularized linear least squares.

For aligned data (all functions share one output grid) the double-sided
system ``V = T W B`` is solved as ``W = pinv(T) V pinv(B)`` with the
pseudo-inverses taken by complete orthogonal decomposition (default),
truncated SVD, or Tikhonov regularization. For unaligned data (one output
location per sample) the same unknowns are solved through a collocation
matrix whose rows are elementwise products of trunk and branch feature
rows.

Every matrix that training factors is feature-major, features x samples
(the trunk is built as ``T.T``), and every solve applies a pseudo-inverse
from the right, ``X @ pinv(A)``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
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

SOLVERS = ("cod", "tsvd", "tikhonov")

MODEL_FORMAT_VERSION = 1

# Largest N*M*S for which train_unaligned builds its collocation matrix.
MAX_COLLOCATION_ENTRIES = 5_000_000


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
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        u = np.asarray(self.U, dtype=np.float64)
        v = np.asarray(self.V, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("grids must be 1-D")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("grids must be strictly increasing")
        if u.ndim != 2 or v.ndim != 2:
            raise ValueError("U and V must be 2-D (functions in columns)")
        if u.shape != (x.size, v.shape[1]) or v.shape[0] != y.size:
            raise ValueError(
                f"inconsistent shapes: x {x.shape}, y {y.shape}, U {u.shape}, V {v.shape}"
            )
        for name, arr in (("U", u), ("V", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
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
        u = np.asarray(self.U, dtype=np.float64)
        y = np.atleast_2d(np.asarray(self.Y, dtype=np.float64))
        v = np.asarray(self.V, dtype=np.float64).ravel()
        if u.ndim != 2:
            raise ValueError("U must be 2-D (samples in columns)")
        if not (u.shape[1] == y.shape[1] == v.size):
            raise ValueError(
                f"sample counts differ: U {u.shape}, Y {y.shape}, V ({v.size},)"
            )
        for name, arr in (("U", u), ("Y", y), ("V", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
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
    solver_used: str
    train_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.readout, dtype=np.float64)
        expected = (self.trunk.spec.feature_dim, self.branch.spec.feature_dim)
        if w.shape != expected:
            raise ValueError(f"readout must have shape {expected}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("readout contains non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "readout", w)


def _ensure_map(spec_or_map) -> FeatureMap:
    if isinstance(spec_or_map, FeatureMap):
        return spec_or_map
    if isinstance(spec_or_map, EmbeddingSpec):
        return build_feature_map(spec_or_map)
    raise TypeError(f"expected EmbeddingSpec or FeatureMap, got {type(spec_or_map).__name__}")


def _conditioning_note(name: str, mat: np.ndarray) -> str:
    s = np.linalg.svd(mat, compute_uv=False)
    smin = s[-1] if s.size else 0.0
    smax = s[0] if s.size else 0.0
    return f"{name}: shape {mat.shape}, sigma_max {smax:.3e}, sigma_min {smin:.3e}"


def _metadata(solver, tol, reg, trunk, branch, start, featured, factorized, end) -> dict:
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
        "trunk_seed": trunk.spec.seed,
        "branch_seed": branch.spec.seed,
        "train_seconds": end - start,
        "stages": {
            "features": featured - start,
            "factorize": factorized - featured,
            "solve": end - factorized,
        },
    }


def _check_solver(solver: str, tol, reg: float) -> None:
    """Reject an unknown solver, a bad ``reg`` and a setting the solver would ignore."""
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if not reg >= 0:
        raise ValueError(f"regularization weight must be >= 0, got {reg}")
    if solver == "tikhonov" and tol is not None:
        raise ValueError(f"solver 'tikhonov' truncates nothing and takes no tol, got {tol}")
    if solver != "tikhonov" and reg != 0:
        raise ValueError(f"solver {solver!r} takes no regularization weight, got {reg}")


def _pinv_pair(mat: np.ndarray, solver: str, tol, reg: float, name: str):
    """Factor ``mat`` once; return (apply, rank_facts), ``apply(b) = b @ pinv(mat)``.

    The 'cod' route hands ``mat`` to :func:`linalg.inplace_cod_factorize`,
    which factors it in its own storage when it is Fortran-ordered, so the
    caller must not read ``mat`` afterwards. 'tsvd' and 'tikhonov' take one
    SVD, truncated at ``tol`` or filtered with weight ``reg`` at the auto
    tolerance (:func:`_check_solver` leaves each route only its own
    setting). ``rank_facts`` holds ``{name}_rank`` and
    ``{name}_rank_tolerance`` for 'cod' and 'tsvd', and is empty for
    'tikhonov', which truncates nothing.
    """
    if solver == "cod":
        factors = linalg.inplace_cod_factorize(mat, tol)
        apply_, rank = linalg.cod_pinv_apply, factors.numerical_rank
    else:
        factors = linalg.tsvd_factorize(mat, tol, reg)
        apply_, rank = linalg.tsvd_pinv_apply, factors.rank
    ranks = {f"{name}_rank": rank, f"{name}_rank_tolerance": factors.rank_tolerance}
    return (lambda b: apply_(factors, b)), ({} if solver == "tikhonov" else ranks)


def train_aligned(
    ds: AlignedDataset,
    trunk_spec,
    branch_spec,
    solver: str = "cod",
    tol: float | None = None,
    reg: float = 0.0,
) -> RandONetModel:
    """Solve ``W = pinv(T) V pinv(B)`` on an aligned dataset.

    Parameters
    ----------
    ds : AlignedDataset
    trunk_spec, branch_spec : EmbeddingSpec or FeatureMap
        The trunk must accept 1-D locations; the branch input dimension
        must equal the sensor count of ``ds``.
    solver : {'cod', 'tsvd', 'tikhonov'}
        Pseudo-inversion route for both matrices.
    tol : float, optional
        Rank tolerance for 'cod'/'tsvd' (None = auto); 'tikhonov' takes none.
    reg : float
        Tikhonov weight, >= 0; 'cod' and 'tsvd' take 0 only.

    Notes
    -----
    An unknown solver, a negative ``reg`` or a setting the solver would
    ignore is rejected before any feature is built. The trunk matrix is
    built feature-major, as ``T.T`` (N, n), so both solves are right
    applies: ``pinv(T) V = (V.T pinv(T.T)).T``. The two pseudo-inverses are
    each computed once; they are applied to V in the cheaper association
    order (trunk first when n <= s). Wall time of the solve is recorded in
    ``train_metadata['train_seconds']`` and split into
    ``train_metadata['stages']``, the seconds of ``features`` (trunk and
    branch matrices), ``factorize`` (the COD or the SVD of each matrix,
    Tikhonov's included) and ``solve`` (applying the pseudo-inverses). The
    'cod' and 'tsvd' routes also record the numerical rank and rank
    tolerance of each matrix as ``trunk_rank``, ``trunk_rank_tolerance``,
    ``branch_rank`` and ``branch_rank_tolerance``.

    The 'cod' route consumes the trunk and branch matrices it builds: both
    are built in Fortran order and factored in their own storage, so the
    fit holds each once. The diagnostics of a :class:`TrainingError`
    rebuild them from the maps.
    """
    _check_solver(solver, tol, reg)
    trunk = _ensure_map(trunk_spec)
    branch = _ensure_map(branch_spec)
    if branch.spec.input_dim != ds.x.size:
        raise ValueError(
            f"branch input_dim {branch.spec.input_dim} does not match sensor count {ds.x.size}"
        )
    if trunk.spec.input_dim != 1:
        raise ValueError("trunk input_dim must be 1 for scalar output locations")

    start = time.perf_counter()
    # (N, n) and (M, s), Fortran-ordered for the in-place COD.
    t_mat = trunk._apply(ds.y[None, :], "F")
    b_mat = branch._apply(ds.U, "F")
    featured = time.perf_counter()
    trunk_apply, trunk_ranks = _pinv_pair(t_mat, solver, tol, reg, "trunk")
    branch_apply, branch_ranks = _pinv_pair(b_mat, solver, tol, reg, "branch")
    del t_mat, b_mat
    factorized = time.perf_counter()
    n, s = ds.V.shape
    if n <= s:
        w = branch_apply(trunk_apply(ds.V.T).T)
    else:
        w = trunk_apply(branch_apply(ds.V).T).T
    end = time.perf_counter()

    if not np.all(np.isfinite(w)):
        raise TrainingError(
            "solver produced non-finite weights; "
            + _conditioning_note("trunk matrix", trunk.apply(ds.y[None, :]))
            + "; "
            + _conditioning_note("branch matrix", branch.apply(ds.U))
        )
    metadata = {**_metadata(solver, tol, reg, trunk, branch, start, featured, factorized, end),
                "n_train_functions": ds.n_functions, **trunk_ranks, **branch_ranks}
    return RandONetModel(
        trunk=trunk, branch=branch, readout=w, solver_used=solver, train_metadata=metadata
    )


def _collocation_matrix(trunk: FeatureMap, branch: FeatureMap, ds: UnalignedDataset):
    """The (M*N, S) collocation matrix ``Z``, Fortran-ordered.

    Row ``k + i*N`` is the elementwise product of trunk feature row k and
    branch feature row i.
    """
    t_mat = trunk.apply(ds.Y)  # (N, S)
    b_mat = branch.apply(ds.U)  # (M, S)
    product = np.multiply(b_mat.T[:, :, None], t_mat.T[:, None, :], order="C")  # (S, M, N)
    return product.reshape(ds.n_samples, -1).T


def train_unaligned(
    ds: UnalignedDataset,
    trunk_spec,
    branch_spec,
    solver: str = "cod",
    tol: float | None = None,
    reg: float = 0.0,
) -> RandONetModel:
    """Solve the readout from per-sample collocation rows.

    Builds the (N*M, S) matrix ``Z`` whose row ``q = k + i*N`` is the
    elementwise product of trunk feature row k and branch feature row i,
    solves ``omega = V pinv(Z)``, and reshapes ``omega`` back into W.

    The dense collocation solve scales quadratically in both N*M and S, so
    the build refuses instances with ``N*M*S`` above
    :data:`MAX_COLLOCATION_ENTRIES` rather than thrash memory. The 'cod' and
    'tsvd' routes record the numerical rank and rank tolerance of ``Z`` in
    ``train_metadata`` as ``collocation_rank`` and
    ``collocation_rank_tolerance``. ``train_metadata['stages']`` splits
    ``train_seconds`` as in :func:`train_aligned`, with the build of ``Z``
    counted under ``features``.

    ``Z`` is built in Fortran order, as the transpose of a C-ordered
    (S, M*N) product, and the 'cod' route factors it in its own storage;
    the diagnostics of a :class:`TrainingError` rebuild it from the maps.
    Bad solver settings are rejected first, as by :func:`train_aligned`.
    """
    _check_solver(solver, tol, reg)
    trunk = _ensure_map(trunk_spec)
    branch = _ensure_map(branch_spec)
    n_feat = trunk.spec.feature_dim
    m_feat = branch.spec.feature_dim
    n_samples = ds.n_samples
    entries = n_feat * m_feat * n_samples
    if entries > MAX_COLLOCATION_ENTRIES:
        raise ValueError(
            f"collocation matrix would hold {entries} entries "
            f"(N={n_feat}, M={m_feat}, S={n_samples}), above the budget of "
            f"{MAX_COLLOCATION_ENTRIES}; the unaligned solve costs "
            "O((N S)^2 M N + (M N)^2 N S) and is meant for sparse outputs only"
        )

    start = time.perf_counter()
    z = _collocation_matrix(trunk, branch, ds)
    featured = time.perf_counter()
    collocation_apply, collocation_ranks = _pinv_pair(z, solver, tol, reg, "collocation")
    del z
    factorized = time.perf_counter()
    omega = collocation_apply(ds.V[None, :])
    w = omega.reshape(m_feat, n_feat).T
    end = time.perf_counter()

    if not np.all(np.isfinite(w)):
        raise TrainingError(
            "solver produced non-finite weights; "
            + _conditioning_note("collocation matrix", _collocation_matrix(trunk, branch, ds))
        )
    metadata = {**_metadata(solver, tol, reg, trunk, branch, start, featured, factorized, end),
                "n_train_samples": n_samples, **collocation_ranks}
    return RandONetModel(
        trunk=trunk, branch=branch, readout=w, solver_used=solver, train_metadata=metadata
    )


def evaluate(model: RandONetModel, u_samples, y_points) -> np.ndarray:
    """Evaluate the learned operator.

    Parameters
    ----------
    model : RandONetModel
    u_samples : array_like, shape (m,) or (m, k)
        One or more discretized input functions (columns).
    y_points : array_like, shape (q,)
        Output locations.

    Returns
    -------
    ndarray
        Shape (q,) for a single input function, else (q, k).
    """
    u = np.asarray(u_samples, dtype=np.float64)
    single = u.ndim == 1
    if single:
        u = u[:, None]
    y = np.atleast_1d(np.asarray(y_points, dtype=np.float64))
    t_mat = model.trunk.apply(y[None, :]).T  # (q, N)
    b_mat = model.branch.apply(u)  # (M, k)
    out = t_mat @ model.readout @ b_mat
    return out[:, 0] if single else out


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
    """Serialize a trained model (embedding specs, solver metadata, W)."""
    np.savez(
        path,
        format_version=MODEL_FORMAT_VERSION,
        trunk_spec=json.dumps(model.trunk.spec.to_dict()),
        branch_spec=json.dumps(model.branch.spec.to_dict()),
        readout=model.readout,
        solver_used=model.solver_used,
        metadata=json.dumps(model.train_metadata),
    )


def load_model(path) -> RandONetModel:
    """Load a model saved by :func:`save_model`.

    Feature maps are re-sampled from their stored specs (seed, dims, kind),
    which reproduces the saved model's predictions bit-for-bit on the same
    platform.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        trunk = build_feature_map(EmbeddingSpec.from_dict(json.loads(str(data["trunk_spec"]))))
        branch = build_feature_map(EmbeddingSpec.from_dict(json.loads(str(data["branch_spec"]))))
        readout = data["readout"]
        solver_used = str(data["solver_used"])
        metadata = json.loads(str(data["metadata"]))
    return RandONetModel(
        trunk=trunk, branch=branch, readout=readout, solver_used=solver_used,
        train_metadata=metadata,
    )
