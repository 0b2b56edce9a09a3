"""End-to-end experiment orchestration for the benchmark cases.

``run_experiment`` builds (or fetches from cache) the dataset of a case
study, splits it into train/test columns, trains one model per requested
branch width, and reports test metrics: the mean squared error over all
grid values, and the 5%/50%/95% percentiles of the per-function L2 error.

Conventions (recorded in every report header):

* the L2 error of one test function is the plain Euclidean norm of the
  prediction-minus-truth vector over the output grid, with no grid-size
  normalization;
* percentiles interpolate linearly between closest ranks;
* split membership is a uniform random partition of the function columns
  driven by ``seed_split``;
* reported train time covers the feature computation and linear solve
  only -- never dataset generation or metric evaluation -- and is
  informational, not asserted by any check.

Datasets are cached in memory and, under a ``cache_dir``, on disk (see
:func:`dataset_for`). The cache key hashes the case's id, grids and
sampling with a digest of what makes the bits: the source files of
``funcgen``, ``problems``, ``odeint`` and ``_parallel``, and the numpy and
scipy versions. The physics constants follow from the id and live in the
``problems`` source, so the digest covers them. An edit to one of those
modules, or a numpy or scipy upgrade, rebuilds each cached dataset once
(case 2 takes about 2-3 s). The JSON report names the digest.

All randomness is derived from the three config seeds, so identical
configurations reproduce identical metrics bit-for-bit on one platform:
the same numpy, scipy and BLAS builds and the same BLAS thread count.
Trained readouts change their last bits with the thread count; datasets
and features do not.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import logging
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from . import _npz, _parallel, funcgen, odeint, problems
from ._checks import check_count, check_seed, real_array
from .embeddings import EmbeddingSpec
from .model import AlignedDataset, _check_solver, evaluate, train_aligned
from .problems import build_case, case_config

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "BenchmarkReport",
    "split",
    "mse",
    "l2_percentiles",
    "run_experiment",
    "write_report_csv",
    "write_report_json",
    "REPORT_CSV_VERSION",
]

REPORT_CSV_VERSION = 1

logger = logging.getLogger(__name__)

_DATASET_CACHE: dict[str, AlignedDataset] = {}


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: case, embeddings, solver, seeds, data split."""

    case: int
    branch: str = "jl"
    branch_sizes: tuple[int, ...] = (100,)
    trunk_size: int = 200
    train_fraction: float = 0.8
    solver: str = "cod"
    reg: float = 0.0
    tol: float | None = None
    seed_data: int = 0
    seed_embed: int = 1
    seed_split: int = 2
    dataset_size: int | None = None
    trunk_weight_bound: float | None = None
    rffn_bandwidth: float | None = None
    cache_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "case", case_config(self.case).id)
        if self.branch not in ("jl", "rffn"):
            raise ValueError(f"branch must be 'jl' or 'rffn', got {self.branch!r}")
        if self.branch == "jl" and self.rffn_bandwidth is not None:
            raise ValueError(f"branch 'jl' takes no rffn_bandwidth, got {self.rffn_bandwidth}")
        for name in ("rffn_bandwidth", "trunk_weight_bound"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        sizes = tuple(check_count(m, "each of branch_sizes") for m in self.branch_sizes)
        if not sizes:
            raise ValueError("branch_sizes must hold at least one size")
        object.__setattr__(self, "trunk_size", check_count(self.trunk_size, "trunk_size"))
        if self.dataset_size is not None:
            size = check_count(self.dataset_size, "dataset_size")
            object.__setattr__(self, "dataset_size", size)
        _check_solver(self.solver, self.tol, self.reg)
        for name in ("seed_data", "seed_embed", "seed_split"):
            object.__setattr__(self, name, check_seed(getattr(self, name), name))
        object.__setattr__(self, "branch_sizes", sizes)


@dataclass(frozen=True)
class ReportRow:
    case: int
    branch: str
    m_branch: int
    mse: float
    l2_p5: float
    l2_median: float
    l2_p95: float
    train_seconds: float
    # The fit's *_rank and *_rank_tolerance training entries and the
    # SHA-256 of its readout and test predictions; not in the CSV.
    trace: dict


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[ReportRow, ...]
    config: dict
    dataset_fingerprint: str


def split(ds: AlignedDataset, fraction: float, seed: int) -> tuple[AlignedDataset, AlignedDataset]:
    """Partition the function columns uniformly at random.

    The first part receives ``round(fraction * s)`` columns; both parts
    must be non-empty. Deterministic under ``seed``.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    s = ds.n_functions
    n_train = int(round(fraction * s))
    if n_train == 0 or n_train == s:
        raise ValueError(f"split of {s} columns at fraction {fraction} leaves an empty part")
    perm = np.random.default_rng(seed).permutation(s)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    def take(idx):
        return AlignedDataset(x=ds.x, y=ds.y, U=ds.U[:, idx], V=ds.V[:, idx])

    return take(train_idx), take(test_idx)


def _pred_truth(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    """Both as float64 arrays of one shape; a NaN passes, so a failed prediction scores NaN."""
    pred, truth = real_array(pred, "pred"), real_array(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    return pred, truth


def mse(pred, truth) -> float:
    """Mean squared error over all grid values of all functions."""
    pred, truth = _pred_truth(pred, truth)
    if pred.size == 0:
        raise ValueError(f"mse of empty arrays, got shape {pred.shape}")
    diff = pred - truth
    return float(np.mean(diff * diff))


def l2_percentiles(pred, truth) -> tuple[float, float, float]:
    """(5%, median, 95%) of the per-function L2 error.

    The L2 error of one function is the Euclidean norm of its error column
    over the output grid (unnormalized); percentiles interpolate linearly
    between closest ranks.
    """
    pred, truth = _pred_truth(pred, truth)
    if pred.ndim != 2 or pred.shape[1] < 1:
        raise ValueError("expected (n, s) matrices with s >= 1")
    norms = np.linalg.norm(pred - truth, axis=0)
    p5, p50, p95 = np.percentile(norms, [5.0, 50.0, 95.0], method="linear")
    return float(p5), float(p50), float(p95)


@functools.cache
def _generator_digest() -> str:
    """SHA-256 of what makes the dataset bits: the source files of the
    modules that compute them and the numpy and scipy versions.

    Computed on first use, once per process. ``tests/test_structure.py``
    checks that those modules import no other package module that could
    change a value.
    """
    h = hashlib.sha256(f"numpy {np.__version__} scipy {scipy.__version__}".encode())
    for module in (funcgen, problems, odeint, _parallel):
        h.update(Path(module.__file__).read_bytes())
    return h.hexdigest()


def _dataset_key(case) -> str:
    blob = json.dumps({"generator": _generator_digest(), "case": asdict(case)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _dataset_fingerprint(ds: AlignedDataset) -> str:
    return _sha256(ds.x, ds.y, ds.U, ds.V)[:32]


def _trace(model, pred) -> dict:
    """The rank entries of ``model.train_metadata`` and the SHA-256 of the
    readout and of ``pred``, the model's predictions."""
    trace = {key: value for key, value in model.train_metadata.items() if "_rank" in key}
    return {**trace, "readout_sha256": _sha256(model.readout), "predictions_sha256": _sha256(pred)}


def _load_cached(path: Path) -> AlignedDataset | None:
    """The dataset stored at ``path``, or None when it is unreadable or
    does not match the fingerprint stored with it."""
    try:
        with _npz.entries(path, "dataset cache file") as entry:
            ds = AlignedDataset(**{name: entry(name) for name in ("x", "y", "U", "V")})
            stored = entry("fingerprint", str)
    except (OSError, ValueError) as exc:
        logger.warning("dataset cache file %s is unreadable (%s); rebuilding", path, exc)
        return None
    if _dataset_fingerprint(ds) != stored:
        logger.warning("dataset cache file %s does not match its fingerprint; rebuilding", path)
        return None
    return ds


def _store_cached(path: Path, ds: AlignedDataset) -> None:
    """Write ``ds`` with its fingerprint to ``path``; readers never see a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    _npz.write_replacing(path, lambda fh: np.savez(fh, x=ds.x, y=ds.y, U=ds.U, V=ds.V,
                                                   fingerprint=np.array(_dataset_fingerprint(ds))))


def _cache(key: str, ds: AlignedDataset) -> AlignedDataset:
    """Keep ``ds`` in the memory cache, its arrays read-only: every later
    call for its case gets this object, so a caller's write must not reach it."""
    for arr in (ds.x, ds.y, ds.U, ds.V):
        arr.setflags(write=False)
    _DATASET_CACHE[key] = ds
    return ds


def dataset_for(case, cache_dir=None) -> AlignedDataset:
    """Build a case dataset, memoized in memory and optionally on disk.

    Both caches key an entry on the case's fields (id, grids and
    sampling) and on the digest of the generator: the source of
    ``funcgen``, ``problems``, ``odeint`` and ``_parallel`` and the numpy
    and scipy versions. The physics constants follow from the id and live
    in the ``problems`` source, so the digest covers them. An edit to one
    of those modules, or a numpy or scipy upgrade, misses every old entry
    once and rebuilds it (case 2 takes about 2-3 s). Disk entries carry
    the content fingerprint of the dataset; an entry that cannot be read
    or fails its fingerprint is rebuilt and rewritten. Each call logs at
    DEBUG which path served it. Every call for a case returns the same
    object, so its ``x``, ``y``, ``U`` and ``V`` are read-only.
    """
    key = _dataset_key(case)
    if key in _DATASET_CACHE:
        logger.debug("case %d dataset %s: memory hit", case.id, key)
        return _DATASET_CACHE[key]
    disk_path, served = None, "built on a miss"
    if cache_dir is not None:
        disk_path = Path(cache_dir) / f"dataset-{key}.npz"
        if disk_path.exists():
            ds = _load_cached(disk_path)
            if ds is not None:
                logger.debug("case %d dataset %s: disk hit", case.id, key)
                return _cache(key, ds)
            served = "rebuilt after a bad entry"
    t0 = time.perf_counter()
    ds = build_case(case)
    logger.debug("case %d dataset %s: %s in %.3f s", case.id, key, served, time.perf_counter() - t0)
    _cache(key, ds)
    if disk_path is not None:
        _store_cached(disk_path, ds)
    return ds


def trunk_spec_for(cfg: ExperimentConfig, domain) -> EmbeddingSpec:
    return EmbeddingSpec(
        kind="tanh",
        input_dim=1,
        feature_dim=cfg.trunk_size,
        seed=(cfg.seed_embed, 0),
        weight_bound=cfg.trunk_weight_bound,
        domain=domain,
    )


def branch_spec_for(cfg: ExperimentConfig, m_branch: int, input_dim: int) -> EmbeddingSpec:
    """Branch embedding spec for one run.

    For the cosine branch the kernel bandwidth defaults to five times the
    sensor count. The phase ``w . u`` of a feature must measure distances
    between discretized functions, and those Euclidean distances scale
    with the grid resolution, so the bandwidth has to be proportional to
    the sensor count; the factor five places the benchmark function
    families in the smooth-kernel regime where the one-shot least-squares
    readout resolves nonlinear operators to near the reference accuracy.
    """
    bandwidth = 1.0
    if cfg.branch == "rffn":
        bandwidth = 5.0 * input_dim if cfg.rffn_bandwidth is None else cfg.rffn_bandwidth
    return EmbeddingSpec(
        kind=cfg.branch,
        input_dim=input_dim,
        feature_dim=m_branch,
        seed=(cfg.seed_embed, 1),
        bandwidth=bandwidth,
    )


def run_experiment(cfg: ExperimentConfig) -> BenchmarkReport:
    """Run one benchmark experiment and collect a report.

    Builds the dataset (cached by its configuration fingerprint), splits
    it, trains one model per entry of ``cfg.branch_sizes``, and evaluates
    on the held-out test functions. Each row reports the training time that
    :func:`train_aligned` records, and its ``trace``: the numerical rank and
    rank tolerance of the trunk and branch matrices and the SHA-256 of the
    readout and of the test predictions.
    """
    case = case_config(cfg.case, size=cfg.dataset_size, seed=cfg.seed_data)
    # The specs first, so a bad embedding setting fails before the build.
    trunk_spec = trunk_spec_for(cfg, case.domain)
    branch_specs = [branch_spec_for(cfg, m_branch, case.m) for m_branch in cfg.branch_sizes]
    ds = dataset_for(case, cfg.cache_dir)
    fingerprint = _dataset_fingerprint(ds)
    train_ds, test_ds = split(ds, cfg.train_fraction, cfg.seed_split)

    rows = []
    for branch_spec in branch_specs:
        model = train_aligned(
            train_ds, trunk_spec, branch_spec, solver=cfg.solver, tol=cfg.tol, reg=cfg.reg
        )
        pred = evaluate(model, test_ds.U, test_ds.y)
        p5, p50, p95 = l2_percentiles(pred, test_ds.V)
        rows.append(
            ReportRow(
                case=cfg.case,
                branch=cfg.branch,
                m_branch=branch_spec.feature_dim,
                mse=mse(pred, test_ds.V),
                l2_p5=p5,
                l2_median=p50,
                l2_p95=p95,
                train_seconds=model.train_metadata["train_seconds"],
                trace=_trace(model, pred),
            )
        )
    config_echo = asdict(cfg)
    config_echo["branch_sizes"] = list(cfg.branch_sizes)
    return BenchmarkReport(
        rows=tuple(rows), config=config_echo, dataset_fingerprint=fingerprint
    )


def write_report_csv(report: BenchmarkReport, path) -> None:
    """Write report rows as CSV with a versioned comment header."""
    buf = io.StringIO()
    buf.write(f"# randonet-report v{REPORT_CSV_VERSION}\n")
    buf.write(f"# config: {json.dumps(report.config, sort_keys=True)}\n")
    buf.write(f"# dataset_fingerprint: {report.dataset_fingerprint}\n")
    buf.write("# l2 convention: unnormalized Euclidean norm per test function over the "
              "output grid; percentiles by linear interpolation\n")
    writer = csv.writer(buf)
    writer.writerow(["case", "branch", "M", "mse", "l2_p5", "l2_median", "l2_p95", "train_seconds"])
    for row in report.rows:
        writer.writerow(
            [row.case, row.branch, row.m_branch]
            + [f"{v:.17g}" for v in (row.mse, row.l2_p5, row.l2_median, row.l2_p95, row.train_seconds)]
        )
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def write_report_json(report: BenchmarkReport, path) -> None:
    """Write the report as JSON, with the digest of the generator that made
    this process's datasets (see :func:`dataset_for`)."""
    payload = {
        "format_version": REPORT_CSV_VERSION,
        "config": report.config,
        "dataset_fingerprint": report.dataset_fingerprint,
        "generator_digest": _generator_digest(),
        "rows": [asdict(row) for row in report.rows],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")

