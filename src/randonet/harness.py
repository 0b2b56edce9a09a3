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

All randomness is derived from the three config seeds, so identical
configurations reproduce identical metrics bit-for-bit on one platform:
the same numpy, scipy and BLAS builds and the same BLAS thread count.
Trained readouts change their last bits with the thread count; datasets
and features do not.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import tempfile
import time
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

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
    "GENERATOR_VERSION",
]

REPORT_CSV_VERSION = 1

# Part of every dataset cache key. Bump it whenever a change to the dataset
# builders or to the integrator changes the generated bits, so no cache
# serves the old ones.
GENERATOR_VERSION = 1

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
        if self.branch not in ("jl", "rffn"):
            raise ValueError(f"branch must be 'jl' or 'rffn', got {self.branch!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        sizes = tuple(int(m) for m in self.branch_sizes)
        if not sizes or any(m < 1 for m in sizes):
            raise ValueError(f"branch_sizes must be positive, got {self.branch_sizes}")
        if self.trunk_size < 1:
            raise ValueError(f"trunk_size must be >= 1, got {self.trunk_size}")
        _check_solver(self.solver, self.tol, self.reg)
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


def mse(pred, truth) -> float:
    """Mean squared error over all grid values of all functions."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    diff = pred - truth
    return float(np.mean(diff * diff))


def l2_percentiles(pred, truth) -> tuple[float, float, float]:
    """(5%, median, 95%) of the per-function L2 error.

    The L2 error of one function is the Euclidean norm of its error column
    over the output grid (unnormalized); percentiles interpolate linearly
    between closest ranks.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    if pred.ndim != 2 or pred.shape[1] < 1:
        raise ValueError("expected (n, s) matrices with s >= 1")
    norms = np.linalg.norm(pred - truth, axis=0)
    p5, p50, p95 = np.percentile(norms, [5.0, 50.0, 95.0], method="linear")
    return float(p5), float(p50), float(p95)


def _dataset_key(case) -> str:
    payload = {
        "generator_version": GENERATOR_VERSION,
        "id": case.id,
        "m": case.m,
        "n": case.n,
        "constants": sorted(case.constants.items()),
        "sampling": asdict(case.sampling),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _dataset_fingerprint(ds: AlignedDataset) -> str:
    h = hashlib.sha256()
    for arr in (ds.x, ds.y, ds.U, ds.V):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:32]


def _load_cached(path: Path) -> AlignedDataset | None:
    """The dataset stored at ``path``, or None when it is unreadable or
    does not match the fingerprint stored with it."""
    try:
        # Our own handle: np.load leaks its file when a truncated zip makes it raise.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            ds = AlignedDataset(x=data["x"], y=data["y"], U=data["U"], V=data["V"])
            stored = str(data["fingerprint"])
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        logger.warning("dataset cache file %s is unreadable (%s); rebuilding", path, exc)
        return None
    if _dataset_fingerprint(ds) != stored:
        logger.warning("dataset cache file %s does not match its fingerprint; rebuilding", path)
        return None
    return ds


def _store_cached(path: Path, ds: AlignedDataset) -> None:
    """Write ``ds`` with its fingerprint to a temporary file next to
    ``path``, then move it into place, so readers never see a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, x=ds.x, y=ds.y, U=ds.U, V=ds.V,
                     fingerprint=np.array(_dataset_fingerprint(ds)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def dataset_for(case, cache_dir=None) -> AlignedDataset:
    """Build a case dataset, memoized in memory and optionally on disk.

    Disk entries are keyed by :data:`GENERATOR_VERSION` and the case
    configuration, and carry the content fingerprint of the dataset; an
    entry that cannot be read or fails its fingerprint is rebuilt and
    rewritten. Each call logs at DEBUG which path served it.
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
                _DATASET_CACHE[key] = ds
                logger.debug("case %d dataset %s: disk hit", case.id, key)
                return ds
            served = "rebuilt after a bad entry"
    t0 = time.perf_counter()
    ds = build_case(case)
    logger.debug("case %d dataset %s: %s in %.3f s", case.id, key, served, time.perf_counter() - t0)
    _DATASET_CACHE[key] = ds
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
    :func:`train_aligned` records.
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
    payload = {
        "format_version": REPORT_CSV_VERSION,
        "config": report.config,
        "dataset_fingerprint": report.dataset_fingerprint,
        "rows": [asdict(row) for row in report.rows],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")

