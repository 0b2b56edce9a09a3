"""Frozen random feature maps: linear JL, random Fourier, and tanh layers.

Each map is sampled once from a seeded generator and never mutated;
identical ``(kind, dims, hyperparameters, seed)`` reproduce the map
bit-for-bit. Randomness comes from ``numpy.random.default_rng`` (PCG64,
seeded through ``SeedSequence``), with a fixed, documented draw order per
kind so maps are reproducible across machines running the same numpy:

* ``jl``:   weights (feature_dim, input_dim) standard normal; no biases;
  output ``(1/sqrt(feature_dim)) * W @ x``.
* ``rffn``: weights standard normal divided by ``bandwidth``, then biases
  uniform on [0, 2*pi); output ``scale * cos(W @ x + b)`` with
  ``scale = (1/input_dim) * sqrt(2/feature_dim)`` (the ``1/input_dim``
  prefactor can be disabled; it only rescales features and is absorbed by
  a linear readout). At the default ``bandwidth=1`` the feature inner
  product approximates the unit Gaussian kernel ``exp(-||u-v||^2/2)``; a
  bandwidth of ``B`` approximates ``exp(-||u-v||^2/(2 B^2))``. Branch
  embeddings over discretized functions need ``B`` proportional to the
  sensor count, since the Euclidean distance of sampled functions grows
  with the grid resolution (see :mod:`randonet.harness`).
* ``tanh``: weights uniform on [-weight_bound, weight_bound], then centers
  uniform on the domain interval; biases are ``-(weights * centers)`` summed
  over input axes, so each neuron's tanh transition is centered inside the
  domain; output ``tanh(W @ x + b)``.

Feature application is batch-invariant: applying a map to a k-column batch
equals k single-column applications exactly, not merely to rounding. The
input columns go through BLAS GEMM in blocks of ``BLOCK_COLUMNS`` columns,
copied into one zero-padded (input_dim, BLOCK_COLUMNS) scratch block, and
every block, a one-column tail included, is multiplied by the identical
``matmul`` call of fixed shape and strides. Its kernels accumulate each
output entry over the input dimension in one order, wherever the entry's
column sits in the block (the tests check every block position, also with
two BLAS threads), so a column's products do not depend on the batch size
or on its place in the batch. Bias, activation and scale then act element
by element and in place on the (feature_dim, k) result, so one call holds
one full-size array besides its (feature_dim, BLOCK_COLUMNS) GEMM scratch.
A single column costs one full block (about 0.3 ms for a
2000 x 100 RFFN map on one core of a 2-core x86-64 Xeon, against 0.2 ms
for a fixed-order ``einsum`` contraction), while a large batch runs at
GEMM speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmbeddingSpec",
    "FeatureMap",
    "default_weight_bound",
    "sample_jl",
    "sample_rffn",
    "sample_tanh_trunk",
    "build_feature_map",
    "save_feature_map",
    "load_feature_map",
]

_KINDS = ("jl", "rffn", "tanh")

FEATURE_MAP_FORMAT_VERSION = 1

# Columns per GEMM call in FeatureMap.apply, chosen by measurement on a
# 2000 x 100 map: on 600 to 2400 columns the GEMM loop takes about a fifth
# longer at 16 than at 32 and up to a tenth less at 64, but 64 doubles the
# cost of a single column. Changing it moves features in their last bits.
BLOCK_COLUMNS = 32


def default_weight_bound(domain: tuple[float, float]) -> float:
    """Default tanh weight bound ``25 / ((b - a) / 2)`` for domain [a, b].

    Scaling inversely with the half-width keeps the tanh transition regions
    tiling the interval regardless of its length.
    """
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ValueError(f"domain must satisfy a < b, got ({a}, {b})")
    return 25.0 / ((b - a) / 2.0)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Frozen description of a random feature map.

    ``seed`` may be an int or a tuple of ints (fed to ``SeedSequence``).
    ``weight_bound`` and ``domain`` apply to ``tanh`` maps only;
    ``input_scale`` and ``bandwidth`` apply to ``rffn`` only.
    """

    kind: str
    input_dim: int
    feature_dim: int
    seed: int | tuple[int, ...] = 0
    weight_bound: float | None = None
    domain: tuple[float, float] | None = None
    input_scale: bool = True
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.input_dim < 1 or self.feature_dim < 1:
            raise ValueError(
                f"dimensions must be >= 1, got input_dim={self.input_dim}, "
                f"feature_dim={self.feature_dim}"
            )
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.kind == "tanh":
            if self.domain is None:
                raise ValueError("tanh maps require a domain interval")
            a, b = self.domain
            if not b > a:
                raise ValueError(f"domain must satisfy a < b, got {self.domain}")
            if self.weight_bound is not None and self.weight_bound <= 0:
                raise ValueError(f"weight_bound must be > 0, got {self.weight_bound}")

    def to_dict(self) -> dict:
        seed = list(self.seed) if isinstance(self.seed, tuple) else self.seed
        return {
            "kind": self.kind,
            "input_dim": self.input_dim,
            "feature_dim": self.feature_dim,
            "seed": seed,
            "weight_bound": self.weight_bound,
            "domain": list(self.domain) if self.domain is not None else None,
            "input_scale": self.input_scale,
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EmbeddingSpec":
        seed = d["seed"]
        if isinstance(seed, list):
            seed = tuple(int(v) for v in seed)
        domain = d.get("domain")
        return cls(
            kind=d["kind"],
            input_dim=int(d["input_dim"]),
            feature_dim=int(d["feature_dim"]),
            seed=seed,
            weight_bound=d.get("weight_bound"),
            domain=tuple(domain) if domain is not None else None,
            input_scale=bool(d.get("input_scale", True)),
            bandwidth=float(d.get("bandwidth", 1.0)),
        )


@dataclass(frozen=True)
class FeatureMap:
    """Sampled, frozen random feature map.

    ``weights`` is (feature_dim, input_dim); ``biases`` is (feature_dim,)
    or ``None`` for the bias-free JL map; ``scale`` multiplies the
    activation output. Fields are plain data so tests can build variants
    with ``dataclasses.replace`` (e.g. forcing biases to zero). The map
    keeps read-only private copies of the arrays it is given, so the
    caller's arrays stay writable and later edits to them do not reach it.
    """

    spec: EmbeddingSpec
    weights: np.ndarray
    biases: np.ndarray | None
    scale: float = 1.0

    def __post_init__(self):
        for name in ("weights", "biases"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    def apply(self, x) -> np.ndarray:
        """Map input columns to feature columns.

        The columns are multiplied by the weights ``BLOCK_COLUMNS`` at a
        time through one fixed-shape GEMM call (see the module docstring),
        so the result for each column is bit-identical to applying the map
        to that column alone. A call with few columns costs one full block.
        Bias, activation and scale then act in place on the result.

        Parameters
        ----------
        x : array_like, shape (input_dim, k) or (input_dim,)
            Input vectors as columns; a 1-D vector is treated as one column.

        Returns
        -------
        ndarray, shape (feature_dim, k) or (feature_dim,)
            C-contiguous.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self._apply(x[:, None], "C")[:, 0]
        return self._apply(x, "C")

    def _apply(self, x: np.ndarray, order: str) -> np.ndarray:
        """:meth:`apply` on 2-D float64 ``x``, into a result of ``order``.

        Every element gets the same bits in either order. Training asks
        for Fortran order to factor the branch matrix in its own storage.
        """
        if x.ndim != 2 or x.shape[0] != self.spec.input_dim:
            raise ValueError(
                f"expected input of shape ({self.spec.input_dim}, k), got {x.shape}"
            )
        k = x.shape[1]
        block = np.zeros((x.shape[0], BLOCK_COLUMNS))
        product = np.empty((self.weights.shape[0], BLOCK_COLUMNS))
        z = np.empty((self.weights.shape[0], k), order=order)
        for start in range(0, k, BLOCK_COLUMNS):
            width = min(BLOCK_COLUMNS, k - start)
            block[:, :width] = x[:, start:start + width]
            block[:, width:] = 0.0
            np.matmul(self.weights, block, out=product)
            z[:, start:start + width] = product[:, :width]
        # The element-wise steps run in place, once over the k real
        # columns, so a single column pays one padded GEMM block but no
        # padded cosines.
        if self.biases is not None:
            z += self.biases[:, None]
        if self.spec.kind == "tanh":
            np.tanh(z, out=z)
        else:
            if self.spec.kind == "rffn":
                np.cos(z, out=z)
            z *= self.scale
        return z


def sample_jl(input_dim: int, feature_dim: int, seed=0) -> FeatureMap:
    """Sample a linear random projection with Gaussian weights.

    Weights are i.i.d. standard normal and the output carries the
    ``1/sqrt(feature_dim)`` prefactor, so the embedding approximately
    preserves Euclidean norms.
    """
    spec = EmbeddingSpec(kind="jl", input_dim=input_dim, feature_dim=feature_dim, seed=seed)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((feature_dim, input_dim))
    return FeatureMap(spec=spec, weights=weights, biases=None, scale=1.0 / np.sqrt(feature_dim))


def sample_rffn(
    input_dim: int,
    feature_dim: int,
    seed=0,
    input_scale: bool = True,
    bandwidth: float = 1.0,
) -> FeatureMap:
    """Sample cosine random Fourier features for a Gaussian kernel.

    Weights are i.i.d. standard normal divided by ``bandwidth``, biases
    uniform on [0, 2*pi); the feature inner product (after undoing the
    input_dim prefactor) approximates ``exp(-||u - v||^2 / (2 bandwidth^2))``.
    """
    spec = EmbeddingSpec(
        kind="rffn",
        input_dim=input_dim,
        feature_dim=feature_dim,
        seed=seed,
        input_scale=input_scale,
        bandwidth=float(bandwidth),
    )
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((feature_dim, input_dim)) / spec.bandwidth
    biases = rng.uniform(0.0, 2.0 * np.pi, feature_dim)
    scale = np.sqrt(2.0 / feature_dim)
    if input_scale:
        scale /= input_dim
    return FeatureMap(spec=spec, weights=weights, biases=biases, scale=scale)


def sample_tanh_trunk(
    domain: tuple[float, float],
    feature_dim: int,
    weight_bound: float | None = None,
    seed=0,
    input_dim: int = 1,
) -> FeatureMap:
    """Sample a tanh hidden layer over a box domain.

    Weights are uniform on [-weight_bound, weight_bound] (default
    :func:`default_weight_bound`); each neuron's bias places its transition
    at a center drawn uniformly from the domain, i.e.
    ``tanh(w . (x - center))``.
    """
    bound = default_weight_bound(domain) if weight_bound is None else float(weight_bound)
    spec = EmbeddingSpec(
        kind="tanh",
        input_dim=input_dim,
        feature_dim=feature_dim,
        seed=seed,
        weight_bound=bound,
        domain=(float(domain[0]), float(domain[1])),
    )
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-bound, bound, (feature_dim, input_dim))
    centers = rng.uniform(domain[0], domain[1], (feature_dim, input_dim))
    biases = -np.sum(weights * centers, axis=1)
    return FeatureMap(spec=spec, weights=weights, biases=biases, scale=1.0)


def build_feature_map(spec: EmbeddingSpec) -> FeatureMap:
    """Re-sample the map described by ``spec`` (bitwise reproducible)."""
    if spec.kind == "jl":
        return sample_jl(spec.input_dim, spec.feature_dim, seed=spec.seed)
    if spec.kind == "rffn":
        return sample_rffn(
            spec.input_dim,
            spec.feature_dim,
            seed=spec.seed,
            input_scale=spec.input_scale,
            bandwidth=spec.bandwidth,
        )
    return sample_tanh_trunk(
        spec.domain,
        spec.feature_dim,
        weight_bound=spec.weight_bound,
        seed=spec.seed,
        input_dim=spec.input_dim,
    )


def save_feature_map(fmap: FeatureMap, path) -> None:
    """Serialize a feature map (its ``EmbeddingSpec`` plus arrays) to ``.npz``.

    The embedding spec alone reconstructs the map; the weights are stored
    so the file can be checked against independent implementations.
    """
    biases = fmap.biases if fmap.biases is not None else np.zeros(0)
    np.savez(
        path,
        format_version=FEATURE_MAP_FORMAT_VERSION,
        spec=json.dumps(fmap.spec.to_dict()),
        weights=fmap.weights,
        biases=biases,
        has_biases=fmap.biases is not None,
        scale=fmap.scale,
    )


def load_feature_map(path) -> FeatureMap:
    """Load a feature map saved by :func:`save_feature_map`."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != FEATURE_MAP_FORMAT_VERSION:
            raise ValueError(f"unsupported feature map format version {version}")
        spec = EmbeddingSpec.from_dict(json.loads(str(data["spec"])))
        weights = data["weights"]
        biases = data["biases"] if bool(data["has_biases"]) else None
        scale = float(data["scale"])
    return FeatureMap(spec=spec, weights=weights, biases=biases, scale=scale)
