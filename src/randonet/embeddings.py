"""Frozen random feature maps: linear JL, random Fourier, and tanh layers.

A map is fully described by its :class:`EmbeddingSpec` (kind, dims,
hyperparameters, seed), and :func:`build_feature_map` is the one sampler
that turns a spec into a :class:`FeatureMap`; the map is never mutated,
and the same spec reproduces it bit-for-bit. Randomness comes from
``numpy.random.default_rng(spec.seed)`` (PCG64, seeded through
``SeedSequence``), with a fixed, documented draw order per kind so maps are
reproducible across machines running the same numpy:

* ``jl``:   weights (feature_dim, input_dim) standard normal; no biases;
  output ``(1/sqrt(feature_dim)) * W @ x``, which approximately preserves
  Euclidean norms.
* ``rffn``: weights standard normal divided by ``bandwidth``, then biases
  uniform on [0, 2*pi); output ``scale * cos(W @ x + b)`` with
  ``scale = (1/input_dim) * sqrt(2/feature_dim)`` (the ``1/input_dim``
  prefactor only rescales features and is absorbed by a linear readout).
  At the default ``bandwidth=1`` the feature inner product times
  ``input_dim**2`` approximates the unit Gaussian kernel
  ``exp(-||u-v||^2/2)``; a bandwidth of ``B`` approximates
  ``exp(-||u-v||^2/(2 B^2))``. Branch
  embeddings over discretized functions need ``B`` proportional to the
  sensor count, since the Euclidean distance of sampled functions grows
  with the grid resolution (see :mod:`randonet.harness`).
* ``tanh``: weights uniform on [-weight_bound, weight_bound] (default
  :func:`default_weight_bound`), then centers uniform on the domain
  interval; biases are ``-(weights * centers)`` summed over input axes, so
  each neuron's tanh transition is centered inside the domain; output
  ``tanh(W @ x + b)``.

Feature application is batch-invariant: applying a map to a k-column batch
equals k single-column applications exactly, not merely to rounding. The
input columns go through BLAS GEMM in blocks of ``BLOCK_COLUMNS`` columns,
and every block is the same (feature_dim, input_dim) x (input_dim,
BLOCK_COLUMNS) product. One stacked ``matmul`` call takes all full blocks:
it reads them from the input and writes their products into the result in
place, through (blocks, ., BLOCK_COLUMNS) views of both. A partial tail
block, a one-column call included, is copied into one zero-padded
(input_dim, BLOCK_COLUMNS) scratch block. The GEMM kernels accumulate each
output entry over the input dimension in one order, wherever the entry's
column sits in its block (the tests check every block position, also with
two BLAS threads), so a column's products do not depend on the batch size
or on its place in the batch. Bias, activation and scale then act element
by element and in place on the (feature_dim, k) result, so one call holds
one full-size array besides the tail's scratch (and a C-contiguous copy of
an input that is not C-contiguous). A single column still costs one full
block (about 0.3 ms for a 2000 x 100 RFFN map on one core of a 2-core
x86-64 Xeon, against 0.2 ms for a fixed-order ``einsum`` contraction),
while a large batch runs at GEMM speed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "EmbeddingSpec",
    "FeatureMap",
    "default_weight_bound",
    "build_feature_map",
]

_KINDS = ("jl", "rffn", "tanh")

# Columns per GEMM block in FeatureMap.apply. Full blocks go through one
# stacked matmul call, read and written in place; a partial tail goes
# through one zero-padded block, so a single column costs one full block.
# Chosen by measurement on a 2000 x 100 map with one GEMM call per block:
# on 600 to 2400 columns the GEMMs took about a fifth longer at 16 than at
# 32 and up to a tenth less at 64, but 64 doubles the cost of a single
# column. Changing it moves features in their last bits.
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
    ``bandwidth`` applies to ``rffn`` only.
    """

    kind: str
    input_dim: int
    feature_dim: int
    seed: int | tuple[int, ...] = 0
    weight_bound: float | None = None
    domain: tuple[float, float] | None = None
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.input_dim < 1 or self.feature_dim < 1:
            raise ValueError(
                f"dimensions must be >= 1, got input_dim={self.input_dim}, "
                f"feature_dim={self.feature_dim}"
            )
        if not 0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be finite and > 0, got {self.bandwidth}")
        if self.kind == "tanh":
            if self.domain is None:
                raise ValueError("tanh maps require a domain interval")
            a, b = self.domain
            if not b > a:
                raise ValueError(f"domain must satisfy a < b, got {self.domain}")
            if self.weight_bound is not None and not 0 < self.weight_bound < np.inf:
                raise ValueError(f"weight_bound must be finite and > 0, got {self.weight_bound}")

    def to_dict(self) -> dict:
        """The fields by name; JSON writes the tuples as lists."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EmbeddingSpec":
        """The spec of a :meth:`to_dict` result; older ones also hold
        ``input_scale``, which must be true."""
        if not d.get("input_scale", True):
            raise ValueError("input_scale: false is not supported: rffn maps scale by 1/input_dim")
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

    def apply(self, x, order: str = "C") -> np.ndarray:
        """Map input columns to feature columns.

        The columns are multiplied by the weights ``BLOCK_COLUMNS`` at a
        time, every block through the same fixed-shape GEMM (see the module
        docstring), so the result for each column is bit-identical to
        applying the map to that column alone. One stacked ``matmul`` call
        reads all full blocks from ``x`` and writes them into the result in
        place; one zero-padded block takes a partial tail, so a single
        column still costs one full block. Bias, activation and scale then
        act in place on the result.

        Parameters
        ----------
        x : array_like, shape (input_dim, k) or (input_dim,)
            Input vectors as columns; a 1-D vector is treated as one column.
        order : {'C', 'F'}
            Memory order of the result; every element gets the same bits in
            either. Training asks for 'F' to factor its matrices in their
            own storage.

        Returns
        -------
        ndarray, shape (feature_dim, k) or (feature_dim,)
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] != self.spec.input_dim:
            raise ValueError(
                f"expected input of shape ({self.spec.input_dim}, k), got {x.shape}"
            )
        # Every full block must reach BLAS with one operand layout: a
        # transposed operand rounds differently.
        x = np.ascontiguousarray(x)
        rows, k = self.weights.shape[0], x.shape[1]
        full = k - k % BLOCK_COLUMNS
        z = np.empty((rows, k), order=order)
        # All full blocks in one stacked matmul over (blocks, ., BLOCK_COLUMNS)
        # views of x and z. Into a Fortran-ordered output numpy runs the
        # transposed product blocksᵀ @ Wᵀ on the contiguous row blocks of
        # z.T, so training still builds its matrices in their own storage.
        np.matmul(
            self.weights,
            x[:, :full].reshape(x.shape[0], -1, BLOCK_COLUMNS).transpose(1, 0, 2),
            out=z[:, :full].reshape(rows, -1, BLOCK_COLUMNS).transpose(1, 0, 2),
        )
        if full < k:
            block = np.zeros((x.shape[0], BLOCK_COLUMNS))
            block[:, :k - full] = x[:, full:]
            # In the result's order, so the tail runs the full blocks' GEMM.
            product = np.empty((rows, BLOCK_COLUMNS), order=order)
            np.matmul(self.weights, block, out=product)
            z[:, full:] = product[:, :k - full]
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
        return z[:, 0] if single else z


def build_feature_map(spec: EmbeddingSpec) -> FeatureMap:
    """Sample the map that ``spec`` describes (bitwise reproducible).

    The one sampler: training and :func:`randonet.model.load_model` build
    every map from its spec here, drawing in the order the module docstring
    documents. The map's spec keeps only the fields its kind reads; a tanh
    spec records its resolved ``weight_bound`` and a float domain.
    """
    rng = np.random.default_rng(spec.seed)
    shape = (spec.feature_dim, spec.input_dim)
    dims = dict(input_dim=spec.input_dim, feature_dim=spec.feature_dim, seed=spec.seed)
    if spec.kind == "jl":
        weights = rng.standard_normal(shape)
        scale = 1.0 / np.sqrt(spec.feature_dim)
        return FeatureMap(EmbeddingSpec("jl", **dims), weights, None, scale)
    if spec.kind == "rffn":
        bandwidth = float(spec.bandwidth)
        weights = rng.standard_normal(shape) / bandwidth
        biases = rng.uniform(0.0, 2.0 * np.pi, spec.feature_dim)
        scale = np.sqrt(2.0 / spec.feature_dim) / spec.input_dim
        spec = EmbeddingSpec("rffn", **dims, bandwidth=bandwidth)
        return FeatureMap(spec, weights, biases, scale)
    a, b = float(spec.domain[0]), float(spec.domain[1])
    bound = default_weight_bound((a, b)) if spec.weight_bound is None else float(spec.weight_bound)
    weights = rng.uniform(-bound, bound, shape)
    centers = rng.uniform(a, b, shape)
    spec = EmbeddingSpec("tanh", **dims, weight_bound=bound, domain=(a, b))
    return FeatureMap(spec, weights, -np.sum(weights * centers, axis=1))
