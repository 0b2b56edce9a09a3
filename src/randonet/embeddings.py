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
result is one (feature_dim, k) array in Fortran order, so each input's
features are contiguous: the layout training factors in place, and one in
which every column range is contiguous. The input columns go through BLAS
GEMM in blocks of ``BLOCK_COLUMNS`` columns, and every block is the same
(feature_dim, input_dim) x (input_dim, BLOCK_COLUMNS) product. One stacked
``matmul`` call takes all full blocks: it reads them from the input and
writes their products into the result in place, through (blocks, .,
BLOCK_COLUMNS) views of both. A partial tail block, a one-column call
included, is copied into one zero-padded (input_dim, BLOCK_COLUMNS)
scratch block. The GEMM kernels accumulate each output entry over the
input dimension in one order, wherever the entry's column sits in its
block (the tests check every block position, also with two BLAS threads),
so a column's products do not depend on the batch size or on its place in
the batch. Bias, activation and scale then act element by element and in
place on the result, so one call holds one full-size array besides the
tail's scratch (and a C-contiguous copy of an input that is not
C-contiguous). A single column still costs one full block (about 0.3 ms
for a 2000 x 100 RFFN map on one core of a 2-core x86-64 Xeon, against
0.2 ms for a fixed-order ``einsum`` contraction), while a large batch runs
at GEMM speed.

A map of input dimension 1, such as the trunk of every case, skips the GEMM
blocks: with one input row each entry is one product, so ``np.multiply(weights,
x)`` gives the GEMM's bits. A GEMM accumulates into +0.0, so a product of
-0.0 comes out as +0.0 there; adding 0.0 once after the product does the
same, and bias, activation and scale then run as above.

Large applies run on threads, with the bits of one thread, and every
apply holds numpy's OpenBLAS at one thread (see :mod:`randonet._parallel`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import _parallel
from ._checks import check_count, check_seed, finite_array, real_array

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

    ``seed`` is an int or a sequence of them, nested as ``SeedSequence``
    allows, and is stored with plain ints and tuples.
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
        for name in ("input_dim", "feature_dim"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        object.__setattr__(self, "seed", check_seed(self.seed, "seed"))
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
        domain = d.get("domain")
        return cls(
            kind=d["kind"],
            input_dim=d["input_dim"],
            feature_dim=d["feature_dim"],
            seed=d["seed"],
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
    keeps read-only private float64 copies of the arrays it is given, so
    the caller's arrays stay writable and later edits to them do not reach
    it; arrays that are complex, not finite or not of the spec's shape
    raise ``ValueError``.
    """

    spec: EmbeddingSpec
    weights: np.ndarray
    biases: np.ndarray | None
    scale: float = 1.0

    def __post_init__(self):
        shapes = {"weights": (self.spec.feature_dim, self.spec.input_dim),
                  "biases": (self.spec.feature_dim,)}
        for name, shape in shapes.items():
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(finite_array(arr, name))
                if arr.shape != shape:
                    raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    def apply(self, x) -> np.ndarray:
        """Map input columns to feature columns.

        The columns are multiplied by the weights ``BLOCK_COLUMNS`` at a
        time, every block through the same fixed-shape GEMM (see the module
        docstring), so the result for each column is bit-identical to
        applying the map to that column alone. One stacked ``matmul`` call
        reads all full blocks from ``x`` and writes them into the result in
        place; one zero-padded block takes a partial tail, so a single
        column still costs one full block. Bias, activation and scale then
        act in place on the result. A map of input dimension 1 writes its
        products with one ``np.multiply`` instead, with the same bits.
        Column ranges that start on blocks split a large call across
        threads (see :mod:`randonet._parallel`).

        Parameters
        ----------
        x : array_like, shape (input_dim, k) or (input_dim,)
            Input vectors as columns; a 1-D vector is treated as one column.

        Returns
        -------
        ndarray, shape (feature_dim, k) or (feature_dim,)
            In Fortran order: each input's features are contiguous.
        """
        # C order: every full block must reach BLAS with one operand
        # layout, and a transposed operand rounds differently.
        x = real_array(x, "x", order="C")
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] != self.spec.input_dim:
            raise ValueError(
                f"expected input of shape ({self.spec.input_dim}, k), got {x.shape}"
            )
        rows, k = self.weights.shape[0], x.shape[1]
        z = np.empty((rows, k), order="F")
        blocks = -(-k // BLOCK_COLUMNS)
        count = _parallel.workers(rows * k, _parallel.MIN_RANGE_ENTRIES, blocks)
        with _parallel.one_blas_thread:
            _parallel.in_threads(lambda lo, hi: self._fill(x, z, lo, hi),
                                 _parallel.ranges(blocks, BLOCK_COLUMNS, count, k))
        return z[:, 0] if single else z

    def _fill(self, x: np.ndarray, z: np.ndarray, lo: int, hi: int) -> None:
        """Write the features of ``x[:, lo:hi]`` into ``z[:, lo:hi]``.

        ``lo`` is a multiple of ``BLOCK_COLUMNS``, so a partial block can
        only end the range. Bias, activation and scale run once over the
        real columns, so a single column pays at most one padded GEMM block
        but no padded cosines.
        """
        products = self._one_row_products if x.shape[0] == 1 else self._gemm_products
        products(x, z, lo, hi)
        part = z[:, lo:hi]
        if self.biases is not None:
            part += self.biases[:, None]
        if self.spec.kind == "tanh":
            np.tanh(part, out=part)
        else:
            if self.spec.kind == "rffn":
                np.cos(part, out=part)
            part *= self.scale

    def _one_row_products(self, x: np.ndarray, z: np.ndarray, lo: int, hi: int) -> None:
        """:meth:`_gemm_products` of a one-row ``x`` without the GEMM.

        With one input row an entry is one product, which the GEMM rounds
        the same way; its accumulator starts at +0.0, so adding 0.0 turns a
        product of -0.0 into the GEMM's +0.0 and leaves every other entry.
        """
        part = np.multiply(self.weights, x[:, lo:hi], out=z[:, lo:hi])
        part += 0.0

    def _gemm_products(self, x: np.ndarray, z: np.ndarray, lo: int, hi: int) -> None:
        """Write ``weights @ x[:, lo:hi]`` into ``z[:, lo:hi]`` in fixed-shape GEMM blocks."""
        rows, full = z.shape[0], hi - (hi - lo) % BLOCK_COLUMNS
        # All full blocks in one stacked matmul over (blocks, ., BLOCK_COLUMNS)
        # views of x and z. Into the Fortran-ordered z numpy runs the
        # transposed product blocksᵀ @ Wᵀ on the contiguous row blocks of z.T.
        np.matmul(
            self.weights,
            x[:, lo:full].reshape(x.shape[0], -1, BLOCK_COLUMNS).transpose(1, 0, 2),
            out=z[:, lo:full].reshape(rows, -1, BLOCK_COLUMNS).transpose(1, 0, 2),
        )
        if full < hi:
            block = np.zeros((x.shape[0], BLOCK_COLUMNS))
            block[:, :hi - full] = x[:, full:hi]
            # Fortran-ordered too, so the tail runs the full blocks' GEMM.
            product = np.empty((rows, BLOCK_COLUMNS), order="F")
            np.matmul(self.weights, block, out=product)
            z[:, full:hi] = product[:, :hi - full]


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
