import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randonet
from randonet.embeddings import (
    BLOCK_COLUMNS,
    EmbeddingSpec,
    default_weight_bound,
    build_feature_map,
)
from randonet.linalg import tsvd_factorize, tsvd_pinv_apply


def make_map(kind, input_dim, feature_dim, seed, **fields):
    return build_feature_map(EmbeddingSpec(kind, input_dim, feature_dim, seed, **fields))


def per_block_apply(fmap, x, order):
    """Reference ``apply``: one zero-padded scratch block per GEMM call."""
    k = x.shape[1]
    block = np.zeros((x.shape[0], BLOCK_COLUMNS))
    product = np.empty((fmap.weights.shape[0], BLOCK_COLUMNS))
    z = np.empty((fmap.weights.shape[0], k), order=order)
    for start in range(0, k, BLOCK_COLUMNS):
        width = min(BLOCK_COLUMNS, k - start)
        block[:, :width] = x[:, start:start + width]
        block[:, width:] = 0.0
        np.matmul(fmap.weights, block, out=product)
        z[:, start:start + width] = product[:, :width]
    if fmap.biases is not None:
        z += fmap.biases[:, None]
    if fmap.spec.kind == "tanh":
        np.tanh(z, out=z)
    else:
        if fmap.spec.kind == "rffn":
            np.cos(z, out=z)
        z *= fmap.scale
    return z


class TestSampleJL:
    def test_single_weight(self):
        fmap = make_map("jl", 1, 1, 0)
        assert fmap.weights.shape == (1, 1)
        assert fmap.scale == 1.0
        assert fmap.biases is None

    def test_deterministic(self):
        a = make_map("jl", 7, 5, 123)
        b = make_map("jl", 7, 5, 123)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_norm_preservation_monte_carlo(self):
        fmap = make_map("jl", 100, 400, 1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 1000))
        x /= np.linalg.norm(x, axis=0)
        ratios = np.linalg.norm(fmap.apply(x), axis=0) ** 2
        assert 0.9 <= float(ratios.mean()) <= 1.1

    def test_isometry_fraction_of_pairs(self):
        # M >= 8 ln(#points) / eps^2 at eps = 0.5 over several seeds.
        eps = 0.5
        n_points = 100
        m_feat = int(np.ceil(8 * np.log(n_points) / eps**2))
        for seed in (0, 1, 2):
            fmap = make_map("jl", 40, m_feat, seed)
            x = np.random.default_rng(100 + seed).standard_normal((40, n_points))
            z = fmap.apply(x)
            d_x = np.linalg.norm(x[:, :, None] - x[:, None, :], axis=0) ** 2
            d_z = np.linalg.norm(z[:, :, None] - z[:, None, :], axis=0) ** 2
            mask = ~np.eye(n_points, dtype=bool)
            ok = np.abs(d_z[mask] - d_x[mask]) <= eps * d_x[mask]
            assert ok.mean() >= 0.95


class TestSampleRFFN:
    def test_zero_input_with_forced_zero_biases(self):
        fmap = make_map("rffn", 4, 16, 3)
        forced = dataclasses.replace(fmap, biases=np.zeros(16))
        out = forced.apply(np.zeros(4))
        np.testing.assert_allclose(out, np.full(16, fmap.scale))

    def test_deterministic(self):
        a = make_map("rffn", 5, 9, 4)
        b = make_map("rffn", 5, 9, 4)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_gaussian_kernel_approximation(self):
        m = 2
        fmap = make_map("rffn", m, 4000, 5)
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(50):
            u = rng.uniform(-1.0, 1.0, m)
            v = u + rng.uniform(-1.0, 1.0, m)
            if np.linalg.norm(u - v) > 3.0:
                continue
            approx = float(fmap.apply(u) @ fmap.apply(v)) * m**2
            exact = float(np.exp(-np.linalg.norm(u - v) ** 2 / 2.0))
            worst = max(worst, abs(approx - exact))
        assert worst <= 0.05

    def test_bandwidth_widens_kernel(self):
        m = 2
        fmap = make_map("rffn", m, 4000, 5, bandwidth=3.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.uniform(-2.0, 2.0, m)
            v = rng.uniform(-2.0, 2.0, m)
            approx = float(fmap.apply(u) @ fmap.apply(v)) * m**2
            exact = float(np.exp(-np.linalg.norm(u - v) ** 2 / 18.0))
            assert abs(approx - exact) <= 0.05

    def test_scale_value(self):
        assert make_map("rffn", 10, 8, 0).scale == pytest.approx(np.sqrt(2 / 8) / 10)

    def test_features_bounded_by_scale(self):
        fmap = make_map("rffn", 6, 32, 8)
        x = np.random.default_rng(9).standard_normal((6, 100_000)) * 50
        out = fmap.apply(x)
        assert np.all(np.abs(out) <= fmap.scale + 1e-15)


class TestSampleTanhTrunk:
    def test_feature_vanishes_at_its_center(self):
        fmap = make_map("tanh", 1, 50, 10, domain=(0.0, 1.0))
        centers = -fmap.biases / fmap.weights[:, 0]
        for k in (0, 17, 49):
            out = fmap.apply(np.array([centers[k]]))
            assert abs(out[k]) < 1e-12

    def test_deterministic_feature_vector(self):
        y = np.array([[0.3]])
        a = make_map("tanh", 1, 200, 11, domain=(0.0, 1.0)).apply(y)
        b = make_map("tanh", 1, 200, 11, domain=(0.0, 1.0)).apply(y)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (200, 1)

    def test_default_weight_bound(self):
        assert default_weight_bound((0.0, 1.0)) == pytest.approx(50.0)
        assert default_weight_bound((-1.0, 1.0)) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            default_weight_bound((1.0, 1.0))

    def test_centers_inside_domain(self):
        fmap = make_map("tanh", 1, 100, 12, domain=(-2.0, 3.0))
        centers = -fmap.biases / fmap.weights[:, 0]
        assert np.all(centers >= -2.0) and np.all(centers <= 3.0)

    def test_fits_sine_through_least_squares(self):
        fmap = make_map("tanh", 1, 200, 13, domain=(-1.0, 1.0), weight_bound=25.0)
        y = np.linspace(-1, 1, 100)
        feats = fmap.apply(y[None, :])
        target = np.sin(np.pi * y)[None, :]
        w = tsvd_pinv_apply(tsvd_factorize(feats, reg=0.0), target)
        rel = np.linalg.norm(w @ feats - target) / np.linalg.norm(target)
        assert rel <= 1e-8

    def test_outputs_bounded_by_one(self):
        # Mathematically tanh stays inside (-1, 1); in float64 it rounds to
        # exactly +-1.0 once |z| exceeds ~19, so the attainable bound is <=.
        fmap = make_map("tanh", 1, 64, 14, domain=(0.0, 1.0))
        out = fmap.apply(np.random.default_rng(15).uniform(0, 1, (1, 10_000)))
        assert np.all(np.abs(out) <= 1.0)
        inner = fmap.apply(np.linspace(0.4, 0.6, 101)[None, :])
        assert np.abs(inner).max() <= 1.0


class TestApply:
    def test_single_column_and_vector_agree(self):
        fmap = make_map("jl", 5, 7, 16)
        x = np.random.default_rng(17).standard_normal(5)
        np.testing.assert_array_equal(fmap.apply(x), fmap.apply(x[:, None])[:, 0])

    def test_batch_equals_per_column_exactly(self):
        for fmap in (
            make_map("jl", 20, 33, 18),
            make_map("rffn", 20, 33, 19),
            make_map("tanh", 20, 33, 20, domain=(0.0, 1.0)),
        ):
            x = np.random.default_rng(21).standard_normal((20, 13))
            batch = fmap.apply(x)
            singles = np.column_stack([fmap.apply(x[:, i]) for i in range(13)])
            np.testing.assert_array_equal(batch, singles)

    def test_fortran_ordered_result_has_the_same_bits(self):
        # Training builds the branch matrix in Fortran order to factor it in
        # place; its features must be those that apply returns.
        for fmap in (
            make_map("jl", 100, 37, 18),
            make_map("rffn", 100, 2000, 19, bandwidth=500.0),
            make_map("tanh", 100, 33, 20, domain=(0.0, 1.0)),
        ):
            x = np.random.default_rng(22).uniform(-1.0, 2.0, (100, 101))
            got = fmap.apply(x, order="F")
            assert got.flags.f_contiguous
            np.testing.assert_array_equal(got, fmap.apply(x))

    @pytest.mark.parametrize("layout", ["F", "column slice"])
    @pytest.mark.parametrize("k", [1, BLOCK_COLUMNS - 1, BLOCK_COLUMNS, BLOCK_COLUMNS + 1,
                                   3 * BLOCK_COLUMNS + 5])
    @pytest.mark.parametrize("input_dim", [1, 2, 100])
    @pytest.mark.parametrize("kind", ["jl", "rffn", "tanh"])
    def test_stacked_blocks_match_per_block_loop(self, kind, input_dim, k, layout):
        # The stacked GEMM must give the bits of one padded GEMM per block,
        # in both result orders and whatever the layout of the input.
        fmap = make_map(kind, input_dim, 37, 40, domain=(0.0, 1.0) if kind == "tanh" else None)
        wide = np.random.default_rng(41).uniform(-1.0, 2.0, (input_dim, k + 2))
        x = np.asfortranarray(wide[:, :k]) if layout == "F" else wide[:, 1:k + 1]
        assert not x.flags.c_contiguous or min(x.shape) == 1
        for order in "CF":
            got = fmap.apply(x, order=order)
            assert got.flags[f"{order}_CONTIGUOUS"]
            np.testing.assert_array_equal(got, per_block_apply(fmap, x, order))

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["jl", "rffn", "tanh"]),
        input_dim=st.sampled_from([1, 2, 7]),
        feature_dim=st.integers(1, 40),
        k=st.sampled_from([1, BLOCK_COLUMNS - 1, BLOCK_COLUMNS, BLOCK_COLUMNS + 1,
                           3 * BLOCK_COLUMNS + 5]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_block_boundaries_and_positions(self, kind, input_dim, feature_dim, k, seed):
        fmap = build_feature_map(EmbeddingSpec(
            kind=kind, input_dim=input_dim, feature_dim=feature_dim, seed=seed,
            domain=(0.0, 1.0) if kind == "tanh" else None,
        ))
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 2.0, (input_dim, k))
        batch = fmap.apply(x)
        assert batch.shape == (feature_dim, k) and batch.flags.c_contiguous
        singles = np.column_stack([fmap.apply(x[:, i]) for i in range(k)])
        np.testing.assert_array_equal(batch, singles)
        # One column at every position of a block and of the blocks after it.
        column = x[:, :1]
        width = 2 * BLOCK_COLUMNS + 1
        repeated = fmap.apply(np.repeat(column, width, axis=1))
        np.testing.assert_array_equal(repeated, np.repeat(fmap.apply(column), width, axis=1))

    def test_batch_invariance_under_threaded_blas(self):
        # OpenBLAS splits one GEMM across its threads; the thread count is
        # read once at load, so the check needs a fresh interpreter.
        script = textwrap.dedent("""
            import numpy as np
            from randonet.embeddings import BLOCK_COLUMNS, EmbeddingSpec, build_feature_map
            fmap = build_feature_map(EmbeddingSpec("rffn", 100, 2000, 31, bandwidth=100.0))
            x = np.random.default_rng(32).standard_normal((100, 3 * BLOCK_COLUMNS + 5))
            batch = fmap.apply(x)
            for i in range(x.shape[1]):
                assert np.array_equal(batch[:, i], fmap.apply(x[:, i])), i
            # The Fortran-ordered result runs the transposed GEMM.
            assert np.array_equal(fmap.apply(x, order="F"), batch)
            print("ok")
        """)
        src = str(Path(randonet.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    @pytest.mark.parametrize("kind", ["jl", "rffn", "tanh"])
    def test_peak_memory_is_one_result_plus_block_scratch(self, kind, traced_peak):
        # An 8 MB result over 32 GEMM blocks; bias, activation and scale
        # must not add a second full-size array.
        fmap = build_feature_map(EmbeddingSpec(
            kind=kind, input_dim=50, feature_dim=1000, seed=33,
            domain=(0.0, 1.0) if kind == "tanh" else None,
        ))
        x = np.random.default_rng(34).uniform(-1.0, 2.0, (50, 1000))
        out, peak = traced_peak(lambda: fmap.apply(x))
        scratch = (50 + 1000) * BLOCK_COLUMNS * x.itemsize
        assert peak <= out.nbytes + scratch + 0.05 * out.nbytes

    def test_jl_linearity_of_batching(self):
        fmap = make_map("jl", 4, 6, 22)
        x = np.random.default_rng(23).standard_normal((4, 2))
        both = fmap.apply(x)
        np.testing.assert_array_equal(both[:, 0], fmap.apply(x[:, 0]))
        np.testing.assert_array_equal(both[:, 1], fmap.apply(x[:, 1]))

    def test_dimension_mismatch(self):
        fmap = make_map("jl", 4, 6, 24)
        with pytest.raises(ValueError, match=r"\(4, k\)"):
            fmap.apply(np.ones((5, 2)))

    def test_weights_frozen(self):
        fmap = make_map("jl", 3, 3, 25)
        with pytest.raises(ValueError):
            fmap.weights[0, 0] = 1.0

    def test_caller_arrays_stay_writable(self):
        fmap = make_map("rffn", 3, 4, 26)
        mine_w = np.ones((4, 3))
        mine_b = np.zeros(4)
        variant = dataclasses.replace(fmap, weights=mine_w, biases=mine_b)
        assert mine_w.flags.writeable and mine_b.flags.writeable
        assert not variant.weights.flags.writeable and not variant.biases.flags.writeable
        before = variant.apply(np.ones(3))
        mine_w[0, 0] = 5.0
        mine_b[0] = 1.0
        np.testing.assert_array_equal(variant.apply(np.ones(3)), before)


class TestSpecAndSerialization:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            EmbeddingSpec(kind="poly", input_dim=2, feature_dim=2)
        with pytest.raises(ValueError, match="dimensions"):
            EmbeddingSpec(kind="jl", input_dim=0, feature_dim=2)
        with pytest.raises(ValueError, match="domain"):
            EmbeddingSpec(kind="tanh", input_dim=1, feature_dim=2)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="bandwidth"):
                EmbeddingSpec(kind="rffn", input_dim=1, feature_dim=2, bandwidth=bad)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="weight_bound"):
                EmbeddingSpec(kind="tanh", input_dim=1, feature_dim=2, weight_bound=bad,
                              domain=(0.0, 1.0))

    def test_spec_roundtrip(self):
        spec = EmbeddingSpec(
            kind="tanh", input_dim=1, feature_dim=9, seed=(3, 0),
            weight_bound=12.0, domain=(-1.0, 1.0),
        )
        assert EmbeddingSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unscaled_rffn(self):
        # Older files record input_scale; only true (the one map built) loads,
        # so a file of an unscaled map never reloads as a different map.
        spec = EmbeddingSpec("rffn", 3, 4, 0, bandwidth=2.0)
        d = spec.to_dict()
        assert "input_scale" not in d
        assert EmbeddingSpec.from_dict({**d, "input_scale": True}) == spec
        with pytest.raises(ValueError, match="input_scale"):
            EmbeddingSpec.from_dict({**d, "input_scale": False})


class TestDocumentedDrawOrder:
    """Each kind draws from ``default_rng(seed)`` in the module docstring's order."""

    def test_jl(self):
        fmap = make_map("jl", 7, 5, (3, 1))
        rng = np.random.default_rng((3, 1))
        np.testing.assert_array_equal(fmap.weights, rng.standard_normal((5, 7)))
        assert fmap.biases is None
        assert fmap.scale == 1.0 / np.sqrt(5)

    def test_rffn(self):
        fmap = make_map("rffn", 6, 11, 77, bandwidth=2.5)
        rng = np.random.default_rng(77)
        np.testing.assert_array_equal(fmap.weights, rng.standard_normal((11, 6)) / 2.5)
        np.testing.assert_array_equal(fmap.biases, rng.uniform(0.0, 2.0 * np.pi, 11))
        assert fmap.scale == np.sqrt(2.0 / 11) / 6

    @pytest.mark.parametrize("weight_bound", [None, 4.0])
    def test_tanh(self, weight_bound):
        # An integer domain is recorded as floats, and a missing bound as
        # the default 25 / half-width = 10.
        fmap = make_map("tanh", 2, 9, 5, domain=(-2, 3), weight_bound=weight_bound)
        bound = 10.0 if weight_bound is None else weight_bound
        rng = np.random.default_rng(5)
        weights = rng.uniform(-bound, bound, (9, 2))
        centers = rng.uniform(-2.0, 3.0, (9, 2))
        np.testing.assert_array_equal(fmap.weights, weights)
        np.testing.assert_array_equal(fmap.biases, -np.sum(weights * centers, axis=1))
        assert fmap.scale == 1.0
        assert fmap.spec == EmbeddingSpec("tanh", 2, 9, 5, weight_bound=bound, domain=(-2.0, 3.0))
        assert type(fmap.spec.weight_bound) is float
        assert all(type(v) is float for v in fmap.spec.domain)
