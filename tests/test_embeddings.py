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
    load_feature_map,
    sample_jl,
    sample_rffn,
    sample_tanh_trunk,
    save_feature_map,
)
from randonet.linalg import tsvd_factorize, tsvd_pinv_apply


class TestSampleJL:
    def test_single_weight(self):
        fmap = sample_jl(1, 1, seed=0)
        assert fmap.weights.shape == (1, 1)
        assert fmap.scale == 1.0
        assert fmap.biases is None

    def test_deterministic(self):
        a = sample_jl(7, 5, seed=123)
        b = sample_jl(7, 5, seed=123)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_norm_preservation_monte_carlo(self):
        fmap = sample_jl(100, 400, seed=1)
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
            fmap = sample_jl(40, m_feat, seed=seed)
            x = np.random.default_rng(100 + seed).standard_normal((40, n_points))
            z = fmap.apply(x)
            d_x = np.linalg.norm(x[:, :, None] - x[:, None, :], axis=0) ** 2
            d_z = np.linalg.norm(z[:, :, None] - z[:, None, :], axis=0) ** 2
            mask = ~np.eye(n_points, dtype=bool)
            ok = np.abs(d_z[mask] - d_x[mask]) <= eps * d_x[mask]
            assert ok.mean() >= 0.95


class TestSampleRFFN:
    def test_zero_input_with_forced_zero_biases(self):
        fmap = sample_rffn(4, 16, seed=3)
        forced = dataclasses.replace(fmap, biases=np.zeros(16))
        out = forced.apply(np.zeros(4))
        np.testing.assert_allclose(out, np.full(16, fmap.scale))

    def test_deterministic(self):
        a = sample_rffn(5, 9, seed=4)
        b = sample_rffn(5, 9, seed=4)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_gaussian_kernel_approximation(self):
        m = 2
        fmap = sample_rffn(m, 4000, seed=5)
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
        fmap = sample_rffn(m, 4000, seed=5, input_scale=False, bandwidth=3.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.uniform(-2.0, 2.0, m)
            v = rng.uniform(-2.0, 2.0, m)
            approx = float(fmap.apply(u) @ fmap.apply(v))
            exact = float(np.exp(-np.linalg.norm(u - v) ** 2 / 18.0))
            assert abs(approx - exact) <= 0.05

    def test_scale_value_and_switch(self):
        with_factor = sample_rffn(10, 8, seed=0)
        without = sample_rffn(10, 8, seed=0, input_scale=False)
        assert with_factor.scale == pytest.approx(np.sqrt(2 / 8) / 10)
        assert without.scale == pytest.approx(np.sqrt(2 / 8))
        # The switch only rescales features.
        x = np.random.default_rng(1).standard_normal((10, 3))
        np.testing.assert_allclose(without.apply(x), 10 * with_factor.apply(x))

    def test_features_bounded_by_scale(self):
        fmap = sample_rffn(6, 32, seed=8)
        x = np.random.default_rng(9).standard_normal((6, 100_000)) * 50
        out = fmap.apply(x)
        assert np.all(np.abs(out) <= fmap.scale + 1e-15)


class TestSampleTanhTrunk:
    def test_feature_vanishes_at_its_center(self):
        fmap = sample_tanh_trunk((0.0, 1.0), 50, seed=10)
        centers = -fmap.biases / fmap.weights[:, 0]
        for k in (0, 17, 49):
            out = fmap.apply(np.array([centers[k]]))
            assert abs(out[k]) < 1e-12

    def test_deterministic_feature_vector(self):
        y = np.array([[0.3]])
        a = sample_tanh_trunk((0.0, 1.0), 200, seed=11).apply(y)
        b = sample_tanh_trunk((0.0, 1.0), 200, seed=11).apply(y)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (200, 1)

    def test_default_weight_bound(self):
        assert default_weight_bound((0.0, 1.0)) == pytest.approx(50.0)
        assert default_weight_bound((-1.0, 1.0)) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            default_weight_bound((1.0, 1.0))

    def test_centers_inside_domain(self):
        fmap = sample_tanh_trunk((-2.0, 3.0), 100, seed=12)
        centers = -fmap.biases / fmap.weights[:, 0]
        assert np.all(centers >= -2.0) and np.all(centers <= 3.0)

    def test_fits_sine_through_least_squares(self):
        fmap = sample_tanh_trunk((-1.0, 1.0), 200, weight_bound=25.0, seed=13)
        y = np.linspace(-1, 1, 100)
        feats = fmap.apply(y[None, :])
        target = np.sin(np.pi * y)[None, :]
        w = tsvd_pinv_apply(tsvd_factorize(feats, reg=0.0), target, side="right")
        rel = np.linalg.norm(w @ feats - target) / np.linalg.norm(target)
        assert rel <= 1e-8

    def test_outputs_bounded_by_one(self):
        # Mathematically tanh stays inside (-1, 1); in float64 it rounds to
        # exactly +-1.0 once |z| exceeds ~19, so the attainable bound is <=.
        fmap = sample_tanh_trunk((0.0, 1.0), 64, seed=14)
        out = fmap.apply(np.random.default_rng(15).uniform(0, 1, (1, 10_000)))
        assert np.all(np.abs(out) <= 1.0)
        inner = fmap.apply(np.linspace(0.4, 0.6, 101)[None, :])
        assert np.abs(inner).max() <= 1.0


class TestApply:
    def test_single_column_and_vector_agree(self):
        fmap = sample_jl(5, 7, seed=16)
        x = np.random.default_rng(17).standard_normal(5)
        np.testing.assert_array_equal(fmap.apply(x), fmap.apply(x[:, None])[:, 0])

    def test_batch_equals_per_column_exactly(self):
        for fmap in (
            sample_jl(20, 33, seed=18),
            sample_rffn(20, 33, seed=19),
            sample_tanh_trunk((0.0, 1.0), 33, seed=20, input_dim=20),
        ):
            x = np.random.default_rng(21).standard_normal((20, 13))
            batch = fmap.apply(x)
            singles = np.column_stack([fmap.apply(x[:, i]) for i in range(13)])
            np.testing.assert_array_equal(batch, singles)

    def test_fortran_ordered_result_has_the_same_bits(self):
        # Training builds the branch matrix in Fortran order to factor it in
        # place; its features must be those that apply returns.
        for fmap in (
            sample_jl(100, 37, seed=18),
            sample_rffn(100, 2000, seed=19, bandwidth=500.0),
            sample_tanh_trunk((0.0, 1.0), 33, seed=20, input_dim=100),
        ):
            x = np.random.default_rng(22).uniform(-1.0, 2.0, (100, 101))
            got = fmap._apply(x, "F")
            assert got.flags.f_contiguous
            np.testing.assert_array_equal(got, fmap.apply(x))

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
            from randonet.embeddings import BLOCK_COLUMNS, sample_rffn
            fmap = sample_rffn(100, 2000, seed=31, bandwidth=100.0)
            x = np.random.default_rng(32).standard_normal((100, 3 * BLOCK_COLUMNS + 5))
            batch = fmap.apply(x)
            for i in range(x.shape[1]):
                assert np.array_equal(batch[:, i], fmap.apply(x[:, i])), i
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
        fmap = sample_jl(4, 6, seed=22)
        x = np.random.default_rng(23).standard_normal((4, 2))
        both = fmap.apply(x)
        np.testing.assert_array_equal(both[:, 0], fmap.apply(x[:, 0]))
        np.testing.assert_array_equal(both[:, 1], fmap.apply(x[:, 1]))

    def test_dimension_mismatch(self):
        fmap = sample_jl(4, 6, seed=24)
        with pytest.raises(ValueError, match=r"\(4, k\)"):
            fmap.apply(np.ones((5, 2)))

    def test_weights_frozen(self):
        fmap = sample_jl(3, 3, seed=25)
        with pytest.raises(ValueError):
            fmap.weights[0, 0] = 1.0

    def test_caller_arrays_stay_writable(self):
        fmap = sample_rffn(3, 4, seed=26)
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
        with pytest.raises(ValueError, match="bandwidth"):
            EmbeddingSpec(kind="rffn", input_dim=1, feature_dim=2, bandwidth=0.0)

    def test_spec_roundtrip(self):
        spec = EmbeddingSpec(
            kind="tanh", input_dim=1, feature_dim=9, seed=(3, 0),
            weight_bound=12.0, domain=(-1.0, 1.0),
        )
        assert EmbeddingSpec.from_dict(spec.to_dict()) == spec

    def test_build_from_spec_reproduces_sampling(self):
        spec = EmbeddingSpec(kind="rffn", input_dim=6, feature_dim=11, seed=77, bandwidth=2.5)
        a = build_feature_map(spec)
        b = sample_rffn(6, 11, seed=77, bandwidth=2.5)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_save_load_roundtrip(self, tmp_path):
        for fmap in (sample_jl(4, 5, seed=26), sample_tanh_trunk((0.0, 2.0), 6, seed=27)):
            path = tmp_path / f"{fmap.spec.kind}.npz"
            save_feature_map(fmap, path)
            loaded = load_feature_map(path)
            assert loaded.spec == fmap.spec
            assert loaded.scale == fmap.scale
            np.testing.assert_array_equal(loaded.weights, fmap.weights)
            if fmap.biases is None:
                assert loaded.biases is None
            else:
                np.testing.assert_array_equal(loaded.biases, fmap.biases)
            x = np.random.default_rng(28).standard_normal((fmap.spec.input_dim, 4))
            np.testing.assert_array_equal(loaded.apply(x), fmap.apply(x))
