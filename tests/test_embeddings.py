import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randonet
from randonet import _parallel, embeddings
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

    def test_complex_input_is_rejected(self):
        with pytest.raises(ValueError, match="^x must be real, got dtype complex128"):
            make_map("rffn", 5, 7, 16).apply(np.ones((5, 3)) + 1j)

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
        # Training factors the Fortran-ordered result in place; its features
        # must be those of one padded GEMM per block into a C-ordered array.
        for fmap in (
            make_map("jl", 100, 37, 18),
            make_map("rffn", 100, 2000, 19, bandwidth=500.0),
            make_map("tanh", 100, 33, 20, domain=(0.0, 1.0)),
        ):
            x = np.random.default_rng(22).uniform(-1.0, 2.0, (100, 101))
            got = fmap.apply(x)
            assert got.flags.f_contiguous
            np.testing.assert_array_equal(got, per_block_apply(fmap, x, "C"))

    @pytest.mark.parametrize("layout", ["F", "column slice"])
    @pytest.mark.parametrize("k", [1, BLOCK_COLUMNS - 1, BLOCK_COLUMNS, BLOCK_COLUMNS + 1,
                                   3 * BLOCK_COLUMNS + 5])
    @pytest.mark.parametrize("input_dim", [1, 2, 100])
    @pytest.mark.parametrize("kind", ["jl", "rffn", "tanh"])
    def test_stacked_blocks_match_per_block_loop(self, kind, input_dim, k, layout):
        # The stacked GEMM must give the bits of one padded GEMM per block,
        # into either result order and whatever the layout of the input.
        fmap = make_map(kind, input_dim, 37, 40, domain=(0.0, 1.0) if kind == "tanh" else None)
        wide = np.random.default_rng(41).uniform(-1.0, 2.0, (input_dim, k + 2))
        x = np.asfortranarray(wide[:, :k]) if layout == "F" else wide[:, 1:k + 1]
        assert not x.flags.c_contiguous or min(x.shape) == 1
        got = fmap.apply(x)
        assert got.flags.f_contiguous
        for order in "CF":
            np.testing.assert_array_equal(got, per_block_apply(fmap, x, order))

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("k", [1, BLOCK_COLUMNS + 1, 3 * BLOCK_COLUMNS + 5])
    @pytest.mark.parametrize("variant", ["tanh", "tanh-negative-zero-bias", "jl"])
    def test_one_input_row_gives_the_bits_of_the_gemm_blocks(self, variant, k, cpus,
                                                             split_applies, monkeypatch):
        # A product of -0.0 must come out as the +0.0 that a GEMM gives,
        # which a bias of -0.0 or the JL scale would otherwise keep negative.
        kind = variant.split("-")[0]
        fmap = make_map(kind, 1, 37, 44, domain=(0.0, 1.0) if kind == "tanh" else None)
        if variant == "tanh-negative-zero-bias":
            fmap = dataclasses.replace(fmap, biases=np.full(37, -0.0))
        x = np.random.default_rng(45).uniform(-1.0, 1.0, (1, k))
        x[0, ::3], x[0, 1::3] = 0.0, -0.0
        ranges = split_applies(cpus)
        got = fmap.apply(x)
        assert len(ranges) == min(cpus, -(-k // BLOCK_COLUMNS))
        monkeypatch.setattr(embeddings.FeatureMap, "_one_row_products",
                            embeddings.FeatureMap._gemm_products)
        expected = fmap.apply(x)
        assert got.flags.f_contiguous
        assert got.tobytes(order="F") == expected.tobytes(order="F")
        if variant != "tanh":  # zero inputs give +0.0 features
            zeros = got[:, x[0] == 0.0]
            assert zeros.size and not zeros.any() and not np.signbit(zeros).any()

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
        assert batch.shape == (feature_dim, k) and batch.flags.f_contiguous
        singles = np.column_stack([fmap.apply(x[:, i]) for i in range(k)])
        np.testing.assert_array_equal(batch, singles)
        # One column at every position of a block and of the blocks after it.
        column = x[:, :1]
        width = 2 * BLOCK_COLUMNS + 1
        repeated = fmap.apply(np.repeat(column, width, axis=1))
        np.testing.assert_array_equal(repeated, np.repeat(fmap.apply(column), width, axis=1))

    def test_batch_invariance_under_threaded_blas(self):
        # OpenBLAS splits one GEMM across its threads; the thread count is
        # read once at load, so the check needs a fresh interpreter. The
        # batch is also split into three column ranges, each on its own
        # thread, while single columns run in one.
        script = textwrap.dedent("""
            import os
            import numpy as np
            from randonet import _parallel
            from randonet.embeddings import (BLOCK_COLUMNS, EmbeddingSpec, FeatureMap,
                                             build_feature_map)
            fmap = build_feature_map(EmbeddingSpec("rffn", 100, 2000, 31, bandwidth=100.0))
            x = np.random.default_rng(32).standard_normal((100, 3 * BLOCK_COLUMNS + 5))
            whole = fmap.apply(x)
            _parallel.MIN_RANGE_ENTRIES = 1
            os.sched_getaffinity = lambda pid: set(range(3))
            ranges, fill = [], FeatureMap._fill
            def record(self, x, z, lo, hi):
                ranges.append((lo, hi))
                return fill(self, x, z, lo, hi)
            FeatureMap._fill = record
            batch = fmap.apply(x)
            FeatureMap._fill = fill
            assert sorted(ranges) == [(0, 32), (32, 64), (64, 101)], ranges
            assert np.array_equal(batch, whole)
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

    @pytest.mark.parametrize("kind, ranges", [
        pytest.param(kind, ranges, id=kind if ranges == 1 else f"{kind}-{ranges}")
        for kind in ("jl", "rffn", "tanh") for ranges in (1, 2, 3)
    ])
    def test_peak_memory_is_one_result_plus_block_scratch(self, kind, ranges, split_applies,
                                                          traced_peak):
        # An 8 MB result over 32 GEMM blocks; bias, activation and scale
        # must not add a second full-size array, and neither may a split
        # into column ranges.
        fmap = build_feature_map(EmbeddingSpec(
            kind=kind, input_dim=50, feature_dim=1000, seed=33,
            domain=(0.0, 1.0) if kind == "tanh" else None,
        ))
        x = np.random.default_rng(34).uniform(-1.0, 2.0, (50, 1000))
        calls = split_applies(ranges)
        out, peak = traced_peak(lambda: fmap.apply(x))
        assert len(calls) == ranges
        scratch = (50 + 1000) * BLOCK_COLUMNS * x.itemsize
        assert peak <= out.nbytes + scratch + 0.05 * out.nbytes

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    @pytest.mark.parametrize("k", [1, BLOCK_COLUMNS - 1, BLOCK_COLUMNS, BLOCK_COLUMNS + 1,
                                   3 * BLOCK_COLUMNS + 5])
    @pytest.mark.parametrize("kind", ["jl", "rffn", "tanh"])
    def test_column_ranges_give_the_bits_of_one_range(self, kind, k, cpus, split_applies):
        # Eight CPUs are more than the blocks of every k here.
        fmap = make_map(kind, 7, 37, 42, domain=(0.0, 1.0) if kind == "tanh" else None)
        x = np.random.default_rng(43).uniform(-1.0, 2.0, (7, k))
        whole = split_applies(1)
        expected = fmap.apply(x)
        assert whole == [(0, k)]
        ranges = split_applies(cpus)
        got = fmap.apply(x)
        assert got.flags.f_contiguous
        np.testing.assert_array_equal(got, expected)
        blocks = -(-k // BLOCK_COLUMNS)
        assert len(ranges) == min(cpus, blocks)
        bounds = sorted(ranges)
        assert bounds[0][0] == 0 and bounds[-1][1] == k
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo and lo % BLOCK_COLUMNS == 0

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_a_split_apply_starts_one_thread_per_further_range(self, cpus, split_applies,
                                                               monkeypatch):
        # One round: the caller fills the first range, and each other range
        # gets one thread that does all of its steps.
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        fmap = make_map("rffn", 7, 37, 50)
        x = np.random.default_rng(51).standard_normal((7, 8 * BLOCK_COLUMNS + 5))
        ranges = split_applies(cpus)
        fmap.apply(x)
        assert len(ranges) == cpus
        assert len(started) == cpus - 1

    def test_many_ranges_under_fast_thread_switching(self, split_applies):
        # More threads than cores, switching about every microsecond: no
        # range may lose or overwrite another's entries.
        fmap = make_map("rffn", 7, 37, 48)
        x = np.random.default_rng(49).standard_normal((7, 16 * BLOCK_COLUMNS + 3))
        split_applies(1)
        expected = fmap.apply(x)
        ranges = split_applies(16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                np.testing.assert_array_equal(fmap.apply(x), expected)
        finally:
            sys.setswitchinterval(interval)
        assert len(ranges) == 4 * 16

    def test_below_the_floor_no_thread_starts(self, monkeypatch):
        # Neither the affinity mask nor a thread is touched under the floor.
        def refuse(*args):
            raise AssertionError("asked below the floor")

        monkeypatch.setattr(os, "sched_getaffinity", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        fmap = make_map("rffn", 10, 100, 44)
        k = 2 * _parallel.MIN_RANGE_ENTRIES // 100 - 1
        x = np.random.default_rng(45).standard_normal((10, k))
        assert fmap.apply(x).shape == (100, k)

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_range_exception_reaches_the_caller(self, where, split_applies, monkeypatch):
        fmap = make_map("rffn", 7, 37, 46)
        x = np.random.default_rng(47).standard_normal((7, 3 * BLOCK_COLUMNS + 5))
        cos, caller = np.cos, threading.current_thread()
        taken = threading.Event()

        def refuse_in(z, out):
            # Whoever is free takes the next range, so the caller holds its
            # own until the worker has taken the other.
            if threading.current_thread() is caller:
                assert taken.wait(30)
            else:
                taken.set()
            if (threading.current_thread() is caller) == (where == "caller"):
                raise FloatingPointError(f"no cosine for columns of shape {z.shape}")
            return cos(z, out=out)

        before = threading.active_count()
        split_applies(2)
        monkeypatch.setattr(np, "cos", refuse_in)
        with pytest.raises(FloatingPointError) as info:
            fmap.apply(x)
        # 101 columns in two ranges: 64 here, 37 in the worker.
        cols = 64 if where == "caller" else 37
        assert str(info.value) == f"no cosine for columns of shape (37, {cols})"
        assert threading.active_count() == before

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

    @pytest.mark.parametrize("field, value, message", [
        ("weights", np.ones((4, 3)) + 1j, r"^weights must be real, got dtype complex128$"),
        ("weights", np.full((4, 3), np.nan), r"^weights contains non-finite entries$"),
        ("weights", np.ones((5, 3)), r"^weights must have shape \(4, 3\), got \(5, 3\)$"),
        ("biases", np.zeros(5), r"^biases must have shape \(4,\), got \(5,\)$"),
    ], ids=["complex", "nan", "weights-shape", "biases-shape"])
    def test_a_map_rejects_arrays_its_spec_cannot_apply(self, field, value, message):
        fmap = make_map("rffn", 3, 4, 27)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(fmap, **{field: value})


class FakeBlas:
    """Thread-count getter and setter that stand in for numpy's OpenBLAS."""

    def __init__(self, count):
        self.count, self.sets, self.gets = count, [], 0

    def get(self):
        self.gets += 1
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


class TestOneBlasThread:
    @pytest.fixture
    def blas(self, monkeypatch):
        fake = FakeBlas(4)
        monkeypatch.setattr(_parallel, "numpy_blas_threads", lambda: (fake.get, fake.set))
        monkeypatch.setattr(_parallel, "one_blas_thread",
                            _parallel.BlasThreads(_parallel.numpy_blas_threads))
        return fake

    def test_an_apply_runs_at_one_thread_and_restores_the_count(self, blas, monkeypatch):
        seen = []
        fill = embeddings.FeatureMap._fill

        def record(self, *args):
            seen.append(blas.count)
            return fill(self, *args)

        monkeypatch.setattr(embeddings.FeatureMap, "_fill", record)
        make_map("rffn", 7, 37, 60).apply(np.ones((7, 3)))
        assert seen == [1]
        assert blas.count == 4 and blas.sets == [1, 4]

    def test_only_the_outermost_block_saves_and_restores(self, blas):
        with _parallel.one_blas_thread:
            with _parallel.one_blas_thread:
                assert blas.count == 1
            assert blas.count == 1
        assert blas.sets == [1, 4]

    def test_a_nested_block_touches_neither_the_lock_nor_the_library(self, blas,
                                                                      monkeypatch):
        pin = _parallel.one_blas_thread
        with pin:
            gets, sets = blas.gets, list(blas.sets)
            monkeypatch.setattr(pin, "_lock", None)  # any use of it raises
            with pin:
                with pin:
                    pass
            monkeypatch.setattr(pin, "_lock", threading.Lock())
            assert (blas.gets, blas.sets) == (gets, sets)
        assert blas.gets == 1 and blas.sets == [1, 4]

    def test_a_block_at_a_count_sets_it_and_keeps_it_for_nested_blocks(self, blas):
        pin = _parallel.one_blas_thread
        with pin(3):
            with pin(5):
                assert blas.count == 3
            with pin:
                assert blas.count == 3
        assert blas.count == 4 and blas.sets == [3, 4]
        with pin(4):
            pass
        assert blas.sets == [3, 4]

    def test_the_count_is_restored_after_an_exception(self, blas):
        with pytest.raises(KeyError), _parallel.one_blas_thread:
            raise KeyError("inside")
        assert blas.count == 4

    def test_interleaved_blocks_in_two_threads_leave_the_callers_count(self, blas):
        # The first block to enter saves the count and the last to leave
        # restores it, whichever thread each runs on.
        entered, leave = threading.Event(), threading.Event()

        def other():
            with _parallel.one_blas_thread:
                entered.set()
                leave.wait(10)

        thread = threading.Thread(target=other)
        with _parallel.one_blas_thread:
            thread.start()
            assert entered.wait(10)
        assert blas.count == 1
        leave.set()
        thread.join()
        assert blas.count == 4 and blas.sets == [1, 4]

    def test_a_caller_at_one_thread_sees_no_set(self, blas):
        blas.count = 1
        with _parallel.one_blas_thread:
            pass
        assert blas.sets == []

    def test_without_the_library_nothing_is_set(self, monkeypatch):
        monkeypatch.setattr(_parallel.glob, "glob", lambda pattern: [])
        found = _parallel.numpy_blas_threads.__wrapped__()
        assert found[0]() == 1 and found[1] is None
        monkeypatch.setattr(_parallel, "numpy_blas_threads", lambda: found)
        monkeypatch.setattr(_parallel, "one_blas_thread",
                            _parallel.BlasThreads(_parallel.numpy_blas_threads))
        fmap = make_map("jl", 4, 6, 61)
        assert fmap.apply(np.ones((4, 2))).shape == (6, 2)


class TestSpecAndSerialization:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            EmbeddingSpec(kind="poly", input_dim=2, feature_dim=2)
        with pytest.raises(ValueError, match="input_dim must be an integer >= 1"):
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
        for bad in (-1, 1.5, None, (3, -1)):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                EmbeddingSpec(kind="jl", input_dim=1, feature_dim=2, seed=bad)

    def test_spec_roundtrip(self):
        spec = EmbeddingSpec(
            kind="tanh", input_dim=1, feature_dim=9, seed=(3, 0),
            weight_bound=12.0, domain=(-1.0, 1.0),
        )
        assert EmbeddingSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("seed, stored", [(np.int64(3), 3),
                                              ((np.int64(3), np.uint8(1)), (3, 1)),
                                              (((np.int64(3), 0), 1), ((3, 0), 1))])
    def test_numpy_integer_seeds_are_stored_as_ints(self, seed, stored):
        spec = EmbeddingSpec("jl", 3, 4, seed)
        assert spec == EmbeddingSpec("jl", 3, 4, stored)
        assert EmbeddingSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

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
