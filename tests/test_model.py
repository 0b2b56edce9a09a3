import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randonet
from randonet import _parallel, linalg
from randonet import model as model_module
from randonet.embeddings import (
    BLOCK_COLUMNS,
    EmbeddingSpec,
    FeatureMap,
    build_feature_map,
)
from randonet.harness import (
    ExperimentConfig,
    branch_spec_for,
    dataset_for,
    mse,
    split,
    trunk_spec_for,
)
from randonet.model import (
    SOLVERS,
    AlignedDataset,
    RandONetModel,
    TrainingError,
    UnalignedDataset,
    evaluate,
    explode_aligned,
    load_model,
    save_model,
    train_aligned,
    train_unaligned,
)
from randonet.problems import case_config


def toy_dataset(m=10, n=10, s=5, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, m)
    y = np.linspace(0.0, 1.0, n)
    return AlignedDataset(x=x, y=y, U=rng.standard_normal((m, s)), V=rng.standard_normal((n, s)))


def toy_specs(m=10, n_feat=8, m_feat=8, seed=1):
    trunk = EmbeddingSpec("tanh", 1, n_feat, (seed, 0), domain=(0.0, 1.0))
    branch = EmbeddingSpec("jl", m, m_feat, (seed, 1))
    return trunk, branch


def features(spec, x):
    """The feature matrix of input columns ``x`` under the map of ``spec``."""
    return build_feature_map(spec).apply(x)


def fail_on_features(monkeypatch):
    def no_features(*args, **kwargs):
        raise AssertionError("a feature matrix was built")

    monkeypatch.setattr(FeatureMap, "apply", no_features)


def count_feature_builds_without_svd(monkeypatch):
    """Count ``FeatureMap.apply`` calls and fail any ``np.linalg.svd`` call."""
    calls = []
    original = FeatureMap.apply

    def counting(self, x):
        calls.append(self.spec.kind)
        return original(self, x)

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(FeatureMap, "apply", counting)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    return calls


class TestDatasetTypes:
    def test_aligned_validation(self):
        x = np.linspace(0, 1, 4)
        with pytest.raises(ValueError, match="increasing"):
            AlignedDataset(x=x[::-1], y=x, U=np.zeros((4, 2)), V=np.zeros((4, 2)))
        for grid in (np.array([0.0, 0.3, np.nan, 1.0]), np.array([0.0, 0.3, 1.0, np.inf])):
            with pytest.raises(ValueError, match="x contains non-finite"):
                AlignedDataset(x=grid, y=x, U=np.zeros((4, 2)), V=np.zeros((4, 2)))
            with pytest.raises(ValueError, match="y contains non-finite"):
                AlignedDataset(x=x, y=grid, U=np.zeros((4, 2)), V=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="shapes"):
            AlignedDataset(x=x, y=x, U=np.zeros((4, 2)), V=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            AlignedDataset(x=x, y=x, U=np.full((4, 1), np.nan), V=np.zeros((4, 1)))

    @pytest.mark.parametrize("field", ["x", "y", "U", "V"])
    def test_aligned_rejects_complex_arrays(self, field):
        x = np.linspace(0, 1, 4)
        arrays = {"x": x, "y": x, "U": np.zeros((4, 2)), "V": np.zeros((4, 2))}
        arrays[field] = arrays[field] + 1j
        with pytest.raises(ValueError, match=f"^{field} must be real"):
            AlignedDataset(**arrays)

    @pytest.mark.parametrize("field", ["U", "Y", "V"])
    def test_unaligned_rejects_complex_arrays(self, field):
        arrays = {"U": np.zeros((3, 4)), "Y": np.zeros((1, 4)), "V": np.zeros(4)}
        arrays[field] = arrays[field] + 1j
        with pytest.raises(ValueError, match=f"^{field} must be real"):
            UnalignedDataset(**arrays)

    def test_unaligned_validation(self):
        with pytest.raises(ValueError, match="sample counts"):
            UnalignedDataset(U=np.zeros((3, 4)), Y=np.zeros((1, 4)), V=np.zeros(5))

    def test_aligned_needs_a_function(self):
        # train_aligned once failed on it naming an internal matrix, "A".
        x = np.linspace(0, 1, 4)
        with pytest.raises(ValueError, match=r"^a dataset needs at least one function, got U "
                                             r"of shape \(4, 0\)"):
            AlignedDataset(x=x, y=x, U=np.zeros((4, 0)), V=np.zeros((4, 0)))

    @pytest.mark.parametrize("field, what", [("x", "sensor"), ("y", "output location")])
    def test_aligned_needs_a_sensor_and_an_output_location(self, field, what):
        # train_aligned once failed on them naming an internal matrix, "A".
        grids = {"x": np.linspace(0, 1, 4), "y": np.linspace(0, 1, 3)}
        grids[field] = np.zeros(0)
        with pytest.raises(ValueError, match=rf"^a dataset needs at least one {what}, got "
                                             rf"{field} of shape \(0,\)"):
            AlignedDataset(**grids, U=np.zeros((grids["x"].size, 2)),
                           V=np.zeros((grids["y"].size, 2)))

    @pytest.mark.parametrize("field, what", [("U", "sensor"), ("Y", "location coordinate")])
    def test_unaligned_needs_a_sensor_and_a_location_coordinate(self, field, what):
        # An empty Y once reached "trunk input_dim must be 0 for 0-D output
        # locations" in train_unaligned.
        arrays = {"U": np.zeros((4, 3)), "Y": np.zeros((1, 3)), "V": np.zeros(3)}
        arrays[field] = np.zeros((0, 3))
        with pytest.raises(ValueError, match=rf"^a dataset needs at least one {what}, got "
                                             rf"{field} of shape \(0, 3\)"):
            UnalignedDataset(**arrays)

    def test_unaligned_needs_a_sample(self):
        # train_unaligned once failed on it in a numpy reshape.
        with pytest.raises(ValueError, match=r"^a dataset needs at least one sample, got U "
                                             r"of shape \(3, 0\)"):
            UnalignedDataset(U=np.zeros((3, 0)), Y=np.zeros((1, 0)), V=np.zeros(0))

    def test_unaligned_holds_c_contiguous_u(self):
        # A column subset by fancy indexing is F-ordered; the dataset keeps
        # a C copy, the layout feature maps read, so fits copy nothing.
        u = np.random.default_rng(3).standard_normal((5, 12))
        cols = np.array([0, 3, 3, 7, 11, 2])
        assert not u[:, cols].flags.c_contiguous
        ds = UnalignedDataset(U=u[:, cols], Y=np.zeros((1, 6)), V=np.zeros(6))
        assert ds.U.flags.c_contiguous
        np.testing.assert_array_equal(ds.U, u[:, cols])

    @pytest.mark.parametrize("field", ["U", "Y", "V"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unaligned_rejects_non_finite(self, field, bad):
        arrays = {"U": np.zeros((3, 4)), "Y": np.zeros((1, 4)), "V": np.zeros(4)}
        arrays[field].flat[1] = bad
        with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
            UnalignedDataset(**arrays)


class TestTrainAligned:
    def test_zero_targets_give_zero_readout(self):
        ds = toy_dataset()
        ds = AlignedDataset(x=ds.x, y=ds.y, U=ds.U, V=np.zeros_like(ds.V))
        trunk, branch = toy_specs()
        for solver in SOLVERS:
            model = train_aligned(ds, trunk, branch, solver=solver)
            np.testing.assert_array_equal(model.readout, np.zeros((8, 8)))

    def test_identity_operator_self_consistency(self):
        # U = V on the same grid: held-out training column reproduced.
        rng = np.random.default_rng(2)
        m = 12
        x = np.linspace(0, 1, m)
        u_mat = rng.standard_normal((m, 30))
        ds = AlignedDataset(x=x, y=x, U=u_mat, V=u_mat)
        trunk = EmbeddingSpec("tanh", 1, 40, (3, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("jl", m, m, (3, 1))
        model = train_aligned(ds, trunk, branch, solver="cod")
        probe = u_mat[:, 7]
        pred = evaluate(model, probe, x)
        assert np.linalg.norm(pred - probe) <= 1e-8

    def test_takes_specs_only(self, monkeypatch):
        # A built map is rejected before any feature is built, so every
        # trained model's maps are build_feature_map of their specs.
        ds = toy_dataset()
        trunk, branch = toy_specs(seed=4)
        model = train_aligned(ds, trunk, branch)
        for fmap, spec in ((model.trunk, trunk), (model.branch, branch)):
            rebuilt = build_feature_map(spec)
            assert fmap.spec == rebuilt.spec and fmap.scale == rebuilt.scale
            for name in ("weights", "biases"):
                np.testing.assert_array_equal(getattr(fmap, name), getattr(rebuilt, name))
        built = (build_feature_map(trunk), build_feature_map(branch))
        fail_on_features(monkeypatch)
        for train, data in ((train_aligned, ds), (train_unaligned, explode_aligned(ds))):
            for maps in ((built[0], branch), (trunk, built[1]), ("trunk", branch)):
                with pytest.raises(TypeError, match="expected an EmbeddingSpec"):
                    train(data, *maps)

    def test_takes_its_own_dataset_kind_only(self, monkeypatch):
        # Rejected before any map is built, naming both types, where the
        # wrong kind once failed on a missing attribute.
        ds = toy_dataset()
        specs = toy_specs()

        def no_maps(*args, **kwargs):
            raise AssertionError("a feature map was built")

        monkeypatch.setattr(model_module, "build_feature_map", no_maps)
        for train, data, want in (
            (train_aligned, explode_aligned(ds), "AlignedDataset"),
            (train_unaligned, ds, "UnalignedDataset"),
            (train_aligned, {"U": ds.U, "V": ds.V}, "AlignedDataset"),
            (train_unaligned, {"U": ds.U, "V": ds.V}, "UnalignedDataset"),
        ):
            message = f"^expected an {want}, got {type(data).__name__}$"
            with pytest.raises(TypeError, match=message):
                train(data, *specs)

    def test_input_dim_checks(self):
        ds = toy_dataset()
        trunk, branch = toy_specs()
        bad_branch = EmbeddingSpec("jl", 9, 8, 5)
        with pytest.raises(ValueError, match="sensor count"):
            train_aligned(ds, trunk, bad_branch)
        bad_trunk = EmbeddingSpec("tanh", 2, 8, 5, domain=(0.0, 1.0))
        with pytest.raises(ValueError, match="trunk input_dim"):
            train_aligned(ds, bad_trunk, branch)

    def test_association_orders_agree(self):
        # N = M = 8 and n = 10, with s = 25 and s = 4 functions: the fit
        # applies the branch pseudo-inverse first, bit for bit, and the
        # trunk-first order agrees with it to rounding.
        trunk, branch = toy_specs()
        wide = toy_dataset(s=25, seed=6)
        tall = toy_dataset(s=4, seed=7)
        for ds in (wide, tall):
            model = train_aligned(ds, trunk, branch, solver="tikhonov")
            assert "solve_order" not in model.train_metadata
            t_mat = features(trunk, ds.y[None, :])  # (N, n): pinv(T) V = (V.T pinv(t_mat)).T
            b_mat = features(branch, ds.U)
            ft = linalg.tsvd_factorize(t_mat)
            fb = linalg.tsvd_factorize(b_mat)
            w_to = linalg.tsvd_pinv_apply(fb, linalg.tsvd_pinv_apply(ft, ds.V.T).T)
            w_ot = linalg.tsvd_pinv_apply(ft, linalg.tsvd_pinv_apply(fb, ds.V).T).T
            assert np.linalg.norm(w_to - w_ot) / np.linalg.norm(w_to) <= 1e-10
            np.testing.assert_array_equal(model.readout, w_ot)

    def test_non_finite_solve_raises_with_diagnostics(self, monkeypatch):
        # The error quotes the settings and ranks the fit holds; it builds
        # no feature matrix beyond the trunk and branch and runs no SVD.
        ds = toy_dataset()
        trunk, branch = toy_specs()
        md = train_aligned(ds, trunk, branch, solver="cod").train_metadata

        def poisoned(*args, **kwargs):
            return np.full((8, 5), np.inf)

        monkeypatch.setattr("randonet.model.linalg.cod_pinv_apply", poisoned)
        built = count_feature_builds_without_svd(monkeypatch)
        with pytest.raises(TrainingError) as err:
            train_aligned(ds, trunk, branch, solver="cod")
        assert built == ["tanh", "jl"]
        message = str(err.value)
        assert "solver='cod', tol=None, reg=0.0" in message
        for name in ("trunk", "branch"):
            assert f"{name}_rank={md[f'{name}_rank']}" in message
            assert f"{name}_rank_tolerance={md[f'{name}_rank_tolerance']!r}" in message

    def test_non_finite_tikhonov_solve_quotes_its_settings(self, monkeypatch):
        # Above reg = 0 no rank is cut, so the error quotes the settings only.
        def poisoned(*args, **kwargs):
            return np.full((8, 5), np.inf)

        monkeypatch.setattr("randonet.model.linalg.tsvd_pinv_apply", poisoned)
        with pytest.raises(TrainingError) as err:
            train_aligned(toy_dataset(), *toy_specs(), solver="tikhonov", reg=1e-8)
        assert str(err.value) == (
            "solver produced non-finite weights (solver='tikhonov', tol=None, reg=1e-08)"
        )

    @pytest.mark.parametrize("train", [train_aligned, train_unaligned])
    def test_bad_solver_or_reg_fails_before_features(self, train, monkeypatch):
        ds = toy_dataset() if train is train_aligned else explode_aligned(toy_dataset())
        maps = toy_specs()
        fail_on_features(monkeypatch)
        with pytest.raises(ValueError, match="solver must be one of"):
            train(ds, *maps, solver="tsvd")
        for reg in (-1e-8, np.nan):
            with pytest.raises(ValueError, match=">= 0"):
                train(ds, *maps, solver="tikhonov", reg=reg)
        # Settings the solver would ignore, and a tolerance that cuts nothing.
        for solver, tol, reg, message in (
            ("cod", np.nan, 0.0, "tolerance must be positive"),
            ("cod", None, 0.5, "'cod' takes no regularization weight"),
            ("cod", 1e-10, 1e-8, "'cod' takes no regularization weight"),
            ("tikhonov", 1e-10, 0.0, "'tikhonov' takes no tol"),
            ("tikhonov", 1e-10, 0.5, "'tikhonov' takes no tol"),
        ):
            with pytest.raises(ValueError, match=message):
                train(ds, *maps, solver=solver, tol=tol, reg=reg)

    def test_infinite_tolerance_rejected(self):
        # It once trained ranks 0 and an all-zero readout without an error.
        with pytest.raises(ValueError, match="positive and finite or None"):
            train_aligned(toy_dataset(), *toy_specs(), solver="cod", tol=float("inf"))

    def test_metadata_recorded(self):
        model = train_aligned(toy_dataset(), *toy_specs(), solver="cod", tol=1e-10)
        md = model.train_metadata
        assert md["solver"] == "cod"
        assert md["tol"] == 1e-10
        assert md["n_train_functions"] == 5
        assert md["train_seconds"] >= 0.0

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("aligned", [True, False])
    def test_stage_timings(self, solver, aligned, tmp_path):
        ds = toy_dataset()
        reg = 1e-8 if solver == "tikhonov" else 0.0
        if aligned:
            model = train_aligned(ds, *toy_specs(), solver=solver, reg=reg)
        else:
            model = train_unaligned(explode_aligned(ds), *toy_specs(), solver=solver, reg=reg)
        md = model.train_metadata
        stages = md["stages"]
        assert set(stages) == {"features", "factorize", "solve"}
        assert all(value >= 0.0 for value in stages.values())
        assert sum(stages.values()) <= md["train_seconds"]
        # Every fit records the Frobenius norm of its readout.
        assert md["readout_norm"] == np.linalg.norm(model.readout) > 0.0
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path).train_metadata
        for key in ("stages", "readout_norm"):
            assert loaded[key] == md[key]

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_rank_metadata(self, solver):
        # Tikhonov at reg = 0 truncates at the SVD's auto tolerance.
        ds = toy_dataset()
        trunk, branch = toy_specs()
        md = train_aligned(ds, trunk, branch, solver=solver).train_metadata
        for name, mat in (("trunk", features(trunk, ds.y[None, :])),
                          ("branch", features(branch, ds.U))):
            f = linalg.cod_factorize(mat) if solver == "cod" else linalg.tsvd_factorize(mat)
            assert md[f"{name}_rank"] == f.rank
            assert md[f"{name}_rank_tolerance"] == f.rank_tolerance
        assert md["branch_rank"] == 5  # 8 features of 5 functions

    def test_tikhonov_records_no_rank(self):
        # Above reg = 0 Tikhonov keeps every triplet: there is no rank cut.
        md = train_aligned(toy_dataset(), *toy_specs(), solver="tikhonov",
                           reg=1e-8).train_metadata
        assert not any("_rank" in key for key in md)

    @pytest.mark.parametrize(
        "case_id, branch, m_branch, trunk_rank, branch_rank",
        [(4, "rffn", 2000, 100, 1600), (4, "jl", 100, 100, 55),
         (5, "rffn", 2000, 100, 1999), (5, "jl", 100, 100, 55), (2, "jl", 100, 100, 79)],
    )
    def test_paper_size_ranks(self, case_id, branch, m_branch, trunk_rank, branch_rank,
                              cache_dir):
        # The acceptance suite's data, embedding and split seeds.
        cfg = ExperimentConfig(case=case_id, branch=branch, seed_data=12, seed_embed=1,
                               seed_split=7)
        case = case_config(case_id, seed=12)
        train, _ = split(dataset_for(case, cache_dir), 0.8, 7)
        model = train_aligned(train, trunk_spec_for(cfg, case.domain),
                              branch_spec_for(cfg, m_branch, case.m))
        md = model.train_metadata
        assert md["trunk_rank"] == trunk_rank
        assert md["branch_rank"] == branch_rank
        assert md["readout_norm"] == np.linalg.norm(model.readout)

    def test_paper_size_branch_factors_do_not_depend_on_the_callers_blas_count(
            self, cache_dir):
        # The COD sets scipy's OpenBLAS to its own count, so the seed-12
        # case-4 and case-5 RFFN(2000) branch factors hash equal under
        # either OPENBLAS_NUM_THREADS (read once, at load, so each count
        # needs a fresh interpreter) and across two calls. Two usable CPUs
        # are assumed.
        script = textwrap.dedent("""
            import hashlib, json, os, sys
            import numpy as np
            from randonet import linalg
            from randonet.embeddings import build_feature_map
            from randonet.harness import ExperimentConfig, branch_spec_for, dataset_for, split
            from randonet.problems import case_config
            os.sched_getaffinity = lambda pid: {0, 1}
            out = []
            for case_id in (4, 5):
                case = case_config(case_id, seed=12)
                train, _ = split(dataset_for(case, sys.argv[1]), 0.8, 7)
                cfg = ExperimentConfig(case=case_id, branch="rffn", seed_data=12, seed_embed=1,
                                       seed_split=7)
                mat = build_feature_map(branch_spec_for(cfg, 2000, case.m)).apply(train.U)
                for _ in range(2):
                    f = linalg.cod_factorize(mat)
                    sha = hashlib.sha256()
                    for part in (f.permutation, f.q_reflectors, f.q_tau, f.rz, f.z_tau):
                        sha.update(np.ascontiguousarray(part).tobytes())
                    out.append([f.rank, sha.hexdigest()])
            print(json.dumps(out))
        """)
        for case_id in (4, 5):
            dataset_for(case_config(case_id, seed=12), cache_dir)  # read from the cache below
        src = str(Path(randonet.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script, cache_dir], env=env,
                                  capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout))
        assert runs[0] == runs[1]
        (rank4, hash4), again4, (rank5, hash5), again5 = runs[0]
        assert (rank4, rank5) == (1600, 1999)
        assert again4 == [rank4, hash4] and again5 == [rank5, hash5]


class TestEvaluate:
    def test_zero_readout(self):
        ds = toy_dataset()
        trunk, branch = toy_specs()
        model = train_aligned(
            AlignedDataset(x=ds.x, y=ds.y, U=ds.U, V=np.zeros_like(ds.V)), trunk, branch
        )
        out = evaluate(model, ds.U[:, 0], [0.1, 0.9])
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_one_hot_readout_decomposes_exactly(self):
        from dataclasses import replace

        trunk, branch = toy_specs()
        model = train_aligned(toy_dataset(), trunk, branch)
        w = np.zeros((8, 8))
        w[3, 5] = 1.0
        model = replace(model, readout=w)
        u = np.random.default_rng(8).standard_normal(10)
        ys = np.array([0.2, 0.7])
        expected = features(trunk, ys[None, :])[3] * features(branch, u)[5]
        np.testing.assert_array_equal(evaluate(model, u, ys), expected)

    def test_bilinearity_in_readout(self):
        from dataclasses import replace

        base = train_aligned(toy_dataset(), *toy_specs())
        rng = np.random.default_rng(9)
        w1 = rng.standard_normal((8, 8))
        w2 = rng.standard_normal((8, 8))
        u = rng.standard_normal((10, 3))
        ys = np.linspace(0, 1, 6)
        p_sum = evaluate(replace(base, readout=w1 + w2), u, ys)
        p1 = evaluate(replace(base, readout=w1), u, ys)
        p2 = evaluate(replace(base, readout=w2), u, ys)
        np.testing.assert_allclose(p_sum, p1 + p2, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["u_samples", "y_points"])
    def test_rejects_non_finite_inputs_before_features(self, monkeypatch, name, bad):
        model = train_aligned(toy_dataset(), *toy_specs())
        args = {"u_samples": np.ones((10, 3)), "y_points": np.linspace(0.0, 1.0, 4)}
        args[name][1] = bad
        fail_on_features(monkeypatch)
        with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
            evaluate(model, **args)

    @pytest.mark.parametrize("name", ["u_samples", "y_points"])
    def test_rejects_complex_inputs_before_features(self, monkeypatch, name):
        model = train_aligned(toy_dataset(), *toy_specs())
        args = {"u_samples": np.ones((10, 3)), "y_points": np.linspace(0.0, 1.0, 4)}
        args[name] = args[name] + 1j
        fail_on_features(monkeypatch)
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            evaluate(model, **args)

    def test_a_complex_readout_is_rejected(self):
        model = train_aligned(toy_dataset(), *toy_specs())
        with pytest.raises(ValueError, match="^readout must be real"):
            RandONetModel(model.trunk, model.branch, model.readout + 1j)

    @pytest.mark.parametrize("name", ["u_samples", "y_points"])
    def test_accepts_finite_inputs_whose_sum_overflows(self, monkeypatch, name):
        model = train_aligned(toy_dataset(), *toy_specs())
        args = {"u_samples": np.ones((10, 3)), "y_points": np.linspace(0.0, 1.0, 4)}
        args[name][:2] = 1e308
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert not np.isfinite(args[name].sum())
        fail_on_features(monkeypatch)
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(AssertionError, match="a feature matrix was built"):
            evaluate(model, **args)

    def test_rejects_multi_dimensional_y_points(self, monkeypatch):
        model = train_aligned(toy_dataset(), *toy_specs())
        fail_on_features(monkeypatch)
        with pytest.raises(ValueError, match=r"y_points must be 1-D, got shape \(1, 4\)"):
            evaluate(model, np.ones(10), np.linspace(0.0, 1.0, 4)[None, :])

    @staticmethod
    def planar_model(seed=31):
        """A model trained by train_unaligned on 2-D output locations."""
        rng = np.random.default_rng(seed)
        ds = UnalignedDataset(U=rng.standard_normal((10, 40)), Y=rng.uniform(0.0, 1.0, (2, 40)),
                              V=rng.standard_normal(40))
        trunk = EmbeddingSpec("tanh", 2, 6, (seed, 0), domain=(0.0, 1.0))
        return train_unaligned(ds, trunk, EmbeddingSpec("jl", 10, 5, (seed, 1)))

    @pytest.mark.parametrize("k", [None, 3])
    def test_a_planar_trunk_reads_one_location_per_column(self, k):
        model = self.planar_model()
        rng = np.random.default_rng(32)
        u = rng.standard_normal(10 if k is None else (10, k))
        ys = rng.uniform(0.0, 1.0, (2, 7))
        pred = evaluate(model, u, ys)
        assert pred.shape == ((7,) if k is None else (7, k))
        expected = model.trunk.apply(ys).T @ model.readout @ model.branch.apply(u.reshape(10, -1))
        np.testing.assert_allclose(pred, expected.reshape(pred.shape), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", [(5,), (2, 5, 1), (3, 5), (1, 5)],
                             ids=["1-D", "3-D", "3-rows", "1-row"])
    def test_a_planar_trunk_rejects_other_shapes_before_features(self, monkeypatch, shape):
        model = self.planar_model()
        fail_on_features(monkeypatch)
        message = (r"^y_points must have shape \(2, q\) for a trunk of input_dim 2, "
                   rf"got shape {re.escape(str(shape))}$")
        with pytest.raises(ValueError, match=message):
            evaluate(model, np.ones(10), np.full(shape, 0.5))

    @pytest.mark.parametrize("shape", [(50,), (50, 3), (1, 100, 6)])
    def test_rejects_u_samples_of_another_shape_before_features(self, monkeypatch, shape):
        model = train_aligned(toy_dataset(m=100), *toy_specs(m=100))
        fail_on_features(monkeypatch)
        message = (r"^u_samples must have shape \(100,\) or \(100, k\), "
                   rf"got shape {re.escape(str(shape))}$")
        with pytest.raises(ValueError, match=message):
            evaluate(model, np.ones(shape), np.linspace(0.0, 1.0, 4))

    def test_the_model_keeps_a_private_copy_of_its_readout(self):
        model, u, ys = readout_model()
        big = np.random.default_rng(15).standard_normal((40, 120))
        w = big[:, :60]
        held = RandONetModel(model.trunk, model.branch, w)
        assert held.readout is not w and w.flags.writeable and big.flags.writeable
        before = evaluate(held, u, ys)
        w[:] = 3.0
        big[:] = 2.0
        assert not np.shares_memory(held.readout, big)
        np.testing.assert_array_equal(evaluate(held, u, ys), before)
        np.testing.assert_array_equal(evaluate(dataclasses.replace(held), u, ys), before)

    def test_batched_matches_single(self):
        model = train_aligned(toy_dataset(), *toy_specs())
        u = np.random.default_rng(10).standard_normal((10, 4))
        ys = np.linspace(0, 1, 5)
        batch = evaluate(model, u, ys)
        for i in range(4):
            np.testing.assert_allclose(
                batch[:, i], evaluate(model, u[:, i], ys), rtol=1e-12, atol=1e-15
            )


def readout_model(seed=14):
    """A tanh(40) x RFFN(60) model with a random readout, 701 input
    functions and 155 points."""
    trunk = build_feature_map(EmbeddingSpec("tanh", 1, 40, (seed, 0), domain=(0.0, 1.0)))
    branch = build_feature_map(EmbeddingSpec("rffn", 12, 60, (seed, 1), bandwidth=12.0))
    rng = np.random.default_rng(seed)
    model = RandONetModel(trunk, branch, rng.standard_normal((40, 60)))
    return model, rng.standard_normal((12, 701)), np.linspace(0.0, 1.0, 155)


def one_product(model, u, ys):
    """``T W B`` in one product, at one numpy BLAS thread as evaluate runs."""
    with _parallel.one_blas_thread:
        return model.trunk.apply(ys[None, :]).T @ model.readout @ model.branch.apply(u)


class TestSplitReadoutProduct:
    @pytest.fixture
    def readout_rounds(self, monkeypatch):
        """The row ranges of every split readout product from then on."""
        rounds = []
        in_threads = _parallel.in_threads

        def record(task, spans):
            if len(spans) > 1 and task.__qualname__.startswith("_readout_product."):
                rounds.append(spans)
            return in_threads(task, spans)

        monkeypatch.setattr(_parallel, "in_threads", record)
        return rounds

    @pytest.mark.parametrize("cpus, rows", [
        (1, []),
        (2, [(0, 48), (48, 155)]),
        (3, [(0, 48), (48, 96), (96, 155)]),
    ])
    def test_row_ranges_give_the_bits_of_one_product(self, cpus, rows, split_applies,
                                                     readout_rounds):
        # 155 points: two or three ranges, each starting on a row block and
        # the last one holding the partial block. On a 2-core AVX-512 Xeon,
        # ranges cut at 77, or at 51 and 103, rows moved last bits here.
        model, u, ys = readout_model()
        split_applies(cpus)
        pred = evaluate(model, u, ys)
        assert readout_rounds == ([rows] if rows else [])
        np.testing.assert_array_equal(pred, one_product(model, u, ys))

    def test_below_the_floor_the_product_does_not_split(self, monkeypatch, readout_rounds):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        model, u, ys = readout_model()
        assert 60 * 701 < 2 * _parallel.MIN_RANGE_ENTRIES
        assert evaluate(model, u, ys).shape == (155, 701)
        assert readout_rounds == []

    @pytest.mark.parametrize("q", [1, 95])
    def test_fewer_than_two_row_blocks_do_not_split(self, q, split_applies, readout_rounds):
        model, u, ys = readout_model()
        split_applies(3)
        np.testing.assert_array_equal(evaluate(model, u, ys[:q]), one_product(model, u, ys[:q]))
        assert readout_rounds == []

    def test_numpy_blas_count_under_two_openblas_threads(self):
        # The thread count is read once at load, so each count needs a fresh
        # interpreter. The script checks that apply, evaluate and
        # train_aligned run numpy's BLAS at one thread and leave the
        # caller's count, also after an exception and after two threads
        # evaluate at once, and prints the hash of a split evaluate.
        script = textwrap.dedent("""
            import hashlib, os, threading
            import numpy as np
            from randonet import _parallel
            from randonet import model as model_module
            from randonet.embeddings import EmbeddingSpec, FeatureMap
            from randonet.model import AlignedDataset, RandONetModel, evaluate, train_aligned
            get = _parallel.numpy_blas_threads()[0]
            before = get()
            rng = np.random.default_rng(16)
            x, y = np.linspace(0.0, 1.0, 12), np.linspace(0.0, 1.0, 155)
            ds = AlignedDataset(x, y, rng.standard_normal((12, 80)),
                                rng.standard_normal((155, 80)))
            trunk = EmbeddingSpec("tanh", 1, 40, (17, 0), domain=(0.0, 1.0))
            branch = EmbeddingSpec("rffn", 12, 60, (17, 1), bandwidth=12.0)
            fitted = train_aligned(ds, trunk, branch)
            assert get() == before, "train_aligned"
            # A readout drawn here, not solved: its bits do not depend on the
            # count, so the predictions' bits depend on evaluate alone.
            model = RandONetModel(fitted.trunk, fitted.branch, rng.standard_normal((40, 60)))
            counts, fill, product = [], FeatureMap._fill, model_module._readout_product
            def record(self, *args):
                counts.append(get())
                return fill(self, *args)
            def record_product(*args):
                counts.append(get())
                return product(*args)
            FeatureMap._fill = record
            model_module._readout_product = record_product
            model.branch.apply(ds.U)
            assert get() == before, "apply"
            u = rng.standard_normal((12, 701))
            evaluate(model, u, y)
            assert get() == before, "evaluate"
            assert counts == [1, 1, 1, 1], counts
            def refuse(self, *args):
                raise FloatingPointError("inside")
            FeatureMap._fill = refuse
            try:
                evaluate(model, u, y)
            except FloatingPointError:
                pass
            assert get() == before, "exception"
            FeatureMap._fill = fill
            start = threading.Barrier(2)
            def evaluate_often():
                start.wait()
                for _ in range(20):
                    evaluate(model, u, y)
            threads = [threading.Thread(target=evaluate_often) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert get() == before, "two threads"
            _parallel.MIN_RANGE_ENTRIES = 1
            os.sched_getaffinity = lambda pid: set(range(3))
            rounds, in_threads = [], _parallel.in_threads
            def record_round(task, spans):
                rounds.append(spans)
                return in_threads(task, spans)
            _parallel.in_threads = record_round
            pred = evaluate(model, u, y)
            # The branch apply and the readout product: the rows of T W
            # for this grid are kept from the calls above.
            assert rounds[-1] == [(0, 48), (48, 96), (96, 155)], rounds
            print(before, hashlib.sha256(pred.tobytes()).hexdigest())
        """)
        src = str(Path(randonet.__file__).resolve().parents[1])
        hashes = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            count, hashes[threads] = proc.stdout.split()
            assert count == "1" if threads == "1" else int(count) >= 1
        assert hashes["2"] == hashes["1"]


class TestTrunkReadoutMemo:
    """evaluate keeps the rows of T(y) W for the last grid a model saw."""

    @staticmethod
    def fresh(model, u, ys):
        """The predictions of a copy of ``model`` that has evaluated nothing."""
        return evaluate(dataclasses.replace(model), u, ys)

    def test_hits_and_misses_give_equal_bits_across_grids(self, split_applies):
        model, u, ys = readout_model()
        split_applies(3)
        grids = {"A": ys, "B": np.linspace(0.1, 0.9, 130)}
        expected = {name: one_product(model, u, grid) for name, grid in grids.items()}
        for name in "AABAA":
            np.testing.assert_array_equal(evaluate(model, u, grids[name]), expected[name])

    def test_a_single_function_after_a_split_batch_matches_a_fresh_model(self, monkeypatch):
        # 701 functions split the readout product in three; one does not.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        monkeypatch.setattr(_parallel, "MIN_RANGE_ENTRIES", 1000)
        model, u, ys = readout_model()
        evaluate(model, u, ys)
        np.testing.assert_array_equal(evaluate(model, u[:, 0], ys),
                                      self.fresh(model, u[:, 0], ys))

    def test_an_unaligned_model_with_planar_locations(self):
        model = TestEvaluate.planar_model()
        rng = np.random.default_rng(33)
        u = rng.standard_normal((10, 4))
        grids = [rng.uniform(0.0, 1.0, (2, 7)), rng.uniform(0.0, 1.0, (2, 9))]
        for grid in (grids[0], grids[0], grids[1], grids[0]):
            np.testing.assert_array_equal(evaluate(model, u, grid), self.fresh(model, u, grid))

    def test_an_in_place_edit_of_the_grid_is_a_new_grid(self):
        model, u, ys = readout_model()
        y = ys.copy()
        before = evaluate(model, u, y)
        y *= 0.5
        after = evaluate(model, u, y)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, self.fresh(model, u, y))

    def test_replace_and_load_model_start_with_an_empty_memo(self, monkeypatch, tmp_path):
        model, u, ys = readout_model()
        before = evaluate(model, u, ys)
        # Doubling W doubles every product exactly, so a reused memo would show.
        doubled = dataclasses.replace(model, readout=2.0 * model.readout)
        np.testing.assert_array_equal(evaluate(doubled, u, ys), 2.0 * before)
        save_model(model, tmp_path / "model.npz")
        loaded = load_model(tmp_path / "model.npz")
        calls = count_feature_builds_without_svd(monkeypatch)
        np.testing.assert_array_equal(evaluate(loaded, u, ys), before)
        assert calls == ["tanh", "rffn"]

    def test_threads_at_two_grids_each_get_their_own_grids_bits(self):
        # More threads than the CPUs of a small host, switching every
        # microsecond: a memo that paired one grid's key with the other's
        # rows would hand a thread the wrong grid's predictions.
        model, u, ys = readout_model()
        u = u[:, :40]
        grids = [ys, np.linspace(0.2, 0.8, 100)]
        expected = [self.fresh(model, u, grid) for grid in grids]
        start, results = threading.Barrier(4), [[] for _ in range(4)]

        def evaluate_often(i):
            start.wait()
            for _ in range(30):
                results[i].append(evaluate(model, u, grids[i % 2]))

        threads = [threading.Thread(target=evaluate_often, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, preds in enumerate(results):
            assert len(preds) == 30
            for pred in preds:
                np.testing.assert_array_equal(pred, expected[i % 2])

    def test_a_hit_does_not_apply_the_trunk(self, monkeypatch):
        model, u, ys = readout_model()
        calls = count_feature_builds_without_svd(monkeypatch)
        first = evaluate(model, u, ys)
        assert calls == ["tanh", "rffn"]
        np.testing.assert_array_equal(evaluate(model, u, ys.copy()), first)
        assert calls == ["tanh", "rffn", "rffn"]

    @pytest.mark.parametrize("limit, kept", [(155 * 60 - 1, False), (155 * 60, True)])
    def test_only_rows_within_the_limit_are_kept(self, monkeypatch, split_applies, limit,
                                                 kept):
        # 155 points x 60 branch features; a grid above the limit costs a
        # trunk apply on every call and leaves the model nothing to hold.
        monkeypatch.setattr(model_module, "_MEMO_ENTRIES", limit)
        model, u, ys = readout_model()
        split_applies(3)
        expected = one_product(model, u, ys)
        calls = count_feature_builds_without_svd(monkeypatch)
        np.testing.assert_array_equal(evaluate(model, u, ys), expected)
        np.testing.assert_array_equal(evaluate(model, u, ys), expected)
        assert calls == (["tanh", "rffn", "rffn"] if kept else ["tanh", "rffn"] * 2)
        assert (model._memo is not None) == kept


class TestUnaligned:
    def test_single_sample_scalar_weight(self):
        trunk = EmbeddingSpec("tanh", 1, 1, (11, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("jl", 3, 1, (11, 1))
        u = np.array([[0.4], [1.0], [-0.2]])
        yq = np.array([[0.3]])
        v = np.array([2.0])
        t_val = features(trunk, yq).item()
        b_val = features(branch, u).item()
        assert t_val * b_val != 0.0
        model = train_unaligned(UnalignedDataset(U=u, Y=yq, V=v), trunk, branch)
        assert model.readout[0, 0] == pytest.approx(2.0 / (t_val * b_val))

    def test_zero_outputs_give_zero_readout(self):
        ds = toy_dataset()
        ex = explode_aligned(AlignedDataset(x=ds.x, y=ds.y, U=ds.U, V=np.zeros_like(ds.V)))
        trunk, branch = toy_specs()
        model = train_unaligned(ex, trunk, branch)
        np.testing.assert_array_equal(model.readout, np.zeros((8, 8)))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_matches_aligned_training_on_tiny_instance(self, solver):
        ds = toy_dataset(m=10, n=10, s=5, seed=12)
        trunk, branch = toy_specs(seed=13)
        aligned = train_aligned(ds, trunk, branch, solver=solver)
        unaligned = train_unaligned(explode_aligned(ds), trunk, branch, solver=solver)
        pred_a = evaluate(aligned, ds.U, ds.y)
        pred_u = evaluate(unaligned, ds.U, ds.y)
        rel = np.linalg.norm(pred_a - pred_u) / np.linalg.norm(pred_a)
        assert rel <= 1e-6

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_collocation_rank_metadata(self, solver):
        ds = explode_aligned(toy_dataset())
        trunk, branch = toy_specs()
        md = train_unaligned(ds, trunk, branch, solver=solver).train_metadata
        z = features(branch, ds.U)[:, None, :] * features(trunk, ds.Y)[None, :, :]
        z = z.reshape(64, -1)
        f = linalg.tsvd_factorize(z)
        assert md["collocation_rank"] == f.rank
        assert md["collocation_rank_tolerance"] > 0.0

    @pytest.mark.parametrize("sensors, location_dim, trunk_dim, branch_dim, message", [
        (100, 1, 1, 50, "branch input_dim 50 does not match sensor count 100"),
        (10, 1, 2, 10, "trunk input_dim must be 1 for scalar output locations"),
        (10, 2, 1, 10, "trunk input_dim must be 2 for 2-D output locations"),
    ], ids=["branch", "trunk-scalar", "trunk-2d"])
    def test_input_dim_checks_before_any_feature(self, sensors, location_dim, trunk_dim,
                                                 branch_dim, message, monkeypatch):
        # A 50-input branch on 100 sensors once failed inside the branch
        # apply, after the trunk features were built.
        rng = np.random.default_rng(sensors)
        ds = UnalignedDataset(U=rng.standard_normal((sensors, 30)),
                              Y=rng.uniform(0.0, 1.0, (location_dim, 30)), V=np.zeros(30))
        trunk = EmbeddingSpec("tanh", trunk_dim, 8, 5, domain=(0.0, 1.0))
        fail_on_features(monkeypatch)
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_unaligned(ds, trunk, EmbeddingSpec("jl", branch_dim, 8, 6))

    def test_memory_guard(self, monkeypatch):
        # N * M * S = 50 * 40 * 2501 is just above the 5e6 budget; the guard
        # fires before any feature is built.
        trunk = EmbeddingSpec("tanh", 1, 50, (11, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("jl", 10, 40, (11, 1))
        fail_on_features(monkeypatch)
        with pytest.raises(ValueError, match="5002000 entries .* above the budget of 5000000"):
            train_unaligned(scattered_dataset(s=2501), trunk, branch)

    def test_non_finite_solve_raises_with_diagnostics(self, monkeypatch):
        # The error quotes the rank facts of Z from its one factorization:
        # Z is not rebuilt and no SVD runs.
        ds = explode_aligned(toy_dataset())
        trunk, branch = toy_specs()
        md = train_unaligned(ds, trunk, branch, solver="cod").train_metadata

        def poisoned(*args, **kwargs):
            return np.full((1, 64), np.inf)

        monkeypatch.setattr("randonet.model.linalg.cod_pinv_apply", poisoned)
        built = count_feature_builds_without_svd(monkeypatch)
        with pytest.raises(TrainingError) as err:
            train_unaligned(ds, trunk, branch, solver="cod")
        assert built == ["tanh", "jl"]
        message = str(err.value)
        assert "solver='cod', tol=None, reg=0.0" in message
        assert f"collocation_rank={md['collocation_rank']}," in message
        assert f"collocation_rank_tolerance={md['collocation_rank_tolerance']!r}" in message


def scattered_dataset(m=10, s=40, seed=0):
    rng = np.random.default_rng(seed)
    return UnalignedDataset(U=rng.standard_normal((m, s)), Y=rng.uniform(0.0, 1.0, (1, s)),
                            V=rng.standard_normal(s))


class TestInPlaceCod:
    """The 'cod' route factors the matrices it builds in their own storage."""

    @pytest.mark.parametrize(
        "n, s, n_feat, branch_kind, m_feat",
        [(12, 40, 16, "rffn", 60), (12, 40, 16, "jl", 8), (400, 60, 40, "rffn", 200)],
        ids=["rffn-60", "jl-8", "rffn-200-trunk-first"],
    )
    def test_aligned_readout_matches_public_solve(self, n, s, n_feat, branch_kind, m_feat):
        # RFFN(60) on 40 functions and the 16 x 12 trunk matrix have full
        # column rank (no tzrzf), JL(8) is wide (tzrzf runs). The oracle
        # composes the public applies branch first. The last shapes, many
        # points and few functions, are those where applying the trunk
        # first would cost fewer multiply-adds; the fit still goes branch
        # first.
        ds = toy_dataset(m=10, n=n, s=s, seed=21)
        trunk = EmbeddingSpec("tanh", 1, n_feat, (22, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec(kind=branch_kind, input_dim=10, feature_dim=m_feat, seed=(22, 1))
        kept = {name: getattr(ds, name).copy() for name in ("x", "y", "U", "V")}
        model = train_aligned(ds, trunk, branch, solver="cod")
        for name, arr in kept.items():
            np.testing.assert_array_equal(getattr(ds, name), arr)
        t_fac = linalg.cod_factorize(features(trunk, ds.y[None, :]))
        b_fac = linalg.cod_factorize(features(branch, ds.U))
        assert model.train_metadata["trunk_rank"] == t_fac.rank == min(n, n_feat)
        want = linalg.cod_pinv_apply(t_fac, linalg.cod_pinv_apply(b_fac, ds.V).T).T
        np.testing.assert_array_equal(model.readout, want)

    def test_unaligned_readout_matches_public_solve(self):
        ds = scattered_dataset()
        trunk = EmbeddingSpec("tanh", 1, 6, (23, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("jl", 10, 5, (23, 1))
        kept = {name: getattr(ds, name).copy() for name in ("U", "Y", "V")}
        model = train_unaligned(ds, trunk, branch, solver="cod")
        for name, arr in kept.items():
            np.testing.assert_array_equal(getattr(ds, name), arr)
        z = features(branch, ds.U)[:, None, :] * features(trunk, ds.Y)[None, :, :]
        z = z.reshape(30, -1)
        factors = linalg.cod_factorize(z)
        assert model.train_metadata["collocation_rank"] == factors.rank
        omega = linalg.cod_pinv_apply(factors, ds.V[None, :])
        np.testing.assert_array_equal(model.readout, omega.reshape(5, 6).T)

    def test_factors_through_the_public_in_place_entry(self, monkeypatch):
        # The traced benchmark records every public linalg '*_factorize'
        # call, so the 'cod' route must reach the QR through one of them,
        # and it hands over each matrix it built to be factored in place.
        assert "cod_factorize" in linalg.__all__
        seen = []
        original = linalg.cod_factorize

        def counting(mat, tol=None, overwrite_a=False):
            assert overwrite_a
            seen.append((mat.shape, mat.flags.f_contiguous))
            return original(mat, tol, overwrite_a)

        monkeypatch.setattr(linalg, "cod_factorize", counting)
        ds = toy_dataset(m=10, n=12, s=40, seed=21)
        trunk = EmbeddingSpec("tanh", 1, 16, (22, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("jl", 10, 8, (22, 1))
        train_aligned(ds, trunk, branch, solver="cod")
        assert seen == [((16, 12), True), ((8, 40), True)]
        seen.clear()
        train_unaligned(scattered_dataset(), trunk, branch, solver="cod")
        assert len(seen) == 1 and seen[0][1]

    def test_aligned_peak_memory(self, traced_peak):
        # A 9.6 MB RFFN branch matrix: its Fortran copy replaces the C one,
        # and the QR runs in that copy.
        ds = toy_dataset(m=50, n=20, s=1200, seed=24)
        trunk = EmbeddingSpec("tanh", 1, 20, (25, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("rffn", 50, 1000, (25, 1), bandwidth=5.0)
        model, peak = traced_peak(lambda: train_aligned(ds, trunk, branch, solver="cod"))
        assert model.train_metadata["branch_rank"] == 1000
        assert peak <= 2.5 * 1000 * 1200 * 8

    def test_unaligned_peak_memory(self, traced_peak):
        # A 9.6 MB collocation matrix, built in Fortran order and factored
        # in its own storage.
        ds = scattered_dataset(m=50, s=1200, seed=26)
        trunk = EmbeddingSpec("tanh", 1, 20, (27, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("jl", 50, 50, (27, 1))
        model, peak = traced_peak(lambda: train_unaligned(ds, trunk, branch, solver="cod"))
        assert model.train_metadata["collocation_rank"] == 1000
        assert peak <= 2.5 * 1000 * 1200 * 8

    def test_aligned_peak_memory_is_one_branch_matrix(self, traced_peak):
        # The branch matrix is built in Fortran order and factored where it
        # lies; the rest is workspace, the trunk side and the readout.
        ds = toy_dataset(m=50, n=20, s=1200, seed=24)
        trunk = EmbeddingSpec("tanh", 1, 20, (25, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("rffn", 50, 1000, (25, 1), bandwidth=5.0)
        model, peak = traced_peak(lambda: train_aligned(ds, trunk, branch, solver="cod"))
        assert model.train_metadata["branch_rank"] == 1000
        assert peak <= 1.3 * 1000 * 1200 * 8

    def test_unaligned_peak_memory_is_one_collocation_matrix(self, traced_peak):
        ds = scattered_dataset(m=50, s=1200, seed=26)
        trunk = EmbeddingSpec("tanh", 1, 20, (27, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec("jl", 50, 50, (27, 1))
        model, peak = traced_peak(lambda: train_unaligned(ds, trunk, branch, solver="cod"))
        assert model.train_metadata["collocation_rank"] == 1000
        assert peak <= 1.3 * 1000 * 1200 * 8

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_each_factorization_goes_once_it_is_applied(self, monkeypatch, solver):
        # The branch factors are freed before the trunk apply is entered, so
        # a paper-size fit never holds the branch's work array beside the
        # trunk apply's arrays; the fit keeps no factors when it returns.
        ds = toy_dataset(m=10, n=12, s=40, seed=21)
        specs = toy_specs(n_feat=16, m_feat=8, seed=22)
        want = train_aligned(ds, *specs, solver=solver).readout
        refs, seen = [], []

        def recording(apply):
            def applied(factors, b):
                seen.append((factors.shape, [ref() is not None for ref in refs]))
                refs.append(weakref.ref(factors))
                return apply(factors, b)
            return applied

        for name in ("cod_pinv_apply", "tsvd_pinv_apply"):
            monkeypatch.setattr(linalg, name, recording(getattr(linalg, name)))
        got = train_aligned(ds, *specs, solver=solver).readout
        assert seen == [((8, 40), []), ((16, 12), [False])]
        assert [ref() for ref in refs] == [None, None]
        assert got.tobytes() == want.tobytes()


# Two toy fits and the entry count of the largest matrix each builds: the
# aligned branch matrix is 8 x 40 (the trunk's 16 x 12), the collocation
# matrix 30 x 40.
TRIM_FITS = {
    "aligned": (lambda: train_aligned(toy_dataset(m=10, n=12, s=40, seed=21),
                                      *toy_specs(n_feat=16, m_feat=8, seed=22)), 8 * 40),
    "unaligned": (lambda: train_unaligned(scattered_dataset(),
                                          *toy_specs(n_feat=6, m_feat=5, seed=23)), 30 * 40),
}


class TestHeapTrim:
    """A fit whose largest matrix crosses the ceiling trims the C heap once,
    before it builds any feature matrix."""

    @pytest.fixture
    def events(self, monkeypatch):
        """Record each trim and each feature matrix build, in order."""
        seen = []
        original = FeatureMap.apply

        def recording(self, x):
            seen.append(self.spec.kind)
            return original(self, x)

        def trim(pad):
            seen.append(("trim", pad))
            return 1

        monkeypatch.setattr(FeatureMap, "apply", recording)
        monkeypatch.setattr(model_module, "_MALLOC_TRIM", trim)
        return seen

    @pytest.mark.parametrize("kind", sorted(TRIM_FITS))
    def test_a_fit_over_the_ceiling_trims_once_before_any_feature(self, monkeypatch, events,
                                                                  kind):
        fit, entries = TRIM_FITS[kind]
        monkeypatch.setattr(model_module, "_TRIM_ENTRIES", entries - 1)
        fit()
        assert events == [("trim", 0), "tanh", "jl"]

    @pytest.mark.parametrize("kind", sorted(TRIM_FITS))
    def test_a_fit_at_or_under_the_ceiling_never_trims(self, monkeypatch, events, kind):
        fit, entries = TRIM_FITS[kind]
        fit()
        monkeypatch.setattr(model_module, "_TRIM_ENTRIES", entries)
        fit()
        assert events == ["tanh", "jl"] * 2

    @pytest.mark.parametrize("kind", sorted(TRIM_FITS))
    def test_without_malloc_trim_a_fit_keeps_its_bits(self, monkeypatch, kind):
        fit, _ = TRIM_FITS[kind]
        want = fit().readout
        monkeypatch.setattr(model_module, "_TRIM_ENTRIES", 0)
        monkeypatch.setattr(model_module, "_MALLOC_TRIM", None)
        assert fit().readout.tobytes() == want.tobytes()

    def test_a_c_library_without_malloc_trim_gives_no_trim(self, monkeypatch):
        monkeypatch.setattr(model_module.ctypes, "CDLL", lambda name: object())
        assert model_module._find_malloc_trim() is None

    @pytest.mark.skipif(model_module._MALLOC_TRIM is None
                        or not os.path.exists("/proc/self/status"),
                        reason="needs glibc's malloc_trim and /proc")
    def test_trimming_hands_free_heap_pages_back(self):
        # Freeing a 25 MB mapped block raises glibc's mmap threshold above
        # 8 MB, so the six 8 MB arrays come from the heap; the small arrays
        # between them stay alive, so their pages stay resident when freed.
        script = textwrap.dedent("""
            import numpy as np
            from randonet import model

            def rss_kb():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS"))

            big = np.ones(25 * 2**20 // 8)
            del big
            arrays, keep = [], []
            for _ in range(6):
                arrays.append(np.ones(2**20))
                keep.append(np.ones(4096))
            del arrays
            before = rss_kb()
            model._trim_heap(model._TRIM_ENTRIES + 1)
            print(before, rss_kb())
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(model_module.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        before, after = map(int, proc.stdout.split())
        assert before - after >= 4 * 1024, (before, after)


class TestExplodeAligned:
    def test_single_function_three_locations(self):
        x = np.linspace(0, 1, 2)
        y = np.linspace(0, 1, 3)
        ds = AlignedDataset(x=x, y=y, U=np.array([[1.0], [2.0]]), V=np.array([[1.0], [2.0], [3.0]]))
        ex = explode_aligned(ds)
        assert ex.n_samples == 3
        np.testing.assert_array_equal(ex.U, np.repeat(ds.U, 3, axis=1))
        np.testing.assert_array_equal(ex.V, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ex.Y[0], y)

    def test_column_major_output_order(self):
        x = np.linspace(0, 1, 2)
        y = np.linspace(0, 1, 2)
        v_mat = np.array([[1.0, 3.0], [2.0, 4.0]])
        ds = AlignedDataset(x=x, y=y, U=np.eye(2), V=v_mat)
        ex = explode_aligned(ds)
        assert ex.n_samples == 4
        np.testing.assert_array_equal(ex.V, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(ex.Y[0], [0.0, 1.0, 0.0, 1.0])


class TestInvariants:
    def test_grid_permutation_covariance(self):
        # Permuting output-grid rows of T and V together leaves the trained
        # predictor unchanged: trunk features depend on the y values only.
        ds = toy_dataset(m=10, n=10, s=6, seed=14)
        trunk, branch = toy_specs(seed=15)
        t_mat = features(trunk, ds.y[None, :])  # (N, n)
        b_mat = features(branch, ds.U)
        perm = np.random.default_rng(16).permutation(10)
        w_ref = linalg.tsvd_pinv_apply(
            linalg.tsvd_factorize(b_mat),
            linalg.tsvd_pinv_apply(linalg.tsvd_factorize(t_mat), ds.V.T).T,
        )
        w_perm = linalg.tsvd_pinv_apply(
            linalg.tsvd_factorize(b_mat),
            linalg.tsvd_pinv_apply(linalg.tsvd_factorize(t_mat[:, perm]), ds.V[perm].T).T,
        )
        probe_t = features(trunk, np.array([[0.37]]))
        pred_ref = probe_t.T @ w_ref @ b_mat
        pred_perm = probe_t.T @ w_perm @ b_mat
        assert np.max(np.abs(pred_ref - pred_perm)) <= 1e-10

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5])
    def test_solver_routes_agree_up_to_fit_error(self, case_id, cache_dir):
        # Independent solvers can only agree up to their own approximation
        # error; 1e-6 is asserted where the fit error allows it.
        size = {1: 60, 2: 12, 3: 60, 4: 60, 5: 60}[case_id]
        case = case_config(case_id, size=size, seed=90 + case_id)
        ds = dataset_for(case, cache_dir)
        train, test = split(ds, 0.8, 2)
        trunk = EmbeddingSpec("tanh", 1, 100, (17, 0), domain=case.domain)
        if case_id in (1, 3):
            branch = EmbeddingSpec("jl", 100, 60, (17, 1))
        else:
            branch = EmbeddingSpec("rffn", 100, 200, (17, 1), bandwidth=500.0)
        preds = {}
        errs = {}
        for solver in SOLVERS:  # Tikhonov at reg = 0: the truncated SVD
            model = train_aligned(train, trunk, branch, solver=solver)
            pred = evaluate(model, test.U, test.y)
            preds[solver] = pred
            errs[solver] = np.linalg.norm(pred - test.V) / max(np.linalg.norm(test.V), 1e-30)
        rel = np.linalg.norm(preds["cod"] - preds["tikhonov"]) / np.linalg.norm(preds["tikhonov"])
        assert rel <= max(1e-6, 10 * (errs["cod"] + errs["tikhonov"]))


class TestSaveLoad:
    def test_roundtrip_reproduces_predictions_bitwise(self, tmp_path):
        ds = toy_dataset(seed=18)
        model = train_aligned(ds, *toy_specs(seed=19), solver="cod")
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.train_metadata["solver"] == "cod"
        np.testing.assert_array_equal(loaded.readout, model.readout)
        u = np.random.default_rng(20).standard_normal((10, 3))
        ys = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(evaluate(loaded, u, ys), evaluate(model, u, ys))

    @pytest.mark.parametrize("solver, reg", [("cod", 0.0), ("tikhonov", 0.0),
                                             ("tikhonov", 1e-3)])
    @pytest.mark.parametrize("aligned", [True, False])
    def test_train_metadata_roundtrips_equal(self, tmp_path, solver, reg, aligned):
        # Every entry is a JSON scalar or a dict of them, so the whole
        # record comes back equal, not just the readout.
        ds = toy_dataset(seed=25)
        train, data = (train_aligned, ds) if aligned else (train_unaligned, explode_aligned(ds))
        model = train(data, *toy_specs(seed=25), solver=solver, reg=reg)
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert load_model(path).train_metadata == model.train_metadata

    def test_roundtrip_through_a_path_without_suffix(self, tmp_path):
        # np.savez appends ".npz" to such a path; the model is written to
        # exactly the path given, which load_model then reads.
        model = train_aligned(toy_dataset(seed=23), *toy_specs(seed=23))
        path = tmp_path / "model"
        save_model(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model"]
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.readout, model.readout)
        u, ys = np.random.default_rng(24).standard_normal((10, 3)), np.linspace(0, 1, 7)
        np.testing.assert_array_equal(evaluate(loaded, u, ys), evaluate(model, u, ys))

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.sampled_from([None, 1, BLOCK_COLUMNS - 1, BLOCK_COLUMNS, BLOCK_COLUMNS + 1,
                           3 * BLOCK_COLUMNS + 5]),
        q=st.integers(1, 2 * BLOCK_COLUMNS + 3),
        branch=st.sampled_from(["jl", "rffn"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_evaluate_shapes_and_roundtrip(self, k, q, branch, seed):
        # k None is a single 1-D input function.
        ds = toy_dataset(seed=seed % 1000)
        trunk = EmbeddingSpec("tanh", 1, 8, (seed, 0), domain=(0.0, 1.0))
        model = train_aligned(ds, trunk, EmbeddingSpec(branch, 10, 8, (seed, 1)))
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(10 if k is None else (10, k))
        ys = rng.uniform(0.0, 1.0, q)
        pred = evaluate(model, u, ys)
        assert pred.shape == ((q,) if k is None else (q, k))
        buf = io.BytesIO()
        save_model(model, buf)
        buf.seek(0)
        np.testing.assert_array_equal(evaluate(load_model(buf), u, ys), pred)

    @pytest.mark.parametrize("failure", ["metadata", "write"])
    def test_a_failed_save_keeps_the_file_it_was_replacing(self, tmp_path, monkeypatch,
                                                           failure):
        model = train_aligned(toy_dataset(seed=26), *toy_specs(seed=26))
        path = tmp_path / "model.npz"
        save_model(model, path)
        bad = model
        if failure == "metadata":
            bad = dataclasses.replace(model, train_metadata={**model.train_metadata,
                                                             "n": np.int64(3)})
        else:
            def savez_then_fail(fh, **arrays):
                fh.write(b"partial")
                raise OSError("disk full")

            monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(TypeError if failure == "metadata" else OSError):
            save_model(bad, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        np.testing.assert_array_equal(load_model(path).readout, model.readout)

    def test_a_saved_model_has_the_mode_of_a_plain_open(self, tmp_path):
        model = train_aligned(toy_dataset(seed=27), *toy_specs(seed=27))
        with open(tmp_path / "plain", "wb"):
            pass
        save_model(model, tmp_path / "model.npz")
        assert (tmp_path / "model.npz").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_version_check(self, tmp_path):
        ds = toy_dataset(seed=21)
        model = train_aligned(ds, *toy_specs(seed=21))
        path = tmp_path / "model.npz"
        save_model(model, path)
        import numpy as np_mod

        with np_mod.load(path) as data:
            payload = dict(data)
        payload["format_version"] = 99
        np_mod.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_garbage_bytes_are_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not a model" * 10)
        with pytest.raises(ValueError, match=f"^{path} is not a randonet model file"):
            load_model(path)

    def test_an_npz_without_format_version_is_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, readout=np.zeros((2, 2)))
        with pytest.raises(ValueError, match=f"^{path} is not a randonet model file: "
                                             "no format_version entry"):
            load_model(path)

    @pytest.mark.parametrize("entries, reason", [
        ({"format_version": 1}, "no trunk_spec entry"),
        ({"format_version": [1, 2]},
         "format_version: expected an integer, got a int64 array of shape (2,)"),
        ({"format_version": "abc"},
         "format_version: expected an integer, got a <U3 array of shape ()"),
        ({"metadata": "{"}, "metadata: Expecting property name enclosed in double quotes"),
        ({"metadata": "[]"}, "metadata: expected a JSON object, got a list"),
        ({"readout": np.zeros((2, 2))}, "readout: readout must have shape (8, 8), got (2, 2)"),
    ], ids=["version-only", "version-array", "version-str", "metadata-bad-json",
            "metadata-list", "readout-shape"])
    def test_a_bad_entry_is_not_a_model_file(self, tmp_path, entries, reason):
        # Each once raised KeyError, TypeError, or a ValueError or
        # JSONDecodeError without the path, or loaded a list as the metadata.
        path = tmp_path / "model.npz"
        save_model(train_aligned(toy_dataset(seed=28), *toy_specs(seed=28)), path)
        # format_version is read first, so its cases need no other entry.
        with np.load(path) as data:
            payload = {} if "format_version" in entries else dict(data)
        np.savez(path, **{**payload, **entries})
        message = re.escape(f"{path} is not a randonet model file: {reason}")
        with pytest.raises(ValueError, match=f"^{message}"):
            load_model(path)

    def test_loads_files_that_carry_solver_used(self, tmp_path):
        # Files written before the entry was dropped repeat the solver in a
        # 'solver_used' entry; it is ignored.
        model = train_aligned(toy_dataset(seed=22), *toy_specs(seed=22), solver="tikhonov")
        path = tmp_path / "model.npz"
        save_model(model, path)
        current = load_model(path)
        with np.load(path) as data:
            payload = dict(data)
        assert "solver_used" not in payload
        np.savez(path, solver_used="tikhonov", **payload)
        loaded = load_model(path)
        assert loaded.train_metadata == current.train_metadata
        assert loaded.train_metadata["solver"] == "tikhonov"
        np.testing.assert_array_equal(loaded.readout, model.readout)
