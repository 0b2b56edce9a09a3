import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randonet import linalg
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

    def counting(self, x, order="C"):
        calls.append(self.spec.kind)
        return original(self, x, order)

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
        with pytest.raises(ValueError, match="shapes"):
            AlignedDataset(x=x, y=x, U=np.zeros((4, 2)), V=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            AlignedDataset(x=x, y=x, U=np.full((4, 1), np.nan), V=np.zeros((4, 1)))

    def test_unaligned_validation(self):
        with pytest.raises(ValueError, match="sample counts"):
            UnalignedDataset(U=np.zeros((3, 4)), Y=np.zeros((1, 4)), V=np.zeros(5))

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
        # N = M = 8 and n = 10: s = 25 functions take the branch
        # pseudo-inverse first, s = 4 the trunk's.
        trunk, branch = toy_specs()
        wide = toy_dataset(s=25, seed=6)
        tall = toy_dataset(s=4, seed=7)
        for ds, order in ((wide, "branch_first"), (tall, "trunk_first")):
            model = train_aligned(ds, trunk, branch, solver="tikhonov")
            assert model.train_metadata["solve_order"] == order
            t_mat = features(trunk, ds.y[None, :])  # (N, n): pinv(T) V = (V.T pinv(t_mat)).T
            b_mat = features(branch, ds.U)
            ft = linalg.tsvd_factorize(t_mat)
            fb = linalg.tsvd_factorize(b_mat)
            w_to = linalg.tsvd_pinv_apply(fb, linalg.tsvd_pinv_apply(ft, ds.V.T).T)
            w_ot = linalg.tsvd_pinv_apply(ft, linalg.tsvd_pinv_apply(fb, ds.V).T).T
            assert np.linalg.norm(w_to - w_ot) / np.linalg.norm(w_to) <= 1e-10
            assert np.linalg.norm(model.readout - w_to) / np.linalg.norm(w_to) <= 1e-10

    @pytest.mark.parametrize(
        "n_feat, n, s, m_feat",
        [(200, 100, 2400, 100), (200, 100, 1600, 2000), (200, 100, 32, 100),
         (50, 1000, 100, 400), (40, 400, 60, 200), (4, 6, 6, 4), (10, 10, 40, 40)],
    )
    def test_solve_order_is_the_matrix_chain_rule(self, n_feat, n, s, m_feat):
        # Trunk first if and only if 1/n + 1/M < 1/s + 1/N; the last two
        # shapes tie and go branch first.
        trunk_first = Fraction(1, n) + Fraction(1, m_feat) < Fraction(1, s) + Fraction(1, n_feat)
        want = "trunk_first" if trunk_first else "branch_first"
        assert model_module._solve_order(n_feat, n, s, m_feat) == want

    @pytest.mark.parametrize("solver, reg", [("cod", 0.0), ("tikhonov", 1e-3)])
    @pytest.mark.parametrize("s, rule", [(20, "branch_first"), (3, "trunk_first")])
    def test_both_orders_agree_to_rounding(self, monkeypatch, solver, reg, s, rule):
        # A well-conditioned toy (6 tanh and 6 JL features of 12 points and
        # s functions): forcing either order moves W by rounding only, and
        # an unforced fit takes the rule's order bit for bit.
        ds = toy_dataset(m=10, n=12, s=s, seed=30)
        trunk, branch = toy_specs(n_feat=6, m_feat=6, seed=31)
        model = train_aligned(ds, trunk, branch, solver=solver, reg=reg)
        assert model.train_metadata["solve_order"] == rule
        forced = {}
        for order in ("trunk_first", "branch_first"):
            monkeypatch.setattr(model_module, "_solve_order", lambda *shape, o=order: o)
            forced[order] = train_aligned(ds, trunk, branch, solver=solver, reg=reg)
            assert forced[order].train_metadata["solve_order"] == order
        w_trunk, w_branch = (forced[order].readout for order in ("trunk_first", "branch_first"))
        assert np.linalg.norm(w_trunk - w_branch) <= 1e-12 * np.linalg.norm(w_branch)
        np.testing.assert_array_equal(model.readout, forced[rule].readout)

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
        # Every fit records the Frobenius norm of its readout; aligned fits
        # record their association order (n = 10 points and s = 5 functions
        # take the trunk first).
        assert md["readout_norm"] == np.linalg.norm(model.readout) > 0.0
        assert md.get("solve_order") == ("trunk_first" if aligned else None)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path).train_metadata
        for key in ("stages", "readout_norm", "solve_order"):
            assert loaded.get(key) == md.get(key)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_rank_metadata(self, solver):
        # Tikhonov at reg = 0 truncates at the SVD's auto tolerance.
        ds = toy_dataset()
        trunk, branch = toy_specs()
        md = train_aligned(ds, trunk, branch, solver=solver).train_metadata
        for name, mat in (("trunk", features(trunk, ds.y[None, :])),
                          ("branch", features(branch, ds.U))):
            f = linalg.cod_factorize(mat) if solver == "cod" else linalg.tsvd_factorize(mat)
            rank = f.numerical_rank if solver == "cod" else f.rank
            assert md[f"{name}_rank"] == rank
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
        # 1/n + 1/M > 1/s + 1/N on every paper-size fit.
        assert md["solve_order"] == "branch_first"
        assert md["readout_norm"] == np.linalg.norm(model.readout)


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

    def test_batched_matches_single(self):
        model = train_aligned(toy_dataset(), *toy_specs())
        u = np.random.default_rng(10).standard_normal((10, 4))
        ys = np.linspace(0, 1, 5)
        batch = evaluate(model, u, ys)
        for i in range(4):
            np.testing.assert_allclose(
                batch[:, i], evaluate(model, u[:, i], ys), rtol=1e-12, atol=1e-15
            )


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
        "n, s, n_feat, branch_kind, m_feat, order",
        [(12, 40, 16, "rffn", 60, "branch_first"), (12, 40, 16, "jl", 8, "branch_first"),
         (400, 60, 40, "rffn", 200, "trunk_first")],
        ids=["rffn-60", "jl-8", "rffn-200-trunk-first"],
    )
    def test_aligned_readout_matches_public_solve(self, n, s, n_feat, branch_kind, m_feat,
                                                  order):
        # RFFN(60) on 40 functions and the 16 x 12 trunk matrix have full
        # column rank (no tzrzf), JL(8) is wide (tzrzf runs). The oracle
        # composes the public applies in the order of the matrix-chain rule:
        # 1/n + 1/M < 1/s + 1/N holds only for the last shapes.
        ds = toy_dataset(m=10, n=n, s=s, seed=21)
        trunk = EmbeddingSpec("tanh", 1, n_feat, (22, 0), domain=(0.0, 1.0))
        branch = EmbeddingSpec(kind=branch_kind, input_dim=10, feature_dim=m_feat, seed=(22, 1))
        kept = {name: getattr(ds, name).copy() for name in ("x", "y", "U", "V")}
        model = train_aligned(ds, trunk, branch, solver="cod")
        for name, arr in kept.items():
            np.testing.assert_array_equal(getattr(ds, name), arr)
        t_fac = linalg.cod_factorize(features(trunk, ds.y[None, :]))
        b_fac = linalg.cod_factorize(features(branch, ds.U))
        assert model.train_metadata["trunk_rank"] == t_fac.numerical_rank == min(n, n_feat)
        assert model.train_metadata["solve_order"] == order
        if order == "trunk_first":
            want = linalg.cod_pinv_apply(b_fac, linalg.cod_pinv_apply(t_fac, ds.V.T).T)
        else:
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
        assert model.train_metadata["collocation_rank"] == factors.numerical_rank
        omega = linalg.cod_pinv_apply(factors, ds.V[None, :])
        np.testing.assert_array_equal(model.readout, omega.reshape(5, 6).T)

    def test_factors_through_the_public_in_place_entry(self, monkeypatch):
        # The traced benchmark records every public linalg '*_factorize'
        # call, so the 'cod' route must reach the QR through one of them.
        assert "inplace_cod_factorize" in linalg.__all__
        seen = []
        original = linalg.inplace_cod_factorize

        def counting(mat, tol=None):
            seen.append((mat.shape, mat.flags.f_contiguous))
            return original(mat, tol)

        monkeypatch.setattr(linalg, "inplace_cod_factorize", counting)
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
