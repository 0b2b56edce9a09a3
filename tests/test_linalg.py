import json
import logging
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import randonet
from randonet import _parallel, linalg
from randonet.linalg import (
    CODFactors,
    auto_tolerance,
    cod_factorize,
    cod_pinv_apply,
    tsvd_factorize,
    tsvd_pinv_apply,
)


def jacobi_singular_values(a, sweeps=60, tol=1e-15):
    """Reference singular values via classical one-sided Jacobi rotations."""
    w = a.copy() if a.shape[0] >= a.shape[1] else a.T.copy()
    n = w.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[:, p] @ w[:, q]
                app = w[:, p] @ w[:, p]
                aqq = w[:, q] @ w[:, q]
                denom = max(np.sqrt(app * aqq), 1e-300)
                off = max(off, abs(apq) / denom)
                if abs(apq) <= tol * denom:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                wp = w[:, p].copy()
                w[:, p] = c * wp - s * w[:, q]
                w[:, q] = s * wp + c * w[:, q]
        if off < tol:
            break
    return np.sort(np.linalg.norm(w, axis=0))[::-1]


class TestTsvdFactorize:
    def test_identity(self):
        f = tsvd_factorize(np.eye(3))
        assert f.rank == 3
        np.testing.assert_allclose(f.singular_values, [1.0, 1.0, 1.0])

    def test_tolerance_forces_truncation(self):
        f = tsvd_factorize(np.diag([1.0, 1e-20]))
        assert f.rank == 1
        np.testing.assert_allclose(f.singular_values, [1.0])

    def test_reconstruction_against_jacobi_reference(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((10, 7))
        ref = jacobi_singular_values(a)
        f = tsvd_factorize(a, tol=ref[-1] / 2)
        assert f.rank == 7
        np.testing.assert_allclose(f.singular_values, ref, rtol=1e-12)
        dense = (f.left_vectors * f.singular_values) @ f.right_vectors.T
        err = np.linalg.norm(dense - a) / np.linalg.norm(a)
        assert err <= 1e-12

    def test_zero_matrix_gives_rank_zero(self):
        f = tsvd_factorize(np.zeros((4, 3)))
        assert f.rank == 0
        assert f.singular_values.size == 0

    def test_retained_values_exceed_tolerance_and_decrease(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 9))
        f = tsvd_factorize(a, tol=0.5)
        assert np.all(f.singular_values > 0.5)
        assert np.all(np.diff(f.singular_values) <= 0)

    def test_orthonormal_columns(self):
        f = tsvd_factorize(np.random.default_rng(1).standard_normal((15, 6)))
        np.testing.assert_allclose(f.left_vectors.T @ f.left_vectors, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(f.right_vectors.T @ f.right_vectors, np.eye(6), atol=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-finite"):
            tsvd_factorize(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="2-D"):
            tsvd_factorize(np.ones(3))
        for tol in (-1.0, 0.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                tsvd_factorize(np.eye(2), tol=tol)

    @pytest.mark.parametrize("factorize", [tsvd_factorize, cod_factorize])
    def test_infinite_tolerance_rejected(self, factorize):
        # It once cut every value: rank 0 and an all-zero pseudo-inverse.
        with pytest.raises(ValueError, match="tolerance must be positive and finite or None"):
            factorize(np.eye(2), tol=np.inf)


class TestTsvdPinvApply:
    def test_identity_factors_return_input(self):
        f = tsvd_factorize(np.eye(3))
        b = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(tsvd_pinv_apply(f, b), b)

    def test_exact_diagonal_inverse(self):
        f = tsvd_factorize(np.diag([2.0, 4.0]))
        out = tsvd_pinv_apply(f, np.array([[2.0, 4.0]]))
        np.testing.assert_allclose(out, [[1.0, 1.0]])

    def test_overdetermined_matches_cholesky_normal_equations(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 8))
        b = rng.standard_normal((50, 3))
        x = tsvd_pinv_apply(tsvd_factorize(a.T), b.T).T  # A+ b
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a.T @ a), a.T @ b)
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-10

    def test_right_side(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 9))
        b = rng.standard_normal((4, 9))
        out = tsvd_pinv_apply(tsvd_factorize(a), b)
        np.testing.assert_allclose(out, b @ np.linalg.pinv(a), atol=1e-12)

    def test_shape_mismatch_reports_both_shapes(self):
        f = tsvd_factorize(np.eye(3))
        with pytest.raises(ValueError, match=r"\(3, 3\).*\(2, 2\)"):
            tsvd_pinv_apply(f, np.eye(2))

    def test_rank_zero_returns_zeros(self):
        f = tsvd_factorize(np.zeros((5, 3)))
        out = tsvd_pinv_apply(f, np.ones((2, 3)))
        np.testing.assert_array_equal(out, np.zeros((2, 5)))


def tikhonov_right(psi, y, reg):
    """``W`` minimizing ``||W Psi - Y||^2 + reg^2 ||W||^2``, through the SVD factors."""
    return tsvd_pinv_apply(tsvd_factorize(psi, reg=reg), y)


class TestTikhonovSolve:
    """The Tikhonov filter of :func:`tsvd_factorize`, applied from the right."""

    def test_identity_zero_lambda(self):
        y = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(tikhonov_right(np.eye(3), y, 0.0), y)

    def test_scalar_filter_factor(self):
        # sigma=1, lambda=1: filter 1/(1+1) applied to exact solution 2.
        w = tikhonov_right(np.array([[1.0]]), np.array([[2.0]]), 1.0)
        np.testing.assert_allclose(w, [[1.0]])
        # sigma=2, lambda=0.5: filter 2/(4+0.25) tells lambda^2 from lambda.
        w = tikhonov_right(np.array([[2.0]]), np.array([[2.0]]), 0.5)
        np.testing.assert_allclose(w, [[2.0 * 2.0 / (4.0 + 0.25)]])

    def test_matches_direct_symmetric_solve(self):
        rng = np.random.default_rng(8)
        psi = rng.standard_normal((50, 200))
        y = rng.standard_normal((4, 200))
        for lam in (1e-8, 0.3):
            w = tikhonov_right(psi, y, lam)
            ref = np.linalg.solve(psi @ psi.T + lam**2 * np.eye(50), psi @ y.T).T
            assert np.linalg.norm(w - ref) / np.linalg.norm(ref) <= 1e-8

    def test_lambda_to_zero_limit(self):
        rng = np.random.default_rng(9)
        psi = rng.standard_normal((30, 90))
        y = rng.standard_normal((2, 90))
        w0 = tikhonov_right(psi, y, 0.0)
        w = tikhonov_right(psi, y, 1e-14)
        assert np.linalg.norm(w - w0) / np.linalg.norm(w0) <= 1e-6

    def test_negative_lambda_rejected(self):
        for reg in (-0.5, np.nan):
            with pytest.raises(ValueError, match=">= 0"):
                tsvd_factorize(np.eye(2), reg=reg)

    def test_tol_with_lambda_rejected(self):
        # Above reg = 0 every triplet is kept, so a cutoff would be ignored.
        with pytest.raises(ValueError, match="tol cuts no singular value"):
            tsvd_factorize(np.eye(2), tol=0.5, reg=0.1)
        assert tsvd_factorize(np.eye(2), tol=0.5, reg=0.0).rank == 2

    def test_sample_axis_mismatch(self):
        with pytest.raises(ValueError, match="needs B with 3 columns"):
            tikhonov_right(np.eye(3), np.ones((2, 4)), 0.0)


def assert_moore_penrose(a, x, bound):
    """The four Moore-Penrose identities for ``x ~= pinv(a)``, each relative to its norm."""
    ax, xa = a @ x, x @ a
    for got, want in ((ax @ a, a), (x @ ax, x), (ax, ax.T), (xa, xa.T)):
        assert np.linalg.norm(got - want) <= bound * (np.linalg.norm(want) or 1.0)


def assert_cod_moore_penrose(a, f, bound):
    """:func:`assert_moore_penrose` for the COD pseudo-inverse ``I @ A+``."""
    assert_moore_penrose(a, cod_pinv_apply(f, np.eye(a.shape[1])), bound)


class TestCodFactorize:
    def test_identity(self):
        f = cod_factorize(np.eye(4))
        assert f.rank == 4
        np.testing.assert_allclose(np.abs(np.diag(f.rz)), np.ones(4))

    def test_outer_product_rank_one(self):
        u = np.array([1.0, -2.0, 0.5])
        v = np.array([3.0, 1.0, -1.0, 2.0])
        f = cod_factorize(np.outer(u, v))
        assert f.rank == 1

    def test_random_low_rank(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 8))
        f = cod_factorize(a)
        # Oracle: count of singular values above the same tolerance.
        sv = np.linalg.svd(a, compute_uv=False)
        assert f.rank == int(np.count_nonzero(sv > f.rank_tolerance)) == 3
        assert_cod_moore_penrose(a, f, 1e-10)

    def test_orthogonal_factors_and_core(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((7, 5))
        f = cod_factorize(a)
        assert_cod_moore_penrose(a, f, 1e-10)
        # The diagonal of the triangular core T11, the first r columns of rz.
        core_diag = np.abs(np.diag(f.rz))
        assert core_diag.size == f.rank
        assert np.all(core_diag >= f.rank_tolerance)

    def test_zero_matrix(self):
        f = cod_factorize(np.zeros((3, 4)))
        assert f.rank == 0
        np.testing.assert_array_equal(cod_pinv_apply(f, np.eye(4)), np.zeros((4, 3)))


class TestCodPinvApply:
    def test_identity_factors(self):
        f = cod_factorize(np.eye(3))
        b = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(cod_pinv_apply(f, b), b, atol=1e-14)

    def test_least_norm_solution_on_rank_deficient_system(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 8))
        b = a @ rng.standard_normal((8, 2))  # inside range(A)
        f = cod_factorize(a.T)
        x = cod_pinv_apply(f, b.T).T  # A+ b
        assert np.linalg.norm(a @ x - b) <= 1e-10
        ref = tsvd_pinv_apply(tsvd_factorize(a.T), b.T).T
        np.testing.assert_allclose(x, ref, atol=1e-10)

    def test_wide_cosine_feature_matrix_both_routes(self):
        # Branch-style workload: wide, strongly rectangular feature matrix.
        from randonet.embeddings import EmbeddingSpec, build_feature_map
        from randonet.problems import build_case, case_config

        u_mat = build_case(case_config(4, size=100, seed=33)).U
        fmap = build_feature_map(EmbeddingSpec("rffn", 100, 2000, 34))
        b_mat = fmap.apply(u_mat).T  # (100, 2000)
        targets = np.random.default_rng(35).standard_normal((3, 2000))
        w_cod = cod_pinv_apply(cod_factorize(b_mat), targets)
        w_svd = tsvd_pinv_apply(tsvd_factorize(b_mat), targets)
        assert np.linalg.norm(w_cod - w_svd) / np.linalg.norm(w_svd) <= 1e-6

    def test_rank_zero_and_shape_errors(self):
        f = cod_factorize(np.zeros((2, 5)))
        np.testing.assert_array_equal(
            cod_pinv_apply(f, np.ones((4, 5))), np.zeros((4, 2))
        )
        with pytest.raises(ValueError, match="columns"):
            cod_pinv_apply(f, np.ones((4, 4)))


def spectrum_matrix(rows, cols, rank, seed):
    """``rows x cols`` matrix of exact rank ``rank`` with singular values in [1, 10]."""
    rng = np.random.default_rng(seed)
    if rank == 0:
        return np.zeros((rows, cols))
    u, _ = np.linalg.qr(rng.standard_normal((rows, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, rank)))
    return (u * rng.uniform(1.0, 10.0, rank)) @ v.T


def assert_pinv_routes_agree(a, seed):
    """COD pseudo-inverse applies ``B @ A+`` match numpy and tsvd to 1e-10.

    One right-hand side and more right-hand sides than the rank reach both
    ways of applying the orthogonal factors: as reflectors and formed.
    """
    rows, cols = a.shape
    rng = np.random.default_rng(seed)
    ref = np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(np.float64).eps)
    cod, svd = cod_factorize(a), tsvd_factorize(a)
    assert cod.rank == svd.rank
    for nrhs in (1, min(rows, cols) + 1):
        b = rng.standard_normal((nrhs, cols))
        got, want, alt = cod_pinv_apply(cod, b), b @ ref, tsvd_pinv_apply(svd, b)
        scale = max(np.linalg.norm(want), 1e-300)
        assert np.linalg.norm(got - want) <= 1e-10 * scale
        assert np.linalg.norm(got - alt) <= 1e-10 * scale
        if not want.any():
            np.testing.assert_array_equal(got, 0.0)


# (rows, cols, rank): tall full column rank, wide full row rank, square,
# low rank tall and wide, zero.
COD_SHAPES = [(12, 5, 5), (5, 12, 5), (7, 7, 7), (10, 8, 3), (6, 11, 2), (4, 6, 0)]


class TestCodTwoStage:
    @pytest.mark.parametrize("rows, cols, rank", COD_SHAPES)
    def test_pinv_matches_numpy_and_tsvd(self, rows, cols, rank):
        assert_pinv_routes_agree(spectrum_matrix(rows, cols, rank, seed=rows * cols), seed=rank)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 14),
        cols=st.integers(1, 14),
        rank_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_pinv_property(self, rows, cols, rank_share, seed):
        rank = int(round(rank_share * min(rows, cols)))
        assert_pinv_routes_agree(spectrum_matrix(rows, cols, rank, seed), seed)

    @pytest.mark.parametrize("rows, cols, rank", COD_SHAPES)
    def test_exactly_one_pivoted_qr(self, rows, cols, rank, monkeypatch):
        a = spectrum_matrix(rows, cols, rank, seed=3)
        calls = []
        lapack = linalg._lapack

        def counting_geqp3(name, *args):
            if name == "dgeqp3" and args[-1] != -1:  # workspace queries factor nothing
                calls.append(tuple(args[:2]))
            return lapack(name, *args)

        def forbidden(*args, **kwargs):
            raise AssertionError("cod_factorize must not run a second dense factorization")

        monkeypatch.setattr(linalg, "_lapack", counting_geqp3)
        monkeypatch.setattr(scipy.linalg, "qr", forbidden)
        monkeypatch.setattr(np.linalg, "qr", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(scipy.linalg, "svd", forbidden)
        cod_factorize(a)
        assert calls == [(rows, cols)]

    @pytest.mark.parametrize("rows, cols, rank, routines", [
        (20, 12, 12, ["dormqr", "dtrtrs"]),  # Z is the identity
        (12, 20, 8, ["dormqr", "dormrz", "dtrtrs"]),
    ], ids=["tall_full_rank", "wide_rank_deficient"])
    @pytest.mark.parametrize("nrhs", ["1", "r", "r+1", "3r"])
    def test_every_apply_runs_on_the_reflectors(self, rows, cols, rank, routines, nrhs,
                                                monkeypatch):
        # Whatever the count of right-hand sides, no orthogonal factor is
        # formed: the apply calls only ormrz, trtrs and ormqr.
        a = spectrum_matrix(rows, cols, rank, seed=9)
        f = cod_factorize(a)
        k = {"1": 1, "r": rank, "r+1": rank + 1, "3r": 3 * rank}[nrhs]
        b = np.random.default_rng(k).standard_normal((k, cols))
        calls, lapack = [], linalg._lapack

        def record(name, *args):
            calls.append(name)
            return lapack(name, *args)

        monkeypatch.setattr(linalg, "_lapack", record)
        x = cod_pinv_apply(f, b)
        assert sorted(set(calls)) == routines
        ref = b @ np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(np.float64).eps)
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("rows, cols, rank", COD_SHAPES)
    def test_rank_is_pivot_count_above_tolerance(self, rows, cols, rank):
        a = spectrum_matrix(rows, cols, rank, seed=4)
        f = cod_factorize(a)
        _, r_mat, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
        assert f.rank == int(np.count_nonzero(np.abs(np.diag(r_mat)) > f.rank_tolerance))
        assert f.rank == rank
        for tol in (0.5, 5.0, 50.0):
            f = cod_factorize(a, tol)
            assert f.rank == int(np.count_nonzero(np.abs(np.diag(r_mat)) > tol))

    @pytest.mark.parametrize("rows, cols, rank", COD_SHAPES)
    def test_repeated_factorizations_are_bit_identical(self, rows, cols, rank):
        a = spectrum_matrix(rows, cols, rank, seed=5)
        b = np.random.default_rng(6).standard_normal((3, cols))
        first = cod_pinv_apply(cod_factorize(a), b)
        second = cod_pinv_apply(cod_factorize(a.copy()), b)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("rows, cols, rank", COD_SHAPES)
    def test_contract_factors(self, rows, cols, rank):
        a = spectrum_matrix(rows, cols, rank, seed=7)
        f = cod_factorize(a)
        assert f.shape == (rows, cols)
        assert f.q_reflectors.shape == (rows, rank)
        assert f.rz.shape == (rank, cols)
        assert np.all(np.abs(np.diag(f.rz)) >= f.rank_tolerance)
        assert_cod_moore_penrose(a, f, 1e-12)

    def test_peak_memory_is_one_working_copy(self, traced_peak):
        # Wide and rank-deficient, so tzrzf runs. This bound dates from
        # when scipy.linalg.qr's dense R and its mask sat beside the working
        # copy (2.14x); the next test holds the tighter one (1.09x now).
        a = spectrum_matrix(600, 1000, 500, seed=10)
        f, peak = traced_peak(lambda: cod_factorize(a))
        assert f.rank == 500
        assert peak <= 2.2 * a.nbytes

    def test_peak_memory_is_the_working_copy_alone(self, traced_peak):
        # geqp3 and tzrzf run in the working copy, with the leading
        # dimension passed: no dense R, mask or trapezoid copy beside it.
        a = spectrum_matrix(600, 1000, 500, seed=10)
        f, peak = traced_peak(lambda: cod_factorize(a))
        assert f.rank == 500
        assert peak <= 1.2 * a.nbytes

    def test_inplace_peak_memory_is_workspace_only(self, traced_peak):
        # What remains is LAPACK workspace, geqp3's 2 n + (n + 1) * 32
        # doubles the largest (0.034x here), and no finiteness mask.
        a = np.asfortranarray(spectrum_matrix(1000, 1200, 600, seed=13))
        nbytes = a.nbytes
        f, peak = traced_peak(lambda: cod_factorize(a, overwrite_a=True))
        assert f.rank == 600 and f.z_tau.size == 600
        assert peak <= 0.05 * nbytes

    def test_right_apply_holds_no_matrix_sized_temporary(self, traced_peak):
        # One (max(rows, cols), k) buffer and the (k, rows) result; a copy of
        # B[:, perm], of T11 (2 MB here) or of the factors would exceed it.
        a = spectrum_matrix(600, 1000, 500, seed=10)
        f = cod_factorize(a)
        b = np.random.default_rng(14).standard_normal((40, 1000))
        x, peak = traced_peak(lambda: cod_pinv_apply(f, b))
        assert x.shape == (40, 600) and x.flags.c_contiguous
        assert peak <= 2 * b.nbytes

    def test_tall_right_apply_holds_no_matrix_sized_temporary(self, traced_peak):
        # rows > cols: the (rows, k) buffer, 1.25x B here, becomes the
        # result. Gathering B[:, perm] through its non-contiguous leading
        # columns made numpy add a B-sized copy (2.26x).
        a = spectrum_matrix(1000, 800, 500, seed=10)
        f = cod_factorize(a)
        b = np.random.default_rng(16).standard_normal((200, 800))
        x, peak = traced_peak(lambda: cod_pinv_apply(f, b))
        assert x.shape == (200, 1000) and x.flags.c_contiguous
        assert peak <= 1.5 * b.nbytes
        ref = b @ np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(np.float64).eps)
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_formed_apply_holds_one_gathered_copy(self, traced_peak, layout):
        # The trunk solve: tall full-rank factors, more right-hand sides
        # than the rank, B = V.T in Fortran order. B is gathered once, into
        # the (rows, k) buffer that becomes the result (2x B); beside it
        # lies the blocked ormqr's workspace, 32 doubles per right-hand
        # side (0.32x B). Forming Q1 for this apply held 3.2x; a second
        # copy of B, from gathering B[:, perm] first, made it 4.1x.
        a = spectrum_matrix(200, 100, 100, seed=18)
        f = cod_factorize(a)
        v = np.random.default_rng(19).standard_normal((100, 2400))
        b = v.T if layout == "F" else np.ascontiguousarray(v.T)
        x, peak = traced_peak(lambda: cod_pinv_apply(f, b))
        assert x.shape == (2400, 200) and x.flags.c_contiguous
        assert peak <= 2.5 * b.nbytes
        ref = b @ np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(np.float64).eps)
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("rows, cols, rank", [(6, 11, 2), (150, 220, 140)])
    def test_trapezoid_compressed_in_the_working_array(self, rows, cols, rank):
        # rank < rows < cols: tzrzf runs on the top rank rows of the QR
        # storage (blocked at rank 140), whose leading dimension is rows.
        a = spectrum_matrix(rows, cols, rank, seed=15)
        f = cod_factorize(a)
        assert f.rank == rank and f.z_tau.size == rank
        assert np.shares_memory(f.rz, f.q_reflectors)
        ref = np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(np.float64).eps)
        rng = np.random.default_rng(rank)
        for nrhs in (1, 2, rank, rank + 1):
            b_right = rng.standard_normal((nrhs, cols))
            np.testing.assert_allclose(cod_pinv_apply(f, b_right), b_right @ ref,
                                       rtol=0, atol=1e-10 * np.abs(b_right @ ref).max())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        a = np.full((3, 4), 1e308)
        a[0, 0] = -1e308  # finite extremes pass, although their sum overflows
        # The overflowing sum draws numpy's RuntimeWarning (see _checks.finite_array).
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert not np.isfinite(a.sum())
        with pytest.warns(RuntimeWarning, match="overflow"):
            f = cod_factorize(np.asfortranarray(a), overwrite_a=True)
        a[2, 1] = bad
        for call in (lambda: cod_factorize(a),
                     lambda: cod_factorize(np.asfortranarray(a), overwrite_a=True),
                     lambda: cod_pinv_apply(f, a.copy())):
            # -inf adds an invalid inf - inf to the overflow.
            with pytest.warns(RuntimeWarning), \
                    pytest.raises(ValueError, match="contains non-finite entries"):
                call()

    @pytest.mark.parametrize("shape, rank", [((9, 5), 5), ((5, 9), 3), ((7, 7), 7)])
    def test_inplace_takes_over_a_fortran_input(self, shape, rank):
        a = spectrum_matrix(*shape, rank, seed=11)
        want = cod_factorize(a)
        work = np.asfortranarray(a.copy())
        got = cod_factorize(work, overwrite_a=True)
        # The factors live in the caller's array, which now holds them.
        assert np.shares_memory(got.q_reflectors, work)
        assert not np.array_equal(work, a)
        for name in ("permutation", "q_reflectors", "q_tau", "rz", "z_tau"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.rank == want.rank == rank
        b = np.arange(3.0 * shape[1]).reshape(3, shape[1])
        np.testing.assert_array_equal(cod_pinv_apply(got, b), cod_pinv_apply(want, b))

    def test_inplace_copies_other_layouts_once(self):
        a = spectrum_matrix(6, 11, 2, seed=12)
        keep = a.copy()  # C-ordered, so the call factors a Fortran copy
        got = cod_factorize(a, overwrite_a=True)
        np.testing.assert_array_equal(a, keep)
        assert not np.shares_memory(got.q_reflectors, a)
        np.testing.assert_array_equal(got.rz, cod_factorize(a).rz)

    def test_input_is_not_modified(self):
        a = spectrum_matrix(6, 11, 2, seed=8)
        keep = a.copy()
        f = cod_factorize(a)
        cod_pinv_apply(f, np.ones((2, 11)))
        np.testing.assert_array_equal(a, keep)

    def test_inplace_copies_a_read_only_input(self, tmp_path):
        # A read-only memory map would crash the process if LAPACK wrote to it.
        a = np.asfortranarray(spectrum_matrix(9, 5, 5, seed=10))
        np.save(tmp_path / "a.npy", a)
        mapped = np.load(tmp_path / "a.npy", mmap_mode="r")
        assert mapped.flags.f_contiguous and not mapped.flags.writeable
        got = cod_factorize(mapped, overwrite_a=True)
        assert not np.shares_memory(got.q_reflectors, mapped)
        np.testing.assert_array_equal(mapped, a)
        np.testing.assert_array_equal(got.rz, cod_factorize(a).rz)
        del mapped

    def test_default_leaves_a_fortran_input_unchanged(self):
        # Without overwrite_a even the layout the QR works in is copied.
        a = np.asfortranarray(spectrum_matrix(9, 5, 5, seed=9))
        keep = a.copy(order="F")
        f = cod_factorize(a)
        assert not np.shares_memory(f.q_reflectors, a)
        assert a.tobytes(order="A") == keep.tobytes(order="A")


@pytest.mark.parametrize("shape", [(9, 5), (5, 9), (7, 7)])
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestMoorePenroseIdentities:
    def test_both_routes(self, shape, seed):
        a = np.random.default_rng(seed).standard_normal(shape)
        for factorize, apply_ in (
            (tsvd_factorize, tsvd_pinv_apply),
            (cod_factorize, cod_pinv_apply),
        ):
            assert_moore_penrose(a, apply_(factorize(a), np.eye(shape[1])), 1e-10)


def gapped_matrix(rows, cols, rank, seed):
    """``rank`` singular values in [1, 10], the others in [0, 1e-9]."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    sing = np.concatenate([rng.uniform(1.0, 10.0, rank), rng.uniform(0.0, 1e-9, k - rank)])
    return (u * sing) @ v.T


def assert_close_or_zero(got, want, bound):
    scale = max(np.linalg.norm(want), 1e-300)
    assert np.linalg.norm(got - want) <= bound * scale
    if not want.any():
        np.testing.assert_array_equal(got, 0.0)


SHAPES = dict(rows=st.integers(1, 14), cols=st.integers(1, 14), rank_share=st.floats(0.0, 1.0),
              seed=st.integers(0, 2**31 - 1))


class TestSpectralFilters:
    @settings(max_examples=40, deadline=None)
    @given(**SHAPES)
    def test_truncated_matches_numpy_pinv_across_gap(self, rows, cols, rank_share, seed):
        rank = int(round(rank_share * min(rows, cols)))
        a = gapped_matrix(rows, cols, rank, seed)
        tol = 1e-5  # four decades from both sides of the gap
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((3, cols))
        ref = np.linalg.pinv(a, rcond=tol / max(np.linalg.norm(a, 2), tol))
        f = tsvd_factorize(a, tol)
        assert f.rank == rank
        assert_close_or_zero(tsvd_pinv_apply(f, b), b @ ref, 1e-10)
        # reg = 0 is the truncated solve at the auto tolerance, bit for bit.
        auto, zero = tsvd_factorize(a), tsvd_factorize(a, reg=0.0)
        assert zero.rank_tolerance == auto.rank_tolerance and zero.rank == auto.rank
        np.testing.assert_array_equal(tsvd_pinv_apply(zero, b), tsvd_pinv_apply(auto, b))

    @settings(max_examples=40, deadline=None)
    @given(**SHAPES, reg=st.floats(0.05, 10.0))
    def test_tikhonov_matches_stacked_least_squares(self, rows, cols, rank_share, seed, reg):
        # The oracle's error grows as (sigma_max / reg)^2 on rank-deficient
        # input, hence reg >= 0.05 for sigma_max <= 10.
        a = spectrum_matrix(rows, cols, int(round(rank_share * min(rows, cols))), seed)
        b = np.random.default_rng(seed).standard_normal((3, cols))
        f = tsvd_factorize(a, reg=reg)
        assert f.rank == min(rows, cols)
        # X A ~= B is [A^T; reg I] X^T = [B^T; 0] in the least-squares sense.
        want = np.linalg.lstsq(np.vstack([a.T, reg * np.eye(rows)]),
                               np.vstack([b.T, np.zeros((rows, 3))]), rcond=None)[0]
        assert_close_or_zero(tsvd_pinv_apply(f, b), want.T, 1e-9)


def test_factorizations_carry_the_traced_attributes():
    # perfbench/tracing.py wraps every *_factorize in linalg.__all__, reads
    # shape and rank from its result (after trying a numerical_rank field
    # that neither factor type has now), and counts flops for results
    # whose class is named CODFactors.
    a = spectrum_matrix(6, 9, 4, seed=17)
    names = [name for name in linalg.__all__ if name.endswith("_factorize")]
    assert set(names) == {"tsvd_factorize", "cod_factorize"}
    for name in names:
        out = getattr(linalg, name)(a.copy())
        assert tuple(out.shape) == a.shape
        assert out.rank == 4
    for overwrite_a in (False, True):
        out = cod_factorize(np.asfortranarray(a), overwrite_a=overwrite_a)
        assert type(out).__name__ == "CODFactors"
        assert tuple(out.shape) == a.shape and out.rank == 4


class TestTruncationAndAgreement:
    def test_monotone_truncation(self):
        a = np.random.default_rng(13).standard_normal((10, 10))
        a = a @ np.diag(np.logspace(0, -12, 10)) @ a
        tols = np.logspace(-14, 1, 24)
        ranks_svd = [tsvd_factorize(a, t).rank for t in tols]
        ranks_cod = [cod_factorize(a, t).rank for t in tols]
        assert all(r1 >= r2 for r1, r2 in zip(ranks_svd, ranks_svd[1:]))
        assert all(r1 >= r2 for r1, r2 in zip(ranks_cod, ranks_cod[1:]))

    def test_routes_agree_across_gap(self):
        # Spectrum with a >=1e3 * tol gap around the cut.
        rng = np.random.default_rng(14)
        u, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        sing = np.concatenate([np.linspace(5.0, 1.0, 8), np.full(12, 1e-9)])
        a = (u[:, :20] * sing) @ v.T
        b = rng.standard_normal((30, 4))
        tol = 1e-6
        # A+ b as (b.T (A.T)+).T
        x_svd = tsvd_pinv_apply(tsvd_factorize(a.T, tol), b.T).T
        x_cod = cod_pinv_apply(cod_factorize(a.T, tol), b.T).T
        assert np.linalg.norm(x_svd - x_cod) / np.linalg.norm(x_svd) <= 1e-8

    def test_auto_tolerance_rule(self):
        assert auto_tolerance((3, 7), 2.0) == 7 * np.finfo(np.float64).eps * 2.0


    def test_each_route_scales_its_auto_tolerance(self):
        # Cosine features of nearly equal inputs share a common mode, which
        # puts sigma_1 about sqrt(cols) = 17 times above the largest column
        # norm |R_11|. The SVD cuts on sigma_1, the COD on |R_11|.
        rng = np.random.default_rng(40)
        w = rng.standard_normal((40, 1))
        b = rng.uniform(0.0, 2 * np.pi, (40, 1))
        a = np.cos(w * (1e-2 * rng.standard_normal((1, 300))) + b)
        sigma_1 = np.linalg.svd(a, compute_uv=False)[0]
        # |R_11| from scipy's pivoted QR: tzrzf rewrites the diagonal the
        # COD keeps.
        r_11 = abs(scipy.linalg.qr(a, mode="r", pivoting=True)[0][0, 0])
        assert sigma_1 > 10 * r_11
        assert tsvd_factorize(a).rank_tolerance == pytest.approx(
            auto_tolerance(a.shape, sigma_1), rel=1e-12)
        assert cod_factorize(a).rank_tolerance == pytest.approx(
            auto_tolerance(a.shape, r_11), rel=1e-12)


def run_with_openblas_threads(script: str, threads: str, *args) -> list:
    """Run ``script`` in a fresh interpreter under ``OPENBLAS_NUM_THREADS``
    (OpenBLAS reads it once, at load) and return the JSON it prints."""
    src = str(Path(randonet.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestComplexInput:
    """A complex matrix is rejected by name, not cut to its real part."""

    @pytest.mark.parametrize("call", [
        cod_factorize, lambda a: cod_factorize(a, overwrite_a=True), tsvd_factorize,
        lambda a: cod_pinv_apply(cod_factorize(np.eye(3)), a),
        lambda a: tsvd_pinv_apply(tsvd_factorize(np.eye(3)), a),
    ], ids=["cod", "inplace_cod", "tsvd", "cod_pinv_apply", "tsvd_pinv_apply"])
    def test_rejected_before_the_float_cast(self, call):
        with pytest.raises(ValueError, match=r"^[AB] must be real, got dtype complex128"):
            call(np.eye(3) * (1 + 1j))


class TestPivotedQrRoute:
    """The COD runs scipy's OpenBLAS at its own thread count and restores the caller's."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_thread_count_by_size_and_the_callers_count_restored(self, threads):
        # Two usable CPUs: 1200 x 1000 is above the floor, 500 x 800 below
        # it, and one usable CPU keeps even the large matrix at one thread.
        # A dgeqp3 that raises leaves the caller's count too.
        script = """
            import json, logging, os
            import numpy as np
            from randonet import _parallel, linalg
            records, inside = [], []
            handler = logging.Handler()
            handler.emit = lambda record: records.append(record.getMessage())
            _parallel.logger.addHandler(handler)
            _parallel.logger.setLevel(logging.DEBUG)
            get = _parallel.scipy_blas_threads()[0]
            caller = get()
            lapack = linalg._lapack
            def record(name, *args):
                if name == "dgeqp3":
                    inside.append(get())
                return lapack(name, *args)
            linalg._lapack = record
            a = np.random.default_rng(0).standard_normal((1200, 1000))
            os.sched_getaffinity = lambda pid: {0, 1}
            linalg.cod_factorize(a)
            linalg.cod_factorize(a[:500, :800])
            os.sched_getaffinity = lambda pid: {0}
            linalg.cod_factorize(a)
            after = get()
            def fail(name, *args):
                if name == "dgeqp3" and args[-1] != -1:
                    raise FloatingPointError("geqp3")
                return record(name, *args)
            linalg._lapack = fail
            os.sched_getaffinity = lambda pid: {0, 1}
            failed = False
            try:
                linalg.cod_factorize(a)
            except FloatingPointError:
                failed = True
            print(json.dumps([caller, after, get(), failed, records, inside,
                              os.cpu_count()]))
        """
        caller, after, after_error, failed, records, inside, cpus = run_with_openblas_threads(
            script, threads)
        assert caller == min(int(threads), cpus) and after == after_error == caller and failed
        assert [r.rsplit(",", 1)[0] for r in records] == [
            "COD of 1200 x 1000: 2 BLAS thread(s)", "COD of 500 x 800: 1 BLAS thread(s)",
            "COD of 1200 x 1000: 1 BLAS thread(s)"]
        # Each dgeqp3 (workspace query, then the factorization) runs at the
        # count logged; OpenBLAS caps it at the CPUs it sees.
        assert inside == [min(2, cpus)] * 2 + [1] * 4 + [min(2, cpus)]

    def test_an_error_mid_factorization_leaves_no_helper(self, monkeypatch):
        # tzrzf fails after geqp3 has run at the block's count: no thread is
        # left behind and scipy's OpenBLAS is back at the caller's count.
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: 3)
        get = _parallel.scipy_blas_threads()[0]
        run, calls = linalg._lapack_with_work, []

        def fail_on_tzrzf(name, *args, **kwargs):
            calls.append((name, get()))
            if name == "dtzrzf":
                raise FloatingPointError("tzrzf")
            return run(name, *args, **kwargs)

        monkeypatch.setattr(linalg, "_lapack_with_work", fail_on_tzrzf)
        a = np.random.default_rng(13).standard_normal((1000, 1200))
        assert a.size >= _parallel.MIN_QR_ENTRIES
        caller, before = get(), threading.active_count()
        with pytest.raises(FloatingPointError, match="tzrzf"):
            cod_factorize(a)
        assert [name for name, _ in calls] == ["dgeqp3", "dtzrzf"]
        assert threading.active_count() == before and get() == caller

    def test_below_the_speed_floor_lapack_factors(self, monkeypatch, caplog):
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
        rows, cols = 300, 420
        assert rows * cols < 2 * _parallel.MIN_QR_ENTRIES
        a = np.random.default_rng(11).standard_normal((rows, cols))
        with caplog.at_level(logging.DEBUG, logger="randonet._parallel"):
            factors = cod_factorize(a)
        assert [r.getMessage().rsplit(",", 1)[0] for r in caplog.records] == [
            "COD of 300 x 420: 1 BLAS thread(s)"]
        # The bits of one dgeqp3 call at one thread, whatever the caller's count.
        work = np.array(a, order="F")
        with _parallel.scipy_blas(1):
            lwork = int(scipy.linalg.lapack.dgeqp3(work, lwork=-1, overwrite_a=1)[3][0])
            _, jpvt, tau, _, info = scipy.linalg.lapack.dgeqp3(work, lwork=lwork, overwrite_a=1)
        assert info == 0
        assert np.array_equal(factors.permutation, jpvt - 1)
        assert np.array_equal(factors.q_tau, tau[:factors.rank])
