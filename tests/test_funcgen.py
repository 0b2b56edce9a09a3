import re

import numpy as np
import pytest
from scipy.integrate import quad

import reference_build
from randonet.funcgen import (
    _DEGENERATE_SHAPE,
    CaseSamplingConfig,
    _blocks,
    eval_antiderivative,
    eval_d2u,
    eval_du,
    eval_u,
    sample_params,
)
from randonet.problems import CASE_IDS, case_config


def make_row(w=(), s=(), c=(), a0=0.0, a1=0.0, a2=0.0):
    """One parameter row of max(len(w), 1) terms; an empty block is zeros."""
    n = max(len(w), 1)
    blocks = [np.resize(np.asarray(v, float), n) if len(v) else np.zeros(n) for v in (w, s, c)]
    return np.concatenate([*blocks, [a0, a1, a2]])


def with_references(rows):
    """Each row paired with its ``reference_build.Params``."""
    return zip(rows, reference_build.as_params(rows))


class TestSampleParams:
    def test_degenerate_ranges_give_zero_params(self):
        cfg = CaseSamplingConfig(
            w_range=(0, 0), s_range=(0, 0), c_range=(0, 0), a_range=(0, 0),
            domain=(0, 1), size=1, seed=0,
        )
        table = sample_params(cfg)
        assert table.shape == (1, 3 * cfg.n_terms + 3)
        assert np.all(table == 0.0)

    def test_deterministic(self):
        cfg = case_config(1, size=5, seed=99).sampling
        np.testing.assert_array_equal(sample_params(cfg), sample_params(cfg))

    def test_law_of_large_numbers_means(self):
        cfg = case_config(1, size=1000, seed=5).sampling
        w, s, c, *_ = _blocks(sample_params(cfg))
        for draws, (lo, hi) in ((w, cfg.w_range), (s, cfg.s_range), (c, cfg.c_range)):
            mid = (lo + hi) / 2
            sigma = (hi - lo) / np.sqrt(12)
            assert abs(draws.mean() - mid) <= 3 * sigma / np.sqrt(draws.size)

    def test_start_index_shifts_streams(self):
        cfg = case_config(1, size=3, seed=7).sampling
        base = sample_params(cfg)
        shifted = sample_params(cfg, start_index=1)
        np.testing.assert_array_equal(base[1:], shifted[:-1])

    @pytest.mark.parametrize("case_id", CASE_IDS)
    @pytest.mark.parametrize("start_index", [0, 3000])
    def test_rows_equal_per_parameter_uniform_draws(self, case_id, start_index):
        cfg = case_config(case_id, size=6, seed=64).sampling
        per_parameter = reference_build.draw(cfg, start_index)
        np.testing.assert_array_equal(
            sample_params(cfg, start_index), reference_build.as_table(per_parameter)
        )

    @pytest.mark.parametrize("field, value", [
        ("w_range", (-np.inf, 1.0)),
        ("c_range", (0.0, np.nan)),
        ("a_range", (-1.0, np.inf)),
        ("w_range", (-1e308, 1e308)),
        ("s_range", (-1.0, 1.0)),
        ("domain", (0.0, np.inf)),
        ("domain", (np.nan, 1.0)),
    ])
    def test_config_rejects_bad_ranges_naming_the_field(self, field, value):
        ranges = dict(w_range=(-1.0, 1.0), s_range=(0.0, 1.0), c_range=(0.0, 1.0),
                      a_range=(-1.0, 1.0), domain=(0.0, 1.0))
        ranges[field] = value
        with pytest.raises(ValueError, match=field):
            CaseSamplingConfig(size=1, **ranges)

    @pytest.mark.parametrize("seed", [-1, None, 1.5])
    def test_config_rejects_a_seed_that_fixes_no_draws(self, seed):
        # A negative seed once failed at the first draw, with numpy's bare
        # "expected non-negative integer".
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer .* {seed}$"):
            case_config(3, seed=seed)

    @pytest.mark.parametrize("start_index", [-1, 1.5])
    def test_rejects_a_start_index_that_names_no_stream(self, start_index):
        # -1 once failed with numpy's bare "expected non-negative integer"
        # and 1.5 with "seed must be integer".
        cfg = case_config(1, size=2).sampling
        message = rf"^start_index must be an integer >= 0, got {start_index}$"
        with pytest.raises(ValueError, match=message):
            sample_params(cfg, start_index)

    def test_param_validation(self):
        # Every evaluator takes one finite 1-D row of 3J + 3 values (J >= 1)
        # with every s >= 0, and rejects anything else before evaluating.
        row = make_row(w=[1.0, 2.0], s=[3.0, 4.0], c=[0.5, 0.6], a0=1.0)
        assert eval_u(row, 0.5) == pytest.approx(2.0 + 2.0 * np.exp(-0.04))
        bad = [
            (row[None, :], "1-D"),
            (row[:-1], "3J"),
            (np.append(row, 0.0), "3J"),
            (np.zeros(3), "3J"),
            (make_row(w=[np.inf], s=[1.0]), "finite"),
            (make_row(a2=np.nan), "finite"),
            (make_row(w=[1.0], s=[-1.0], c=[0.0]), ">= 0"),
        ]
        for evaluate in (eval_u, eval_du, eval_d2u, eval_antiderivative):
            for value, match in bad:
                with pytest.raises(ValueError, match=match):
                    evaluate(value, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("evaluate, name", [
        (eval_u, "x"), (eval_du, "x"), (eval_d2u, "x"),
        (eval_antiderivative, "x"), (eval_antiderivative, "x0"),
    ], ids=["u", "du", "d2u", "antiderivative-x", "antiderivative-x0"])
    def test_points_must_be_finite(self, evaluate, name, bad):
        # eval_u(row, nan) once returned NaN.
        row = make_row(w=[1.0], s=[1.0], c=[0.5])
        for value in (bad, np.array([0.0, bad, 1.0])):
            with pytest.raises(ValueError, match=rf"^{name} contains non-finite entries"):
                evaluate(row, **{"x": 0.5, name: value})

    @pytest.mark.parametrize("evaluate, name", [
        (eval_u, "row"), (eval_u, "x"), (eval_du, "row"), (eval_du, "x"), (eval_d2u, "row"),
        (eval_d2u, "x"), (eval_antiderivative, "row"), (eval_antiderivative, "x"),
        (eval_antiderivative, "x0"),
    ])
    def test_rows_and_points_must_be_real(self, evaluate, name):
        # A complex row or x once lost its imaginary part with a
        # ComplexWarning, and a complex x0 raised a bare TypeError.
        args = {"row": make_row(w=[1.0], s=[1.0], c=[0.5]), "x": 0.5}
        if name == "x0":
            args["x0"] = 0.0
        args[name] = args[name] + 1.0j
        with pytest.raises(ValueError, match=rf"^{name} must be real, got dtype complex128"):
            evaluate(**args)


class TestEvalU:
    def test_pure_quadratic(self):
        row = make_row(a0=1.0, a1=2.0, a2=3.0)
        assert eval_u(row, 1.0) == 6.0
        np.testing.assert_allclose(eval_u(row, np.array([0.0, 2.0])), [1.0, 17.0])

    def test_rbf_center_value(self):
        row = make_row(w=[1.0], s=[300.0], c=[0.4], a0=2.0, a1=1.0)
        assert eval_u(row, 0.4) == pytest.approx(1.0 + 2.0 + 0.4)

    def test_zero_shape_parameter_is_constant_term(self):
        row = make_row(w=[2.5], s=[0.0], c=[0.7])
        np.testing.assert_allclose(eval_u(row, np.linspace(0, 1, 7)), 2.5)


class TestDerivatives:
    def test_pure_quadratic_exact(self):
        row = make_row(a1=2.0, a2=3.0)
        xs = np.array([-1.0, 0.0, 0.5])
        np.testing.assert_array_equal(eval_du(row, xs), 2.0 + 6.0 * xs)
        np.testing.assert_array_equal(eval_d2u(row, xs), np.full(3, 6.0))

    def test_rbf_center_identities(self):
        row = make_row(w=[1.5], s=[80.0], c=[0.3], a1=0.7, a2=2.0)
        assert eval_du(row, 0.3) == pytest.approx(0.7 + 2 * 2.0 * 0.3)
        assert eval_d2u(row, 0.3) == pytest.approx(-2 * 80.0 * 1.5 + 2 * 2.0)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_finite_difference_oracle_over_case_ranges(self, case_id):
        case = case_config(case_id, size=4, seed=60 + case_id)
        lo, hi = case.domain
        xs = np.linspace(lo + 0.02, hi - 0.02, 100)
        h = 1e-5
        for row in sample_params(case.sampling):
            fd1 = (eval_u(row, xs + h) - eval_u(row, xs - h)) / (2 * h)
            fd2 = (eval_u(row, xs + h) - 2 * eval_u(row, xs) + eval_u(row, xs - h)) / h**2
            scale1 = np.max(np.abs(fd1))
            scale2 = np.max(np.abs(fd2))
            assert np.max(np.abs(eval_du(row, xs) - fd1)) / scale1 <= 1e-6
            assert np.max(np.abs(eval_d2u(row, xs) - fd2)) / scale2 <= 1e-6

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_shared_evaluation_equals_evaluators_bitwise(self, case_id):
        # The evaluators run the build kernel; the reference is the
        # per-function numpy expressions, one (points x terms) array each.
        case = case_config(case_id, size=3, seed=65 + case_id)
        grid = case.output_grid()
        rows = [*sample_params(case.sampling), make_row(a0=0.3, a1=-1.0, a2=2.0)]
        for row, p in with_references(rows):
            for xs in (grid, case.domain[1], grid.reshape(4, 25)):
                u, du, d2u = reference_build.u_derivatives(p, xs)
                np.testing.assert_array_equal(u, eval_u(row, xs))
                np.testing.assert_array_equal(du, eval_du(row, xs))
                np.testing.assert_array_equal(d2u, eval_d2u(row, xs))
                np.testing.assert_array_equal(reference_build.eval_u(p, xs), eval_u(row, xs))


class TestAntiderivative:
    def test_constant_integrand(self):
        row = make_row(a0=1.0)
        xs = np.array([0.25, 1.0])
        np.testing.assert_array_equal(eval_antiderivative(row, xs, 0.0), xs)

    def test_zero_at_base_point(self):
        case = case_config(1, size=1, seed=61)
        (row,) = sample_params(case.sampling)
        assert eval_antiderivative(row, 0.37, 0.37) == 0.0

    def test_quadrature_oracle(self):
        case = case_config(1, size=3, seed=62)
        for row in sample_params(case.sampling):
            for x in (0.1, 0.55, 1.0):
                ref, err = quad(
                    lambda t: float(eval_u(row, t)), 0.0, x,
                    epsabs=1e-14, epsrel=1e-13, limit=500,
                )
                assert err < 1e-12
                assert abs(float(eval_antiderivative(row, x, 0.0)) - ref) <= 1e-12

    def test_derivative_of_antiderivative_is_u(self):
        case = case_config(1, size=2, seed=63)
        xs = np.random.default_rng(0).uniform(0.05, 0.95, 100)
        h = 1e-6
        for row in sample_params(case.sampling):
            fd = (eval_antiderivative(row, xs + h, 0.0) - eval_antiderivative(row, xs - h, 0.0)) / (2 * h)
            u = eval_u(row, xs)
            assert np.max(np.abs(fd - u)) / np.max(np.abs(u)) <= 1e-6

    def test_degenerate_shape_limit(self):
        row = make_row(w=[3.0], s=[0.0], c=[0.2])
        # s -> 0 term contributes w * x to the primitive.
        assert eval_antiderivative(row, 0.5, 0.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("x0", [np.array([0.0, 0.1]), np.array([0.0]), [[0.0]]],
                             ids=["two", "one-element", "nested"])
    def test_x0_must_be_a_scalar(self, x0):
        # Two base points once failed with "cannot reshape array of size 3
        # into shape (2,)".
        row = make_row(w=[1.0], s=[1.0], c=[0.5])
        message = re.escape(f"x0 must be a scalar, got shape {np.shape(x0)}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            eval_antiderivative(row, np.array([0.5, 0.6]), x0=x0)

    @pytest.mark.parametrize("s_hi", [500.0, 2 * _DEGENERATE_SHAPE])
    def test_equals_reference_bitwise(self, s_hi):
        cfg = case_config(1, size=3, seed=67).sampling
        cfg = CaseSamplingConfig(**{**vars(cfg), "s_range": (0.0, s_hi)})
        xs = np.linspace(0.0, 1.0, 100)
        for row, p in with_references(sample_params(cfg)):
            for x, x0 in ((xs, 0.0), (xs.reshape(10, 10), 0.25), (0.7, 0.3)):
                np.testing.assert_array_equal(
                    eval_antiderivative(row, x, x0), reference_build.eval_antiderivative(p, x, x0)
                )
