import logging

import numpy as np
import pytest
from scipy.integrate import quad

from randonet import funcgen, problems
from randonet.acceptance import _fd_rhs_reference
from randonet.funcgen import CaseSamplingConfig, eval_d2u, eval_du, eval_u, sample_params
from randonet.odeint import dopri5_batch
from randonet.problems import (
    CASE_IDS,
    ODESolverConfig,
    build_case,
    case_config,
    export_dataset_csv,
)
from test_funcgen import make_params


def reference_rhs(params, k_const):
    """Reference pendulum right-hand side: whole-batch numpy expressions
    that gather (rows x terms) copies of w, s and c on every call. The
    chunked forcing must reproduce it bit for bit."""
    w = np.stack([p.w for p in params])
    s = np.stack([p.s for p in params])
    c = np.stack([p.c for p in params])
    a0 = np.array([p.a0 for p in params])
    a1 = np.array([p.a1 for p in params])
    a2 = np.array([p.a2 for p in params])

    def rhs(t, y, idx):
        dt = t[:, None] - c[idx]
        forcing = np.sum(w[idx] * np.exp(-s[idx] * dt * dt), axis=1)
        forcing += a0[idx] + t * (a1[idx] + a2[idx] * t)
        return np.column_stack([y[:, 1], -k_const * np.sin(y[:, 0]) + forcing])

    return rhs


def reference_pendulum_solve(params, k_const, y_grid, ode):
    values, ok = dopri5_batch(
        reference_rhs(params, k_const),
        (y_grid[0], y_grid[-1]),
        np.zeros((len(params), 2)),
        y_grid,
        rtol=ode.rel_tol,
        atol=ode.abs_tol,
        max_steps=ode.max_steps,
    )
    return values[:, :, 0].T, ok


def pendulum_rhs_of(params, k_const):
    """The right-hand side ``_pendulum_solve`` hands to the integrator."""
    captured = []

    def capture(f, t_span, y0, t_eval, **kwargs):
        captured.append(f)
        return np.zeros((len(y0), len(t_eval), 2)), np.ones(len(y0), dtype=bool)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "dopri5_batch", capture)
        problems._pendulum_solve(params, k_const, np.linspace(0, 1, 5), ODESolverConfig())
    return captured[0]


def rhs_case(case_id, p, y):
    rhs = {3: problems._rhs_case3, 4: problems._rhs_case4, 5: problems._rhs_case5}[case_id]
    return rhs(*funcgen._u_derivatives(p, y), case_config(case_id).constants)


def zero_function_case(case_id, size=1):
    case = case_config(case_id, size=size)
    sampling = CaseSamplingConfig(
        w_range=(0, 0), s_range=(0, 0), c_range=(0, 0), a_range=(0, 0),
        domain=case.domain, size=size, seed=0,
    )
    return problems.CaseStudy(
        id=case.id, m=case.m, n=case.n, sampling=sampling, constants=case.constants
    )


class TestCaseConfig:
    def test_defaults_match_benchmark_setup(self):
        sizes = {1: 1000, 2: 3000, 3: 2000, 4: 2000, 5: 3000}
        domains = {1: (0, 1), 2: (0, 1), 3: (-1, 1), 4: (-1, 1), 5: (-1, 1)}
        for cid in CASE_IDS:
            case = case_config(cid)
            assert case.m == case.n == 100
            assert case.sampling.size == sizes[cid]
            assert case.domain == domains[cid]
            assert case.sampling.n_terms == 200
        assert case_config(2).constants["k"] == 9.81
        assert case_config(3).constants == {"nu": 0.1, "gamma": 0.4, "zeta": -1.0}
        assert case_config(4).constants == {"nu": 0.01}

    def test_grids_equispaced(self):
        case = case_config(3)
        x = case.input_grid()
        assert x.size == 100
        np.testing.assert_allclose(np.diff(x), x[1] - x[0])

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="case id"):
            case_config(6)


class TestCase1:
    def test_zero_function_gives_zero_column(self):
        ds = build_case(zero_function_case(1))
        np.testing.assert_array_equal(ds.V, np.zeros_like(ds.V))

    def test_constant_one_integrates_to_t(self):
        p = make_params(a0=1.0)
        y = case_config(1).output_grid()
        np.testing.assert_array_equal(funcgen.eval_antiderivative(p, y, 0.0), y)

    def test_columns_match_quadrature_oracle(self):
        case = case_config(1, size=3, seed=70)
        ds, params = build_case(case, with_params=True)
        for j, p in enumerate(params):
            for i in (1, 37, 99):
                ref, _ = quad(
                    lambda t: float(eval_u(p, t)), 0.0, ds.y[i],
                    epsabs=1e-14, epsrel=1e-13, limit=500,
                )
                assert abs(ds.V[i, j] - ref) <= 1e-12

    def test_operator_linearity_in_parameters(self):
        case = case_config(1, size=2, seed=71)
        params = sample_params(case.sampling)
        p1, p2 = params
        combined = funcgen.RandomFunctionParams(
            w=p1.w + p2.w, s=p1.s, c=p1.c,
            a0=p1.a0 + p2.a0, a1=p1.a1 + p2.a1, a2=p1.a2 + p2.a2,
        )
        y = case.output_grid()
        # u is linear in (w, a) at shared (s, c), so outputs add.
        p2_shared = funcgen.RandomFunctionParams(
            w=p2.w, s=p1.s, c=p1.c, a0=p2.a0, a1=p2.a1, a2=p2.a2
        )
        v_sum = funcgen.eval_antiderivative(p1, y, 0.0) + funcgen.eval_antiderivative(p2_shared, y, 0.0)
        v_combined = funcgen.eval_antiderivative(combined, y, 0.0)
        np.testing.assert_allclose(v_combined, v_sum, atol=1e-10)


class TestCase2:
    def test_zero_forcing_equilibrium(self):
        ds = build_case(zero_function_case(2))
        np.testing.assert_array_equal(ds.V, np.zeros_like(ds.V))

    def test_small_build_is_finite_and_deterministic(self):
        case = case_config(2, size=6, seed=72)
        a = build_case(case)
        b = build_case(case)
        assert np.all(np.isfinite(a.V))
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.U, b.U)

    def test_halving_tolerances_changes_little(self):
        case = case_config(2, size=10, seed=73)
        coarse = build_case(case, ode=ODESolverConfig(abs_tol=1e-12, rel_tol=1e-10))
        fine = build_case(case, ode=ODESolverConfig(abs_tol=5e-13, rel_tol=5e-11))
        assert np.max(np.abs(coarse.V - fine.V)) < 1e-9

    def test_failed_samples_are_resampled_and_logged(self, monkeypatch, caplog):
        case = case_config(2, size=4, seed=74)
        original = problems._pendulum_solve
        calls = {"n": 0}

        def flaky(params, k_const, y_grid, ode):
            v, ok = original(params, k_const, y_grid, ode)
            if calls["n"] == 0:
                ok = ok.copy()
                ok[1] = False
            calls["n"] += 1
            return v, ok

        monkeypatch.setattr(problems, "_pendulum_solve", flaky)
        with caplog.at_level(logging.WARNING, logger="randonet.problems"):
            ds, params = problems._case2_full(case, ODESolverConfig())
        assert "resampling" in caplog.text
        assert np.all(np.isfinite(ds.V))
        # Replacement came from the reserved stream indices past size.
        expected = sample_params(case.sampling, start_index=case.sampling.size)[0]
        np.testing.assert_array_equal(params[1].w, expected.w)

    def test_build_equals_reference_forcing_bitwise(self, monkeypatch):
        case = case_config(2, size=6, seed=72)
        fast = build_case(case)
        monkeypatch.setattr(problems, "_pendulum_solve", reference_pendulum_solve)
        reference = build_case(case)
        np.testing.assert_array_equal(fast.U, reference.U)
        np.testing.assert_array_equal(fast.V, reference.V)

    def test_unrecoverable_failure_raises(self):
        case = case_config(2, size=2, seed=75)
        with pytest.raises(RuntimeError, match="failed"):
            build_case(case, ode=ODESolverConfig(max_steps=3))


CHUNK = problems._FORCING_CHUNK


class TestPendulumForcing:
    batch = 2 * CHUNK + 44

    @pytest.fixture(scope="class")
    def params(self):
        return sample_params(case_config(2, size=self.batch, seed=81).sampling)

    @pytest.mark.parametrize("rows", [
        "full", "prefix", "scattered", "single", "chunk-1", "chunk", "chunk+1",
    ])
    def test_equals_reference_bitwise(self, params, rows):
        rng = np.random.default_rng(82)
        sizes = {"chunk-1": CHUNK - 1, "chunk": CHUNK, "chunk+1": CHUNK + 1}
        if rows == "full":
            idx = np.arange(self.batch)
        elif rows == "prefix":
            idx = np.arange(self.batch - 3)
        elif rows == "scattered":
            idx = np.flatnonzero(rng.random(self.batch) < 0.6)
        elif rows == "single":
            idx = np.array([self.batch - 1])
        else:
            idx = np.sort(rng.choice(self.batch, sizes[rows], replace=False))
        t = rng.uniform(0.0, 1.0, idx.size)
        y = rng.standard_normal((idx.size, 2))
        k_const = case_config(2).constants["k"]
        fast = pendulum_rhs_of(params, k_const)
        # A call at other times between two at t, so that the second one
        # evaluates again over stale scratch contents instead of reusing.
        t_other = rng.uniform(0.0, 1.0, idx.size)
        for times in (t, t_other, t):
            got = fast(times, y, idx)
            np.testing.assert_array_equal(got, reference_rhs(params, k_const)(times, y, idx))

    def test_repeated_call_evaluates_no_gaussian_rows(self, params, monkeypatch):
        evaluated = []
        kernel = problems._gaussian_sums

        def counting(t, *args):
            evaluated.append(t.size)
            return kernel(t, *args)

        monkeypatch.setattr(problems, "_gaussian_sums", counting)
        rng = np.random.default_rng(84)
        idx = np.flatnonzero(rng.random(self.batch) < 0.7)
        t = rng.uniform(0.0, 1.0, idx.size)
        y, y_next = rng.standard_normal((2, idx.size, 2))
        k_const = case_config(2).constants["k"]
        fast = pendulum_rhs_of(params, k_const)
        reference = reference_rhs(params, k_const)
        fast(t, y, idx)
        # Equal samples and times in new arrays, at other states.
        got = fast(t.copy(), y_next, idx.copy())
        assert evaluated == [idx.size]
        np.testing.assert_array_equal(got, reference(t, y_next, idx))
        # One time one ulp away: the whole call evaluates again.
        t_moved = t.copy()
        t_moved[-1] = np.nextafter(t_moved[-1], 2.0)
        got = fast(t_moved, y, idx)
        assert evaluated == [idx.size, idx.size]
        np.testing.assert_array_equal(got, reference(t_moved, y, idx))

    def test_shrinking_scattered_subsets_equal_reference_bitwise(self, params):
        # Each call keeps a scattered subset of the last one, so the kept
        # parameter rows move down past chunk boundaries.
        rng = np.random.default_rng(85)
        k_const = case_config(2).constants["k"]
        fast = pendulum_rhs_of(params, k_const)
        reference = reference_rhs(params, k_const)
        idx = np.arange(self.batch)
        for size in (2 * CHUNK + 1, CHUNK + 1, CHUNK, CHUNK - 1, 3, 1):
            idx = np.sort(rng.choice(idx, size, replace=False))
            for _ in range(2):
                t = rng.uniform(0.0, 1.0, size)
                y = rng.standard_normal((size, 2))
                np.testing.assert_array_equal(fast(t, y, idx), reference(t, y, idx))

    @pytest.mark.parametrize("idx", [[0, 1], [4, 2], [2, 2]], ids=["dropped", "unordered", "repeated"])
    def test_rows_outside_the_active_set_raise(self, params, idx):
        fast = pendulum_rhs_of(params, case_config(2).constants["k"])
        kept = np.arange(0, self.batch, 2)
        fast(np.full(kept.size, 0.5), np.zeros((kept.size, 2)), kept)
        idx = np.array(idx)
        with pytest.raises(ValueError, match="never grows"):
            fast(np.full(idx.size, 0.25), np.zeros((idx.size, 2)), idx)


class TestRhsCases:
    def test_constant_profile_identities(self):
        kappa = 0.3
        p = make_params(a0=kappa)
        y = np.linspace(-1, 1, 11)
        c3 = case_config(3).constants
        np.testing.assert_allclose(rhs_case(3, p, y), c3["zeta"] * kappa, atol=1e-15)
        np.testing.assert_allclose(rhs_case(4, p, y), 0.0, atol=1e-15)
        np.testing.assert_allclose(rhs_case(5, p, y), kappa - kappa**3, atol=1e-15)

    def test_linear_profile_burgers(self):
        p = make_params(a1=1.0)
        y = np.linspace(-1, 1, 21)
        np.testing.assert_array_equal(rhs_case(4, p, y), -y)

    @pytest.mark.parametrize("case_id", [3, 4, 5])
    def test_finite_difference_oracle(self, case_id):
        case = case_config(case_id, size=3, seed=76)
        ds = build_case(case)
        params = sample_params(case.sampling)
        for j, p in enumerate(params):
            ref = _fd_rhs_reference(case, p)
            scale = max(np.max(np.abs(ref)), 1e-30)
            assert np.max(np.abs(ds.V[:, j] - ref)) / scale <= 1e-5

    def test_case3_linearity(self):
        case = case_config(3, size=2, seed=77)
        p1, p2 = sample_params(case.sampling)
        p2_shared = funcgen.RandomFunctionParams(
            w=p2.w, s=p1.s, c=p1.c, a0=p2.a0, a1=p2.a1, a2=p2.a2
        )
        combined = funcgen.RandomFunctionParams(
            w=p1.w + p2.w, s=p1.s, c=p1.c,
            a0=p1.a0 + p2.a0, a1=p1.a1 + p2.a1, a2=p1.a2 + p2.a2,
        )
        y = case.output_grid()
        v = rhs_case(3, combined, y)
        v_sum = rhs_case(3, p1, y) + rhs_case(3, p2_shared, y)
        np.testing.assert_allclose(v, v_sum, atol=1e-10)

    def test_sensor_grid_apart_from_output_grid(self):
        case = case_config(4, size=3, seed=83)
        coarse = problems.CaseStudy(
            id=4, m=37, n=case.n, sampling=case.sampling, constants=case.constants
        )
        ds = build_case(coarse)
        params = sample_params(case.sampling)
        np.testing.assert_array_equal(
            ds.U, np.column_stack([eval_u(p, coarse.input_grid()) for p in params])
        )
        np.testing.assert_array_equal(ds.V, build_case(case).V)

    def test_case3_amplitude_bound(self):
        case = case_config(3, size=4, seed=78)
        ds = build_case(case)
        params = sample_params(case.sampling)
        fine = np.linspace(-1, 1, 4001)
        c3 = case.constants
        for j, p in enumerate(params):
            bound = (
                c3["nu"] * np.max(np.abs(eval_d2u(p, fine)))
                + c3["gamma"] * np.max(np.abs(eval_du(p, fine)))
                + abs(c3["zeta"]) * np.max(np.abs(eval_u(p, fine)))
            )
            assert np.max(np.abs(ds.V[:, j])) <= bound * (1 + 1e-12)


class TestExport:
    def test_dataset_csv_roundtrip(self, tmp_path):
        case = case_config(3, size=2, seed=79)
        ds, params = build_case(case, with_params=True)
        path = tmp_path / "ds.csv"
        export_dataset_csv(path, case, ds, params)
        lines = path.read_text().splitlines()
        assert lines[0] == "# randonet-dataset v1"
        assert lines[1].startswith("# case=3 seed=79 size=2")
        header = lines[5].split(",")
        n_terms = case.sampling.n_terms
        assert header[0] == "w_0" and header[3 * n_terms] == "a0"
        assert len(header) == 3 * n_terms + 3 + case.m + case.n
        row = np.array([float(v) for v in lines[6].split(",")])
        np.testing.assert_allclose(row[:n_terms], params[0].w, rtol=1e-15)
        np.testing.assert_allclose(row[-case.n:], ds.V[:, 0], rtol=1e-15)
        np.testing.assert_allclose(
            row[3 * n_terms + 3: 3 * n_terms + 3 + case.m], ds.U[:, 0], rtol=1e-15
        )


def test_build_case_dispatcher():
    for cid in (1, 3):
        ds = build_case(case_config(cid, size=2, seed=80))
        assert ds.U.shape == (100, 2)
    ds, params = build_case(case_config(4, size=2, seed=80), with_params=True)
    assert len(params) == 2
