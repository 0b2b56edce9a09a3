import functools
import hashlib
import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import randonet
import reference_build
from randonet import funcgen, odeint, problems
from randonet.acceptance import _fd_rhs_reference
from randonet.funcgen import (
    CaseSamplingConfig,
    _blocks,
    _param_names,
    eval_d2u,
    eval_du,
    eval_u,
    sample_params,
)
from randonet.problems import (
    CASE_IDS,
    build_case,
    case_config,
    export_dataset_csv,
)
from test_funcgen import make_row


def reference_pendulum_solve(table, k_const, y_grid):
    """``_pendulum_solve`` through the list-based reference forcing."""
    params = reference_build.as_params(table)
    return reference_build.reference_pendulum_solve(params, k_const, y_grid)


def fail_once(solve, samples=(1,)):
    """``solve`` that reports ``samples`` as failed on its first call."""
    calls = {"n": 0}

    def flaky(params, k_const, y_grid):
        v, ok = solve(params, k_const, y_grid)
        if calls["n"] == 0:
            ok = ok.copy()
            ok[list(samples)] = False
        calls["n"] += 1
        return v, ok

    return flaky


def pendulum_rhs_of(params, k_const):
    """The right-hand side ``_pendulum_solve`` hands to the integrator, as
    ``rhs(t, y, idx)``: it gets rows ``idx`` of the per-sample args."""
    captured = []

    def capture(f, t_span, y0, t_eval, args):
        captured.append((f, args))
        return np.zeros((len(y0), len(t_eval), 2)), np.ones(len(y0), dtype=bool)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "dopri5_batch", capture)
        problems._pendulum_solve(params, k_const, np.linspace(0, 1, 5))
    f, args = captured[0]
    return lambda t, y, idx: f(t, y, *(a[idx] for a in args))


def reference_rhs(table, k_const):
    return reference_build.reference_rhs(reference_build.as_params(table), k_const)


def rhs_case(case_id, row, y):
    rhs = problems._RHS[case_id]
    derivatives = (eval_u(row, y), eval_du(row, y), eval_d2u(row, y))
    return rhs(*derivatives, case_config(case_id).constants)


def with_shape_of(row, other):
    """A copy of ``row`` with the s and c blocks of ``other``."""
    out = row.copy()
    for mine, theirs in zip(_blocks(out)[1:3], _blocks(other)[1:3]):
        mine[...] = theirs
    return out


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
        row = make_row(a0=1.0)
        y = case_config(1).output_grid()
        np.testing.assert_array_equal(funcgen.eval_antiderivative(row, y, 0.0), y)

    def test_columns_match_quadrature_oracle(self):
        case = case_config(1, size=3, seed=70)
        ds, table = build_case(case, with_params=True)
        for j, row in enumerate(table):
            for i in (1, 37, 99):
                ref, _ = quad(
                    lambda t: float(eval_u(row, t)), 0.0, ds.y[i],
                    epsabs=1e-14, epsrel=1e-13, limit=500,
                )
                assert abs(ds.V[i, j] - ref) <= 1e-12

    def test_operator_linearity_in_parameters(self):
        case = case_config(1, size=2, seed=71)
        p1, p2 = sample_params(case.sampling)
        y = case.output_grid()
        # u is linear in (w, a) at shared (s, c), so outputs add.
        p2_shared = with_shape_of(p2, p1)
        combined = with_shape_of(p1 + p2_shared, p1)
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

    def test_halving_tolerances_changes_little(self, monkeypatch):
        case = case_config(2, size=10, seed=73)
        solve = functools.partial(odeint.dopri5_batch, atol=1e-12, rtol=1e-10)
        monkeypatch.setattr(problems, "dopri5_batch", solve)
        coarse = build_case(case)
        solve = functools.partial(odeint.dopri5_batch, atol=5e-13, rtol=5e-11)
        monkeypatch.setattr(problems, "dopri5_batch", solve)
        fine = build_case(case)
        assert np.max(np.abs(coarse.V - fine.V)) < 1e-9

    def test_failed_samples_are_resampled_and_logged(self, monkeypatch, caplog):
        case = case_config(2, size=4, seed=74)
        monkeypatch.setattr(problems, "_pendulum_solve", fail_once(problems._pendulum_solve))
        with caplog.at_level(logging.WARNING, logger="randonet.problems"):
            ds, table = build_case(case, with_params=True)
        assert "resampling" in caplog.text
        assert np.all(np.isfinite(ds.V))
        # Replacement came from the reserved stream indices past size.
        expected = sample_params(case.sampling, start_index=case.sampling.size)[0]
        np.testing.assert_array_equal(table[1], expected)

    def test_build_equals_reference_forcing_bitwise(self, monkeypatch):
        case = case_config(2, size=6, seed=72)
        fast = build_case(case)
        monkeypatch.setattr(problems, "_pendulum_solve", reference_pendulum_solve)
        reference = build_case(case)
        np.testing.assert_array_equal(fast.U, reference.U)
        np.testing.assert_array_equal(fast.V, reference.V)

    def test_unrecoverable_failure_raises(self, monkeypatch):
        case = case_config(2, size=2, seed=75)
        monkeypatch.setattr(
            problems, "dopri5_batch", functools.partial(odeint.dopri5_batch, max_steps=3)
        )
        with pytest.raises(RuntimeError, match="failed"):
            build_case(case)


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
        # Each call hands a scattered subset of the last one's rows, of
        # sizes around the chunk boundaries.
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


class TestRhsCases:
    def test_constant_profile_identities(self):
        kappa = 0.3
        row = make_row(a0=kappa)
        y = np.linspace(-1, 1, 11)
        c3 = case_config(3).constants
        np.testing.assert_allclose(rhs_case(3, row, y), c3["zeta"] * kappa, atol=1e-15)
        np.testing.assert_allclose(rhs_case(4, row, y), 0.0, atol=1e-15)
        np.testing.assert_allclose(rhs_case(5, row, y), kappa - kappa**3, atol=1e-15)

    def test_linear_profile_burgers(self):
        row = make_row(a1=1.0)
        y = np.linspace(-1, 1, 21)
        np.testing.assert_array_equal(rhs_case(4, row, y), -y)

    @pytest.mark.parametrize("case_id", [3, 4, 5])
    def test_finite_difference_oracle(self, case_id):
        case = case_config(case_id, size=3, seed=76)
        ds = build_case(case)
        for j, row in enumerate(sample_params(case.sampling)):
            expected = _fd_rhs_reference(case, row)
            scale = max(np.max(np.abs(expected)), 1e-30)
            assert np.max(np.abs(ds.V[:, j] - expected)) / scale <= 1e-5

    def test_case3_linearity(self):
        case = case_config(3, size=2, seed=77)
        p1, p2 = sample_params(case.sampling)
        p2_shared = with_shape_of(p2, p1)
        combined = with_shape_of(p1 + p2_shared, p1)
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
        np.testing.assert_array_equal(
            ds.U,
            np.column_stack(
                [eval_u(row, coarse.input_grid()) for row in sample_params(case.sampling)]
            ),
        )
        np.testing.assert_array_equal(ds.V, build_case(case).V)

    def test_case3_amplitude_bound(self):
        case = case_config(3, size=4, seed=78)
        ds = build_case(case)
        fine = np.linspace(-1, 1, 4001)
        c3 = case.constants
        for j, row in enumerate(sample_params(case.sampling)):
            bound = (
                c3["nu"] * np.max(np.abs(eval_d2u(row, fine)))
                + c3["gamma"] * np.max(np.abs(eval_du(row, fine)))
                + abs(c3["zeta"]) * np.max(np.abs(eval_u(row, fine)))
            )
            assert np.max(np.abs(ds.V[:, j])) <= bound * (1 + 1e-12)


def assert_build_equals_reference(case, solve=None):
    """``build_case`` against the per-function path, bit for bit."""
    got, table = build_case(case, with_params=True)
    kwargs = {} if solve is None else {"solve": solve}
    expected, expected_table = reference_build.build(case, **kwargs)
    for name in ("x", "y", "U", "V"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name), err_msg=name)
    np.testing.assert_array_equal(table, expected_table)
    assert got.V.flags.c_contiguous


class TestBuildEqualsReference:
    @pytest.mark.parametrize("seed", [5, 12])
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_benchmark_grids(self, case_id, seed):
        size = 3 if case_id == 2 else 7
        assert_build_equals_reference(case_config(case_id, size=size, seed=seed))

    @pytest.mark.parametrize("case_id", [1, 2, 4])
    def test_sensor_grid_apart_from_output_grid(self, case_id):
        case = case_config(case_id, size=3, seed=86)
        assert_build_equals_reference(replace(case, m=37))

    def test_case1_degenerate_shapes(self):
        # A quarter of the terms fall below the cutoff and take the
        # limiting slope; the rest keep the erf form at tiny s.
        case = case_config(1, size=4, seed=87)
        shapes = (0.0, 4 * funcgen._DEGENERATE_SHAPE)
        case = replace(case, sampling=replace(case.sampling, s_range=shapes))
        s = sample_params(case.sampling)[:, 200:400]
        assert 0 < np.count_nonzero(s < funcgen._DEGENERATE_SHAPE) < s.size
        assert_build_equals_reference(case)

    def test_case2_replacement_draws(self, monkeypatch):
        case = case_config(2, size=4, seed=88)
        solve = fail_once(reference_build.reference_pendulum_solve, samples=(1, 3))
        monkeypatch.setattr(
            problems, "_pendulum_solve", fail_once(problems._pendulum_solve, samples=(1, 3))
        )
        assert_build_equals_reference(case, solve=solve)


def digests(ds, table):
    """SHA-256 of a build's x, y, U, V and parameter table."""
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in (ds.x, ds.y, ds.U, ds.V, table)]


def fail_rows(solve, bad):
    """``solve`` that reports the rows equal to a row of ``bad`` as failed.

    It picks the rows by their values, so it fails the same functions in
    every process and block that solves them (a call counter, as in
    :func:`fail_once`, would count per process).
    """

    def flaky(params, k_const, y_grid):
        v, ok = solve(params, k_const, y_grid)
        return v, ok & ~(params[:, None, :] == bad).all(axis=-1).any(axis=-1)

    return flaky


def build_digests(case):
    return digests(*build_case(case, with_params=True))


class TestRowBlocks:
    @pytest.fixture
    def split_into(self, monkeypatch):
        """``split_into(k)`` makes builds see k usable CPUs, and split down to one row."""

        def force(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(problems, "_MIN_BLOCK_ROWS", 1)

        return force

    @pytest.mark.parametrize("m", [100, 37])
    @pytest.mark.parametrize("blocks, sizes", [(2, "3/4"), (3, "2/2/3")])
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_split_build_equals_one_block_bitwise(self, case_id, blocks, sizes, m, split_into,
                                                  caplog):
        case = replace(case_config(case_id, size=7, seed=90), m=m)
        split_into(1)
        whole, whole_table = build_case(case, with_params=True)
        split_into(blocks)
        with caplog.at_level(logging.DEBUG, logger="randonet.problems"):
            got, table = build_case(case, with_params=True)
        assert digests(got, table) == digests(whole, whole_table)
        assert (got.U.strides, got.V.strides) == (whole.U.strides, whole.V.strides)
        splits = [r.getMessage() for r in caplog.records if "blocks" in r.getMessage()]
        assert len(splits) == 1 and f"7 rows in {blocks} blocks of {sizes} rows" in splits[0]
        assert all(r.startswith(f"case {case_id}") for r in splits)
        assert multiprocessing.active_children() == []

    def test_case2_replacement_of_a_sample_in_a_worker_block(self, split_into, monkeypatch,
                                                            caplog):
        case = case_config(2, size=7, seed=91)
        table = sample_params(case.sampling)
        # Blocks 0-2 and 3-6: row 1 fails in this process, row 5 in the worker.
        monkeypatch.setattr(problems, "_pendulum_solve",
                            fail_rows(problems._pendulum_solve, table[[1, 5]]))
        split_into(1)
        whole = digests(*build_case(case, with_params=True))
        split_into(2)
        with caplog.at_level(logging.WARNING, logger="randonet.problems"):
            ds, got_table = build_case(case, with_params=True)
        assert "did not converge for 2 sample(s)" in caplog.text
        assert digests(ds, got_table) == whole
        replacements = sample_params(replace(case.sampling, size=2), start_index=7)
        np.testing.assert_array_equal(got_table[[1, 5]], replacements)

    def test_worker_exception_surfaces_with_its_type_and_message(self, split_into, monkeypatch):
        parent, solve = os.getpid(), problems._pendulum_solve

        def fails_in_worker(params, k_const, y_grid):
            if os.getpid() != parent:
                raise KeyError(f"no forcing for {len(params)} rows")
            return solve(params, k_const, y_grid)

        monkeypatch.setattr(problems, "_pendulum_solve", fails_in_worker)
        split_into(3)
        with pytest.raises(KeyError) as info:
            build_case(case_config(2, size=7, seed=92))
        # Blocks of 2, 2 and 3 rows: the first worker's block has 2.
        assert info.type is KeyError and str(info.value) == "'no forcing for 2 rows'"
        assert multiprocessing.active_children() == []

    def test_dead_worker_and_failing_parent_leave_no_process(self, split_into, monkeypatch):
        parent, solve = os.getpid(), problems._pendulum_solve

        def dies_in_worker(params, k_const, y_grid):
            if os.getpid() != parent:
                os._exit(3)
            return solve(params, k_const, y_grid)

        monkeypatch.setattr(problems, "_pendulum_solve", dies_in_worker)
        split_into(2)
        with pytest.raises(RuntimeError, match="case 2: a worker exited with code 3"):
            build_case(case_config(2, size=7, seed=92))
        assert multiprocessing.active_children() == []

        def fails_in_parent(params, k_const, y_grid):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("parent block failed")

        monkeypatch.setattr(problems, "_pendulum_solve", fails_in_parent)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="parent block failed"):
            build_case(case_config(2, size=7, seed=92))
        # The sleeping worker was terminated, not waited for.
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_starts_no_process(self, split_into, monkeypatch):
        def no_context(method=None):
            raise AssertionError("a process was started")

        split_into(1)
        monkeypatch.setattr(multiprocessing, "get_context", no_context)
        for case_id in CASE_IDS:
            build_case(case_config(case_id, size=7, seed=93))

    def test_build_in_a_daemonic_process_stays_in_it(self, split_into):
        # A pool worker is daemonic and may not start processes of its own.
        case = case_config(4, size=7, seed=95)
        split_into(1)
        whole = build_digests(case)
        split_into(2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(build_digests, (case,)) == whole

    def test_fork_under_threaded_blas(self):
        # The workers fork a process whose OpenBLAS pool is running; they
        # must not hang and, calling no BLAS, must give the one-thread bits.
        script = textwrap.dedent("""
            import os, sys
            import numpy as np
            from randonet import harness, problems
            np.ones((256, 256)) @ np.ones((256, 256))
            if os.path.isdir("/proc/self/task"):
                assert len(os.listdir("/proc/self/task")) > 1 or sys.argv[1] == "1"
            os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
            problems._MIN_BLOCK_ROWS = 8
            print(harness._dataset_fingerprint(problems.build_case(
                problems.case_config(2, size=40, seed=94))))
        """)
        src = str(Path(randonet.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        prints = []
        for threads in ("2", "1"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", script, threads], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            prints.append(proc.stdout.strip())
        assert prints[0] == prints[1] and len(prints[0]) == 32


class TestExport:
    def test_dataset_csv_roundtrip(self, tmp_path):
        case = case_config(3, size=2, seed=79)
        ds, table = build_case(case, with_params=True)
        path = tmp_path / "ds.csv"
        export_dataset_csv(path, case, ds, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "# randonet-dataset v1"
        assert lines[1].startswith("# case=3 seed=79 size=2")
        # The parameter columns are funcgen's names of a row's values.
        names = _param_names(case.sampling.n_terms)
        assert names[:2] == ["w_0", "w_1"] and names[-4:] == ["c_199", "a0", "a1", "a2"]
        assert lines[5].split(",") == (
            names + [f"u_{j}" for j in range(case.m)] + [f"v_{j}" for j in range(case.n)]
        )
        row = np.array([float(v) for v in lines[6].split(",")])
        p = len(names)
        np.testing.assert_allclose(row[:p], table[0], rtol=1e-15)
        np.testing.assert_allclose(row[p:p + case.m], ds.U[:, 0], rtol=1e-15)
        np.testing.assert_allclose(row[-case.n:], ds.V[:, 0], rtol=1e-15)

    def test_rows_parse_back_bitwise(self, tmp_path):
        case = case_config(1, size=2, seed=89)
        ds, table = build_case(case, with_params=True)
        path = tmp_path / "ds.csv"
        export_dataset_csv(path, case, ds, table)
        lines = path.read_text().splitlines()[6:]
        assert len(lines) == 2
        for i, line in enumerate(lines):
            row = np.array([float(v) for v in line.split(",")])
            np.testing.assert_array_equal(row, np.concatenate([table[i], ds.U[:, i], ds.V[:, i]]))


def test_build_case_dispatcher():
    for cid in (1, 3):
        ds = build_case(case_config(cid, size=2, seed=80))
        assert ds.U.shape == (100, 2)
    ds, table = build_case(case_config(4, size=2, seed=80), with_params=True)
    assert table.shape == (2, 3 * 200 + 3)
