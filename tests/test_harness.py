import csv
import json
import logging
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randonet import harness, model
from randonet.harness import (
    BenchmarkReport,
    ExperimentConfig,
    dataset_for,
    l2_percentiles,
    mse,
    run_experiment,
    split,
    write_report_csv,
    write_report_json,
)
from randonet.model import AlignedDataset
from randonet.problems import ODESolverConfig, case_config

GOLDEN_SWEEP = Path(__file__).parent / "data" / "golden_sweep.csv"


def tiny_cfg(**overrides):
    base = dict(
        case=1, branch="jl", branch_sizes=(8,), train_fraction=0.8,
        seed_data=50, seed_embed=51, seed_split=52, dataset_size=40,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def toy_dataset(s=10, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 1, 6)
    return AlignedDataset(x=x, y=x, U=rng.standard_normal((6, s)), V=rng.standard_normal((6, s)))


class TestSplit:
    def test_sizes(self):
        train, test = split(toy_dataset(s=10), 0.8, 0)
        assert train.n_functions == 8 and test.n_functions == 2

    def test_deterministic(self):
        ds = toy_dataset(s=20)
        a_train, a_test = split(ds, 0.4, 7)
        b_train, b_test = split(ds, 0.4, 7)
        np.testing.assert_array_equal(a_train.U, b_train.U)
        np.testing.assert_array_equal(a_test.V, b_test.V)

    def test_partition_property(self):
        ds = toy_dataset(s=13)
        train, test = split(ds, 0.6, 3)
        merged = np.concatenate([train.U.T, test.U.T])
        original = {tuple(col) for col in ds.U.T}
        assert {tuple(row) for row in merged} == original
        assert train.n_functions + test.n_functions == 13

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split(toy_dataset(s=10), 0.01, 0)
        with pytest.raises(ValueError, match="fraction"):
            split(toy_dataset(s=10), 1.2, 0)


class TestMetrics:
    def test_mse_trivial_cases(self):
        a = np.random.default_rng(1).standard_normal((5, 4))
        assert mse(a, a) == 0.0
        assert mse(a + 2.0, a) == pytest.approx(4.0)

    def test_mse_against_double_loop(self):
        rng = np.random.default_rng(2)
        pred = rng.standard_normal((7, 9))
        truth = rng.standard_normal((7, 9))
        acc = 0.0
        for i in range(7):
            for j in range(9):
                acc += (pred[i, j] - truth[i, j]) ** 2
        ref = acc / 63
        assert mse(pred, truth) == pytest.approx(ref, rel=1e-15)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_l2_percentiles_trivial(self):
        a = np.random.default_rng(3).standard_normal((6, 5))
        assert l2_percentiles(a, a) == (0.0, 0.0, 0.0)
        single = np.zeros((4, 1))
        err = np.array([[3.0], [0.0], [4.0], [0.0]])
        assert l2_percentiles(single + err, single) == (5.0, 5.0, 5.0)

    def test_l2_percentiles_closed_form_ranks(self):
        # Columns with error norms exactly 1..100: linear interpolation of
        # order statistics gives 5% -> 5.95, median -> 50.5, 95% -> 95.05.
        norms = np.arange(1.0, 101.0)
        pred = np.zeros((1, 100)) + norms[None, :]
        truth = np.zeros((1, 100))
        p5, med, p95 = l2_percentiles(pred, truth)
        assert med == pytest.approx(50.5)
        assert p5 == pytest.approx(5.95)
        assert p95 == pytest.approx(95.05)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_percentiles_ordered(self, n, s, seed):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((n, s))
        truth = rng.standard_normal((n, s))
        p5, med, p95 = l2_percentiles(pred, truth)
        assert 0.0 <= p5 <= med <= p95


class TestRunExperiment:
    def test_report_shape_for_sweep_list(self, cache_dir):
        report = run_experiment(tiny_cfg(branch_sizes=(4, 8), cache_dir=cache_dir))
        assert len(report.rows) == 2
        assert [row.m_branch for row in report.rows] == [4, 8]
        for row in report.rows:
            assert np.isfinite(row.mse) and row.mse >= 0
            assert row.l2_p5 <= row.l2_median <= row.l2_p95
        assert report.config["case"] == 1
        assert len(report.dataset_fingerprint) == 32

    def test_bitwise_determinism(self, cache_dir):
        cfg = tiny_cfg(cache_dir=cache_dir)
        r1 = run_experiment(cfg).rows[0]
        r2 = run_experiment(cfg).rows[0]
        assert r1.mse == r2.mse
        assert (r1.l2_p5, r1.l2_median, r1.l2_p95) == (r2.l2_p5, r2.l2_median, r2.l2_p95)

    def test_train_time_excludes_dataset_and_metrics(self, monkeypatch, cache_dir):
        cfg = tiny_cfg(cache_dir=cache_dir)
        real_factorize = model.linalg.inplace_cod_factorize

        def slow_dataset(case, cache=None):
            time.sleep(0.2)
            return dataset_for(case, cache)

        def slow_metrics(pred, truth):
            time.sleep(0.2)
            return mse(pred, truth)

        monkeypatch.setattr(harness, "dataset_for", slow_dataset)
        monkeypatch.setattr(harness, "mse", slow_metrics)
        fast_report = run_experiment(cfg)
        assert fast_report.rows[0].train_seconds < 0.2

        # The reported time is the one training records, so the delay goes
        # inside its timed region.
        def slow_factorize(*args, **kwargs):
            time.sleep(0.25)
            return real_factorize(*args, **kwargs)

        monkeypatch.setattr(model.linalg, "inplace_cod_factorize", slow_factorize)
        slow_report = run_experiment(cfg)
        assert slow_report.rows[0].train_seconds >= 0.25

    def test_dataset_disk_cache_roundtrip(self, tmp_path):
        case = case_config(1, size=12, seed=53)
        ds1 = dataset_for(case, str(tmp_path))
        files = list(tmp_path.glob("dataset-*.npz"))
        assert len(files) == 1
        harness.clear_dataset_cache()
        ds2 = dataset_for(case, str(tmp_path))
        np.testing.assert_array_equal(ds1.U, ds2.U)
        np.testing.assert_array_equal(ds1.V, ds2.V)

    def test_validation(self):
        with pytest.raises(ValueError, match="branch"):
            ExperimentConfig(case=1, branch="mlp")
        with pytest.raises(ValueError, match="train_fraction"):
            ExperimentConfig(case=1, train_fraction=1.5)
        with pytest.raises(ValueError, match="branch_sizes"):
            ExperimentConfig(case=1, branch_sizes=())


class TestDatasetCache:
    case = case_config(1, size=12, seed=54)

    def cached_file(self, tmp_path):
        harness.clear_dataset_cache()
        ds = dataset_for(self.case, str(tmp_path))
        harness.clear_dataset_cache()
        (path,) = tmp_path.glob("dataset-*.npz")
        return ds, path

    def assert_rebuilt(self, tmp_path, ds, caplog):
        with caplog.at_level(logging.WARNING, logger="randonet.harness"):
            again = dataset_for(self.case, str(tmp_path))
        assert "rebuilding" in caplog.text
        np.testing.assert_array_equal(again.U, ds.U)
        np.testing.assert_array_equal(again.V, ds.V)
        # The rebuilt entry replaced the bad file and now loads cleanly.
        harness.clear_dataset_cache()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="randonet.harness"):
            dataset_for(self.case, str(tmp_path))
        assert caplog.text == ""

    def test_truncated_file_is_rebuilt(self, tmp_path, caplog):
        ds, path = self.cached_file(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        self.assert_rebuilt(tmp_path, ds, caplog)

    def test_tampered_file_is_rebuilt(self, tmp_path, caplog):
        ds, path = self.cached_file(tmp_path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["V"] = arrays["V"] + 1.0
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        self.assert_rebuilt(tmp_path, ds, caplog)

    def test_key_covers_ode_config_and_generator_version(self, monkeypatch):
        key = harness._dataset_key(self.case, ODESolverConfig())
        assert key == harness._dataset_key(self.case, ODESolverConfig())
        assert key != harness._dataset_key(self.case, ODESolverConfig(abs_tol=5e-13))
        monkeypatch.setattr(harness, "GENERATOR_VERSION", harness.GENERATOR_VERSION + 1)
        assert key != harness._dataset_key(self.case, ODESolverConfig())

    def test_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        self.cached_file(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [
            f"dataset-{harness._dataset_key(self.case, ODESolverConfig())}.npz"
        ]

        def failing_savez(*args, **kwargs):
            raise OSError("disk full")

        other = tmp_path / "other"
        monkeypatch.setattr(harness.np, "savez", failing_savez)
        with pytest.raises(OSError, match="disk full"):
            dataset_for(self.case, str(other))
        assert list(other.iterdir()) == []


class TestReports:
    def test_csv_header_and_rows(self, tmp_path, cache_dir):
        report = run_experiment(tiny_cfg(branch_sizes=(4, 8), cache_dir=None))
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# randonet-report v1"
        assert lines[1].startswith("# config:")
        json.loads(lines[1].removeprefix("# config: "))
        header_row = lines[4].split(",")
        assert header_row == ["case", "branch", "M", "mse", "l2_p5", "l2_median", "l2_p95", "train_seconds"]
        assert len(lines) == 5 + 2

    def test_json_writer(self, tmp_path):
        report = run_experiment(tiny_cfg())
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["rows"][0]["m_branch"] == 8
        assert payload["dataset_fingerprint"] == report.dataset_fingerprint

    def test_sweep_golden_file(self, tmp_path):
        """Compare a seeded tiny sweep against the frozen first verified run.

        Timing column and config echo are environment-dependent and skipped;
        all metric fields must agree to 1e-12 relative.
        """
        write_report_csv(run_experiment(tiny_cfg(branch_sizes=(4, 8))), tmp_path / "sweep.csv")
        got = _parse_report_csv(tmp_path / "sweep.csv")
        want = _parse_report_csv(GOLDEN_SWEEP)
        assert [r[:3] for r in got] == [r[:3] for r in want]
        for row_got, row_want in zip(got, want):
            for a, b in zip(row_got[3:7], row_want[3:7]):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def _parse_report_csv(path):
    rows = []
    with open(path, newline="") as fh:
        for record in csv.reader(line for line in fh if not line.startswith("#")):
            if record[0] == "case":
                continue
            rows.append(
                (int(record[0]), record[1], int(record[2]))
                + tuple(float(v) for v in record[3:])
            )
    return rows
