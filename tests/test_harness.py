import csv
import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import randonet
from randonet import _parallel, funcgen, harness, model, odeint, problems
from randonet.embeddings import EmbeddingSpec
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
from randonet.problems import case_config

GOLDEN_SWEEP = Path(__file__).parent / "data" / "golden_sweep.csv"

# What the generator digest reads: the source of these modules and the versions.
HASHED_MODULES = {m.__name__.split(".")[-1]: m for m in (funcgen, problems, odeint, _parallel)}
GENERATOR_INPUTS = [*HASHED_MODULES, "numpy", "scipy"]


@pytest.fixture
def fresh_digest(monkeypatch):
    """Compute the generator digest anew in the test and after it, so inputs
    the test patches reach it and do not outlast the test."""
    harness._generator_digest.cache_clear()
    yield
    harness._generator_digest.cache_clear()


def change_generator_input(monkeypatch, tmp_path, name):
    """Change one input of the generator digest: a numpy or scipy version, or
    one byte of a hashed module's source, which the digest then reads from a
    changed copy. Needs ``fresh_digest``."""
    harness._generator_digest.cache_clear()
    if name in ("numpy", "scipy"):
        package = {"numpy": np, "scipy": scipy}[name]
        monkeypatch.setattr(package, "__version__", package.__version__ + ".post1")
        return
    module = HASHED_MODULES[name]
    source = bytearray(Path(module.__file__).read_bytes())
    source[len(source) // 2] ^= 1
    copy = tmp_path / "changed" / f"{name}.py"
    copy.parent.mkdir(exist_ok=True)
    copy.write_bytes(source)
    monkeypatch.setattr(module, "__file__", str(copy))


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

    def test_parts_hold_u_in_c_order(self):
        # Feature maps read C-ordered columns; any other layout is copied
        # on every apply, so every evaluate of a test set would pay it.
        for part in split(toy_dataset(s=13), 0.6, 3):
            assert part.U.flags.c_contiguous

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

    def test_mse_of_empty_arrays_raises(self):
        with pytest.raises(ValueError, match="empty"):
            mse(np.zeros((0, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("metric", [mse, l2_percentiles])
    def test_complex_arrays_are_rejected(self, metric):
        a = np.ones((3, 2))
        with pytest.raises(ValueError, match="^pred must be real"):
            metric(a + 1j, a)
        with pytest.raises(ValueError, match="^truth must be real"):
            metric(a, a + 1j)

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
        real_factorize = model.linalg.cod_factorize

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
        def slow_factorize(mat, tol=None, overwrite_a=False):
            assert overwrite_a and mat.flags.f_contiguous
            time.sleep(0.25)
            return real_factorize(mat, tol, overwrite_a)

        monkeypatch.setattr(model.linalg, "cod_factorize", slow_factorize)
        slow_report = run_experiment(cfg)
        assert slow_report.rows[0].train_seconds >= 0.25

    def test_dataset_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        case = case_config(1, size=12, seed=53)
        ds1 = dataset_for(case, str(tmp_path))
        files = list(tmp_path.glob("dataset-*.npz"))
        assert len(files) == 1
        monkeypatch.setattr(harness, "_DATASET_CACHE", {})
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
        with pytest.raises(ValueError, match="solver must be one of"):
            ExperimentConfig(case=1, solver="tsvd")
        with pytest.raises(ValueError, match="'tikhonov' takes no tol"):
            ExperimentConfig(case=1, solver="tikhonov", tol=1e-3)
        with pytest.raises(ValueError, match="^case id must be one of"):
            ExperimentConfig(case=9)
        for bad in (True, 1.0):
            with pytest.raises(ValueError, match="^case id must be an integer >= 1"):
                ExperimentConfig(case=bad)
        # The jl branch never reads it: a bandwidth of -1 once ran to completion.
        with pytest.raises(ValueError, match="^branch 'jl' takes no rffn_bandwidth, got -1.0$"):
            ExperimentConfig(case=1, rffn_bandwidth=-1.0)

    @pytest.mark.parametrize("bad", [100, "100"], ids=["int", "str"])
    def test_branch_sizes_must_be_a_sequence(self, bad):
        # An int once raised a bare TypeError, and a string complained about '1'.
        message = f"^branch_sizes must be a sequence of integers, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(case=1, branch_sizes=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field, fields", [
        ("rffn_bandwidth", {"branch": "rffn"}),
        ("trunk_weight_bound", {}),
    ])
    def test_embedding_settings_are_checked_when_the_config_is_made(self, field, fields, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0, got {bad}$"):
            ExperimentConfig(case=1, **fields, **{field: bad})

    @pytest.mark.parametrize("make, field", [
        (lambda v: EmbeddingSpec("jl", v, 5), "input_dim"),
        (lambda v: EmbeddingSpec("jl", 3, v), "feature_dim"),
        (lambda v: EmbeddingSpec.from_dict({"kind": "jl", "input_dim": v, "feature_dim": 5,
                                            "seed": 0}), "input_dim"),
        (lambda v: ExperimentConfig(case=1, branch_sizes=(4, v)), "each of branch_sizes"),
        (lambda v: ExperimentConfig(case=1, trunk_size=v), "trunk_size"),
        (lambda v: ExperimentConfig(case=1, dataset_size=v), "dataset_size"),
        (lambda v: case_config(3, size=v), "size"),
    ])
    @pytest.mark.parametrize("bad", [3.5, 3.0, True, "3", 0])
    def test_integer_fields_reject_non_integers(self, make, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got {bad!r}$"):
            make(bad)
        # A numpy integer passes and is stored as an int, so configs and specs stay JSON.
        json.dumps(dataclasses.asdict(make(np.int64(3))))


class TestDatasetCache:
    case = case_config(1, size=12, seed=54)

    def cached_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_DATASET_CACHE", {})
        ds = dataset_for(self.case, str(tmp_path))
        monkeypatch.setattr(harness, "_DATASET_CACHE", {})
        (path,) = tmp_path.glob("dataset-*.npz")
        return ds, path

    def assert_rebuilt(self, tmp_path, ds, caplog, monkeypatch):
        with caplog.at_level(logging.WARNING, logger="randonet.harness"):
            again = dataset_for(self.case, str(tmp_path))
        assert "rebuilding" in caplog.text
        np.testing.assert_array_equal(again.U, ds.U)
        np.testing.assert_array_equal(again.V, ds.V)
        # The rebuilt entry replaced the bad file and now loads cleanly.
        monkeypatch.setattr(harness, "_DATASET_CACHE", {})
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="randonet.harness"):
            dataset_for(self.case, str(tmp_path))
        assert caplog.text == ""

    def test_truncated_file_is_rebuilt(self, tmp_path, caplog, monkeypatch):
        ds, path = self.cached_file(tmp_path, monkeypatch)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        self.assert_rebuilt(tmp_path, ds, caplog, monkeypatch)

    @pytest.mark.parametrize("drop, replace, reason", [
        ("fingerprint", {}, "is not a randonet dataset cache file: no fingerprint entry"),
        ("U", {}, "is not a randonet dataset cache file: no U entry"),
        (None, {"x": "abc"}, "could not convert string to float"),
    ], ids=["no-fingerprint", "no-U", "string-x"])
    def test_a_file_with_a_bad_entry_is_rebuilt(self, tmp_path, caplog, monkeypatch, drop,
                                                 replace, reason):
        ds, path = self.cached_file(tmp_path, monkeypatch)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files if name != drop}
        with open(path, "wb") as fh:
            np.savez(fh, **{**arrays, **replace})
        with caplog.at_level(logging.WARNING, logger="randonet.harness"):
            assert harness._load_cached(path) is None
        assert reason in caplog.text
        self.assert_rebuilt(tmp_path, ds, caplog, monkeypatch)

    def test_tampered_file_is_rebuilt(self, tmp_path, caplog, monkeypatch):
        ds, path = self.cached_file(tmp_path, monkeypatch)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["V"] = arrays["V"] + 1.0
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        self.assert_rebuilt(tmp_path, ds, caplog, monkeypatch)

    @pytest.mark.parametrize("served, message", [
        ("miss", r"built on a miss in \d+\.\d{3} s"),
        ("memory", "memory hit"),
        ("disk", "disk hit"),
        ("bad", r"rebuilt after a bad entry in \d+\.\d{3} s"),
    ])
    def test_each_call_logs_the_path_that_served_it(
        self, tmp_path, caplog, monkeypatch, served, message
    ):
        monkeypatch.setattr(harness, "_DATASET_CACHE", {})
        if served != "miss":
            _, path = self.cached_file(tmp_path, monkeypatch)
            if served == "memory":
                dataset_for(self.case, str(tmp_path))
            elif served == "bad":
                path.write_bytes(path.read_bytes()[:100])
        with caplog.at_level(logging.DEBUG, logger="randonet.harness"):
            dataset_for(self.case, str(tmp_path))
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(debug) == 1
        assert re.fullmatch(rf"case 1 dataset [0-9a-f]{{32}}: {message}", debug[0]), debug[0]

    def test_key_covers_case_config_and_generator_version(self, tmp_path, monkeypatch,
                                                           fresh_digest):
        key = harness._dataset_key(self.case)
        assert key == harness._dataset_key(case_config(1, size=12, seed=54))
        assert key != harness._dataset_key(case_config(1, size=12, seed=55))
        keys = {key}
        for name in GENERATOR_INPUTS:
            with monkeypatch.context() as patch:
                change_generator_input(patch, tmp_path, name)
                keys.add(harness._dataset_key(self.case))
            harness._generator_digest.cache_clear()
        assert len(keys) == 1 + len(GENERATOR_INPUTS)
        assert harness._dataset_key(self.case) == key

    def test_numpy_integers_name_a_case_like_python_ints(self):
        key = harness._dataset_key(self.case)
        assert harness._dataset_key(case_config(np.int64(1), size=12, seed=54)) == key
        assert harness._dataset_key(case_config(1, size=np.int64(12), seed=np.int64(54))) == key
        # CaseStudy stores its own fields as ints, however it is made.
        for field, value in (("id", np.int64(1)), ("m", np.int64(100))):
            assert harness._dataset_key(dataclasses.replace(self.case, **{field: value})) == key
        # The config stores plain ints, so the report's config echo stays JSON.
        cfg = ExperimentConfig(case=np.int64(1), seed_data=np.int64(54), seed_embed=np.int64(3))
        assert json.dumps(dataclasses.asdict(cfg)) == json.dumps(
            dataclasses.asdict(ExperimentConfig(case=1, seed_data=54, seed_embed=3)))

    @pytest.mark.parametrize("name", GENERATOR_INPUTS)
    def test_a_changed_generator_input_misses_the_disk_once(
        self, tmp_path, caplog, monkeypatch, fresh_digest, name
    ):
        ds, path = self.cached_file(tmp_path, monkeypatch)
        change_generator_input(monkeypatch, tmp_path, name)
        with caplog.at_level(logging.DEBUG, logger="randonet.harness"):
            again = dataset_for(self.case, str(tmp_path))
        assert "built on a miss" in caplog.text
        np.testing.assert_array_equal(again.U, ds.U)
        np.testing.assert_array_equal(again.V, ds.V)
        # The miss wrote an entry under the new key, and the next lookup hits it.
        new_path = tmp_path / f"dataset-{harness._dataset_key(self.case)}.npz"
        assert sorted(tmp_path.glob("dataset-*.npz")) == sorted([path, new_path])
        monkeypatch.setattr(harness, "_DATASET_CACHE", {})
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="randonet.harness"):
            dataset_for(self.case, str(tmp_path))
        assert "disk hit" in caplog.text

    def test_the_digest_is_computed_once_on_first_use(self):
        script = """
from randonet import harness, problems
assert harness._generator_digest.cache_info().misses == 0
for seed in (1, 2):
    harness.dataset_for(problems.case_config(1, size=5, seed=seed))
info = harness._generator_digest.cache_info()
assert (info.misses, info.hits) == (1, 1), info
"""
        src = str(Path(randonet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("served", ["built", "disk"])
    def test_the_cached_arrays_are_read_only(self, tmp_path, monkeypatch, served):
        # Every later call returns the cached object, so a write through one
        # caller's reference would reach them all.
        monkeypatch.setattr(harness, "_DATASET_CACHE", {})
        if served == "disk":
            self.cached_file(tmp_path, monkeypatch)
        ds = dataset_for(self.case, str(tmp_path))
        fingerprint = harness._dataset_fingerprint(ds)
        for name in ("x", "y", "U", "V"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ds, name)[:] = 0.0
        again = dataset_for(self.case, str(tmp_path))
        assert again is ds
        assert harness._dataset_fingerprint(again) == fingerprint

    def test_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        self.cached_file(tmp_path, monkeypatch)
        assert [p.name for p in tmp_path.iterdir()] == [
            f"dataset-{harness._dataset_key(self.case)}.npz"
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
        assert payload["generator_digest"] == harness._generator_digest()
        assert re.fullmatch("[0-9a-f]{64}", payload["generator_digest"])

    def test_json_rows_carry_the_trace_of_the_fit(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "report.json"
        write_report_json(run_experiment(cfg), path)
        (trace,) = [row["trace"] for row in json.loads(path.read_text())["rows"]]
        assert set(trace) == {"trunk_rank", "trunk_rank_tolerance", "branch_rank",
                              "branch_rank_tolerance", "readout_sha256", "predictions_sha256"}
        # The same fit trained directly has the hashed bits.
        case = case_config(cfg.case, size=cfg.dataset_size, seed=cfg.seed_data)
        train, test = split(dataset_for(case), cfg.train_fraction, cfg.seed_split)
        fit = model.train_aligned(train, harness.trunk_spec_for(cfg, case.domain),
                                  harness.branch_spec_for(cfg, 8, case.m))
        pred = model.evaluate(fit, test.U, test.y)
        for name, arr in (("readout", fit.readout), ("predictions", pred)):
            assert trace[f"{name}_sha256"] == hashlib.sha256(arr.tobytes()).hexdigest()
        assert (trace["trunk_rank"], trace["branch_rank"]) == (
            fit.train_metadata["trunk_rank"], fit.train_metadata["branch_rank"])

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
