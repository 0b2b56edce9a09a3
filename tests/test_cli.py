import dataclasses
import json

import numpy as np
import pytest

from randonet import harness
from randonet.cli import main
from randonet.harness import ExperimentConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_reports_metrics(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(
        capsys,
        "run", "--case", "1", "--branch", "jl", "--m", "8", "--size", "30",
        "--seed-data", "3", "--seed-embed", "4", "--seed-split", "5",
        "--out", str(out_path),
    )
    assert code == 0
    assert "dataset fingerprint:" in out
    assert out_path.exists()
    assert "mse" in out


def test_sweep_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "run", "--case", "1", "--branch", "jl", "--m", "4,8", "--size", "30",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# randonet-report v1"
    data_rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("case")]
    assert len(data_rows) == 2


def test_sweep_json_writes_the_report_once(capsys, tmp_path, monkeypatch):
    # With --json no CSV is written first.
    def no_csv(*args, **kwargs):
        raise AssertionError("a CSV report was written")

    monkeypatch.setattr(harness, "write_report_csv", no_csv)
    out_path = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        capsys,
        "run", "--case", "1", "--m", "4,8", "--size", "30", "--out", str(out_path), "--json",
    )
    assert code == 0
    assert [row["m_branch"] for row in json.loads(out_path.read_text())["rows"]] == [4, 8]


def test_setting_the_solver_ignores_fails_with_error_record(capsys):
    code, _, err = run_cli(
        capsys, "run", "--case", "1", "--size", "30", "--solver", "cod", "--lambda", "0.5"
    )
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    record = json.loads(err)
    assert record["error"]["type"] == "ValueError"
    assert "'cod' takes no regularization weight" in record["error"]["message"]


@pytest.mark.parametrize("flags, message", [
    (("--solver", "tikhonov", "--tol", "1e-3"), "'tikhonov' takes no tol"),
    (("--solver", "cod", "--lambda", "0.5"), "'cod' takes no regularization weight"),
    (("--solver", "tikhonov", "--lambda", "-1"), "must be >= 0"),
    (("--tol", "nan"), "tolerance must be positive"),
    (("--branch", "rffn", "--bandwidth", "nan"), "bandwidth must be finite"),
    (("--trunk-bound", "nan"), "weight_bound must be finite"),
])
def test_solver_settings_fail_before_the_dataset_build(capsys, monkeypatch, flags, message):
    def no_build(*args, **kwargs):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(harness, "_DATASET_CACHE", {})
    monkeypatch.setattr(harness, "build_case", no_build)
    code, _, err = run_cli(capsys, "run", "--case", "2", *flags)
    assert code == 2
    record = json.loads(err)
    assert record["error"]["type"] == "ValueError"
    assert message in record["error"]["message"]


def test_unset_flags_keep_the_config_defaults(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", "--case", "1", "--size", "30", "--m", "4",
                         "--out", str(out_path), "--json")
    assert code == 0
    config = json.loads(out_path.read_text())["config"]
    defaults = dataclasses.asdict(ExperimentConfig(case=1, branch_sizes=(4,), dataset_size=30))
    defaults["branch_sizes"] = [4]
    assert config == defaults


def test_run_json_output(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "run", "--case", "1", "--m", "6", "--size", "30", "--out", str(out_path), "--json",
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["rows"][0]["case"] == 1


def test_gen_data_exports_dataset(capsys, tmp_path):
    out_path = tmp_path / "data.csv"
    code, out, _ = run_cli(
        capsys, "gen-data", "--case", "3", "--size", "4", "--seed-data", "9",
        "--out", str(out_path),
    )
    assert code == 0
    assert "wrote 4 functions" in out
    text = out_path.read_text().splitlines()
    assert text[0] == "# randonet-dataset v1"
    assert len([l for l in text if not l.startswith("#")]) == 1 + 4


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": 1, "m": [4], "size": 30, "seed_embed": 8}))
    out_a = tmp_path / "a.csv"
    code, _, _ = run_cli(
        capsys, "run", "--config", str(cfg_path), "--out", str(out_a), "--json"
    )
    assert code == 0
    payload = json.loads(out_a.read_text())
    assert payload["config"]["seed_embed"] == 8
    assert payload["config"]["branch_sizes"] == [4]
    # Explicit flag beats the file value.
    out_b = tmp_path / "b.csv"
    code, _, _ = run_cli(
        capsys, "run", "--config", str(cfg_path), "--m", "6", "--out", str(out_b), "--json"
    )
    assert code == 0
    assert json.loads(out_b.read_text())["config"]["branch_sizes"] == [6]
    # An explicit zero beats the file value too, though 0 == False.
    out_c = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys, "run", "--config", str(cfg_path), "--seed-embed", "0", "--out", str(out_c), "--json"
    )
    assert code == 0
    assert json.loads(out_c.read_text())["config"]["seed_embed"] == 0


def test_unknown_config_key_fails_with_error_record(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": 1, "bogus": True}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg_path))
    assert code == 2
    record = json.loads(err.strip())
    assert record["error"]["type"] == "ValueError"
    assert "bogus" in record["error"]["message"]


@pytest.mark.parametrize("payload, message", [
    ({"case": 1, "json": "no"}, "config key 'json' must be true or false"),
    ({"case": 1, "train_frac": "half"}, "config key 'train_frac'"),
    ({"case": "9"}, "config key 'case' must be one of [1, 2, 3, 4, 5], got 9"),
    ({"case": 1, "n": True}, "config key 'n' must be a string or number"),
    ({"case": 1, "m": [4, "x"]}, "config key 'm': bad branch size list"),
    (7, "config file must hold a JSON object, got int"),
])
def test_bad_config_value_fails_with_error_record(capsys, tmp_path, payload, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg_path))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert message in json.loads(err)["error"]["message"]


def test_config_strings_convert_as_flags_do(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": "1", "train_frac": "0.5", "m": 4, "size": 30,
                                    "json": True}))
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(out_path))
    assert code == 0
    config = json.loads(out_path.read_text())["config"]
    assert (config["case"], config["train_fraction"], config["branch_sizes"]) == (1, 0.5, [4])


def test_missing_case_is_machine_readable_error(capsys):
    code, _, err = run_cli(capsys, "run", "--m", "4")
    assert code == 2
    record = json.loads(err.strip())
    assert "--case" in record["error"]["message"]


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--criteria", "8")
    assert code == 0
    assert "[PASS] criterion 8" in out


def test_verify_rejects_unknown_criterion(capsys):
    code, _, err = run_cli(capsys, "verify", "--criteria", "9")
    assert code == 2
    assert "unknown criterion" in json.loads(err.strip())["error"]["message"]
