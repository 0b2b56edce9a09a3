"""``tools/bits.py``, the manifest of dataset fingerprints and model bits.

The comparison is tested on canned manifests; one test rebuilds the
committed ``tests/data/bits.json`` in a subprocess, which takes seconds.
"""

import ast
import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from randonet import acceptance

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bits.py"
spec = importlib.util.spec_from_file_location("bits", TOOL)
bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bits)

COMMITTED = Path(__file__).resolve().parent / "data" / "bits.json"

MACHINE = {"numpy": "2.4.6", "usable_cpus": 2, "OPENBLAS_NUM_THREADS": "1"}

CANNED = {
    "machine": MACHINE,
    "datasets": {"case1": "05ad0c7a", "case2": "0732a541"},
    "models": {
        "case2_jl": {"branch_rank": 79, "readout_sha256": "aa", "predictions_sha256": "bb",
                     "test_mse": (1.853366e-13).hex()},
        "case1_scattered": {"collocation_rank": 1990, "readout_sha256": "cc",
                            "predictions_sha256": "dd", "test_mse": (1e-5).hex()},
    },
}


def test_equal_manifests_have_no_differences():
    assert bits.differences(CANNED, copy.deepcopy(CANNED)) == []


def test_each_differing_entry_is_named():
    got = copy.deepcopy(CANNED)
    got["datasets"]["case2"] = "ffffffff"
    got["models"]["case2_jl"]["readout_sha256"] = "ab"
    del got["models"]["case1_scattered"]["collocation_rank"]
    got["models"]["case2_jl"]["trunk_rank"] = 100
    assert bits.differences(CANNED, got) == [
        "datasets.case2: want '0732a541', got 'ffffffff'",
        "models.case1_scattered.collocation_rank: missing (want 1990)",
        "models.case2_jl.readout_sha256: want 'aa', got 'ab'",
        "models.case2_jl.trunk_rank: new (got 100)",
    ]


@pytest.mark.parametrize("changed", [False, True])
def test_check_exits_1_on_a_difference(tmp_path, monkeypatch, capsys, changed):
    got = copy.deepcopy(CANNED)
    if changed:
        got["models"]["case2_jl"]["test_mse"] = (1.853566e-13).hex()
    monkeypatch.setattr(bits, "manifest", lambda: got)
    monkeypatch.setattr(bits, "machine", lambda: dict(MACHINE))
    path = tmp_path / "bits.json"
    path.write_text(json.dumps(CANNED))
    assert bits.main(["--check", str(path)]) == int(changed)
    out = capsys.readouterr().out
    assert ("models.case2_jl.test_mse: want" in out) == changed


def test_without_check_it_prints_the_manifest(monkeypatch, capsys):
    monkeypatch.setattr(bits, "manifest", lambda: CANNED)
    assert bits.main([]) == 0
    assert json.loads(capsys.readouterr().out) == CANNED


def test_another_machine_exits_2_naming_each_field_before_any_build(tmp_path, monkeypatch,
                                                                    capsys):
    def no_build():
        raise AssertionError("the manifest was built")

    monkeypatch.setattr(bits, "manifest", no_build)
    monkeypatch.setattr(bits, "machine", lambda: dict(MACHINE, numpy="2.5.0", usable_cpus=4))
    path = tmp_path / "bits.json"
    path.write_text(json.dumps(CANNED))
    assert bits.main(["--check", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "machine.numpy: want '2.4.6', got '2.5.0'",
        "machine.usable_cpus: want 2, got 4",
        f"bits: the machine differs from {path}'s in 2 fields; nothing compared",
    ]


@pytest.mark.parametrize("fingerprint", ["0732a541", "ffffffff"])
def test_another_cpu_compares_the_fingerprints_and_names_the_skipped_models(
        tmp_path, monkeypatch, capsys, fingerprint):
    # The CPU model, usable CPUs and thread setting move model bits only.
    def datasets_only(fit_models=True):
        assert not fit_models, "the models were fitted"
        return {"machine": {}, "datasets": dict(CANNED["datasets"], case2=fingerprint)}

    monkeypatch.setattr(bits, "manifest", datasets_only)
    monkeypatch.setattr(bits, "machine", lambda: dict(
        MACHINE, cpu_model="Other CPU", usable_cpus=4, OPENBLAS_NUM_THREADS=None))
    path = tmp_path / "bits.json"
    path.write_text(json.dumps(CANNED))
    changed = fingerprint != CANNED["datasets"]["case2"]
    assert bits.main(["--check", str(path)]) == int(changed)
    assert capsys.readouterr().out.splitlines() == [
        "machine.OPENBLAS_NUM_THREADS: want '1', got None",
        "machine.cpu_model: new (got 'Other CPU')",
        "machine.usable_cpus: want 2, got 4",
        f"bits: the machine differs from {path}'s in OPENBLAS_NUM_THREADS, cpu_model, "
        "usable_cpus; skipped 2 model entries: case1_scattered, case2_jl",
    ] + ([f"datasets.case2: want '0732a541', got '{fingerprint}'",
          f"bits: 1 entries differ from {path}"] if changed
         else [f"bits: every entry matches {path}"])


@pytest.mark.parametrize("field, value", [("scipy", "1.18.0"),
                                          ("numpy_cpu_features", ["SSE", "SSE2"])])
def test_a_dataset_key_field_exits_2_before_any_build(tmp_path, monkeypatch, capsys, field,
                                                     value):
    def no_build(fit_models=True):
        raise AssertionError("the manifest was built")

    want = dict(CANNED, machine=dict(MACHINE, scipy="1.17.1", numpy_cpu_features=["SSE"]))
    monkeypatch.setattr(bits, "manifest", no_build)
    monkeypatch.setattr(bits, "machine", lambda: dict(want["machine"], usable_cpus=4,
                                                      **{field: value}))
    path = tmp_path / "bits.json"
    path.write_text(json.dumps(want))
    assert bits.main(["--check", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"machine.{field}: want") and out[1].startswith("machine.usable")
    assert out[2] == f"bits: the machine differs from {path}'s in 2 fields; nothing compared"


def test_the_machine_entry_names_what_the_bits_depend_on(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    facts = bits.machine()
    assert set(facts) == {"numpy", "scipy", "numpy_blas", "scipy_blas", "numpy_cpu_features",
                          "usable_cpus", "cpu_model", "OPENBLAS_NUM_THREADS"}
    assert facts["OPENBLAS_NUM_THREADS"] == "1" and facts["usable_cpus"] >= 1
    assert facts["numpy_cpu_features"] == sorted(facts["numpy_cpu_features"])
    assert set(bits.DATASET_KEY) < set(facts)
    json.dumps(facts)


def test_the_committed_manifest_holds_on_this_tree():
    """Rebuild ``tests/data/bits.json`` at its thread setting: every dataset
    fingerprint and model bit must match. On a machine whose CPU, usable
    CPUs or BLAS differ from the file's only the fingerprints are compared;
    skipped where numpy, scipy or numpy's CPU features differ, since then
    no bits are comparable."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOL), "--check", str(COMMITTED)], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode == 2:
        pytest.skip("bits.json was made on another machine: " + "; ".join(
            line for line in proc.stdout.splitlines() if line.startswith("machine.")))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_the_manifest_holds_each_fit_of_the_criteria_table():
    """``tools/bits.py`` hashes the criteria's own fits: each row of their
    table is a committed model entry, and the tool builds no spec itself."""
    models = json.loads(COMMITTED.read_text())["models"]
    labels = [fit.label for fit in acceptance._FITS]
    assert len(set(labels)) == len(labels) == 8
    assert set(labels) < set(models)
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(ast.parse(TOOL.read_text()))
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert "EmbeddingSpec" not in names
