"""``tools/bits.py``, the manifest of dataset fingerprints and model bits.

Building a manifest takes seconds, so these tests check the comparison on
canned manifests only.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bits.py"
spec = importlib.util.spec_from_file_location("bits", TOOL)
bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bits)

CANNED = {
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
    path = tmp_path / "bits.json"
    path.write_text(json.dumps(CANNED))
    assert bits.main(["--check", str(path)]) == int(changed)
    out = capsys.readouterr().out
    assert ("models.case2_jl.test_mse: want" in out) == changed


def test_without_check_it_prints_the_manifest(monkeypatch, capsys):
    monkeypatch.setattr(bits, "manifest", lambda: CANNED)
    assert bits.main([]) == 0
    assert json.loads(capsys.readouterr().out) == CANNED
