"""Acceptance suite: the benchmark targets and the property checks.

Each test drives one criterion at its fixed threshold and prints the
criterion's PASS/FAIL line (visible with ``pytest -s`` or on failure).
The full run builds all five benchmark datasets; the pendulum case
dominates and takes a few tens of seconds once per session. The last two
tests check that the criteria's config helper hands every override on.
"""

import pytest

from randonet import acceptance
from randonet.harness import ExperimentConfig


def _run(cid, cache_dir):
    result = acceptance.CRITERIA[cid](cache_dir)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_case1_jl_extensive(cache_dir):
    _run("1", cache_dir)


def test_criterion_2_case1_jl_limited(cache_dir):
    _run("2", cache_dir)


def test_criterion_3_case2_pendulum(cache_dir):
    _run("3", cache_dir)


def test_criterion_4_case3_linear_pde(cache_dir):
    _run("4", cache_dir)


def test_criterion_5_case4_burgers(cache_dir):
    _run("5", cache_dir)


def test_criterion_6_case5_allen_cahn(cache_dir):
    _run("6", cache_dir)


def test_criterion_7_convergence_trend(cache_dir):
    _run("7", cache_dir)


def test_criterion_8_property_suite(cache_dir):
    _run("8", cache_dir)


def test_cfg_passes_every_override_to_the_config():
    cfg = acceptance._cfg(1, "jl", [4], solver="tikhonov", reg=1e-3, seed_embed=3)
    assert isinstance(cfg, ExperimentConfig)
    assert (cfg.solver, cfg.reg, cfg.seed_embed) == ("tikhonov", 1e-3, 3)
    assert (cfg.seed_data, cfg.seed_split) == (12, 7)


def test_cfg_rejects_a_misspelt_override():
    with pytest.raises(TypeError, match="bogus"):
        acceptance._cfg(1, "jl", [4], bogus=3)
