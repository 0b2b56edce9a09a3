"""Acceptance suite: the benchmark targets and the property checks.

Each test drives one criterion at its fixed threshold and prints the
criterion's PASS/FAIL line (visible with ``pytest -s`` or on failure).
The full run builds all five benchmark datasets; the pendulum case
dominates and takes a few tens of seconds once per session. Two tests
check that the criteria's config helper hands every override on; the rest
run criteria 1-6 on canned reports, which fit nothing, and pin their fits,
printed lines and bounds.
"""

import types

import pytest

from randonet import acceptance
from randonet.harness import BenchmarkReport, ExperimentConfig, ReportRow

# Criteria 1-6: description, the fits as (case, branch, width, train
# fraction), and the printed details in order, each with the comparison
# that passes and its bound.
BENCHMARKS = {
    "1": ("case 1 JL(100) extensive data", [(1, "jl", 100, 0.8)],
          {"mse": ("<=", 1e-16), "median_l2": ("<=", 1e-7), "seconds": ("<", 10.0)}),
    "2": ("case 1 JL(100) limited data", [(1, "jl", 100, 0.15)], {"mse": ("<=", 1e-14)}),
    "3": ("case 2 RFFN(2000) and JL(100)", [(2, "rffn", 2000, 0.8), (2, "jl", 100, 0.8)],
          {"rffn_mse": ("<=", 1e-10), "jl_mse": ("<=", 1e-9)}),
    "4": ("case 3 JL(100)", [(3, "jl", 100, 0.8)],
          {"mse": ("<=", 1e-12), "median_l2": ("<=", 1e-5)}),
    "5": ("case 4 RFFN(2000) vs linear-branch plateau",
          [(4, "rffn", 2000, 0.8), (4, "jl", 40, 0.8)],
          {"rffn_mse": ("<=", 1e-8), "jl_mse": (">=", 1e-4)}),
    "6": ("case 5 RFFN(2000)", [(5, "rffn", 2000, 0.8)], {"mse": ("<=", 1e-6)}),
}


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


@pytest.fixture
def canned(monkeypatch):
    """``canned(cid, **details)`` runs criterion ``cid`` on canned reports.

    Each fit reports the given printed details (a two-fit criterion's named
    with the branch prefix); any other detail reads a tenth of its upper
    bound or ten times its lower one. The clock advances by ``seconds``
    during each fit. It checks that the criterion ran its fits, and only
    those, at the acceptance seeds.
    """
    clock = [0.0]
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))

    def run(cid, **given):
        _, fits, bounds = BENCHMARKS[cid]
        details = {name: bound * (10.0 if op == ">=" else 0.1)
                   for name, (op, bound) in bounds.items()}
        details.update(given)
        ran, clock[0] = [], 0.0

        def fake_run_experiment(cfg):
            (width,) = cfg.branch_sizes
            ran.append((cfg.case, cfg.branch, width, cfg.train_fraction))
            assert (cfg.seed_data, cfg.seed_embed, cfg.seed_split, cfg.solver) == (12, 1, 7, "cod")
            prefix = f"{cfg.branch}_" if len(fits) > 1 else ""
            clock[0] += details.get("seconds", 0.0)
            row = ReportRow(cfg.case, cfg.branch, width,
                            mse=details[prefix + "mse"], l2_p5=0.0,
                            l2_median=details.get(prefix + "median_l2", 0.0), l2_p95=0.0,
                            train_seconds=0.0, trace={})
            return BenchmarkReport(rows=(row,), config={}, dataset_fingerprint="")

        monkeypatch.setattr(acceptance, "run_experiment", fake_run_experiment)
        result = acceptance.CRITERIA[cid](None)
        assert ran == fits
        return result

    return run


# Each criterion's canned details and the line it then prints: the values
# of the seed-12 fits.
LINES = {
    "1": (dict(mse=2.170e-21, median_l2=3.975e-10, seconds=0.53),
          "case 1 JL(100) extensive data (mse=2.170e-21 median_l2=3.975e-10 seconds=5.300e-01)"),
    "2": (dict(mse=1.017e-20), "case 1 JL(100) limited data (mse=1.017e-20)"),
    "3": (dict(rffn_mse=5.676e-17, jl_mse=1.854e-13),
          "case 2 RFFN(2000) and JL(100) (rffn_mse=5.676e-17 jl_mse=1.854e-13)"),
    "4": (dict(mse=7.964e-14, median_l2=2.577e-06),
          "case 3 JL(100) (mse=7.964e-14 median_l2=2.577e-06)"),
    "5": (dict(rffn_mse=1.751e-10, jl_mse=1.413e-02),
          "case 4 RFFN(2000) vs linear-branch plateau (rffn_mse=1.751e-10 jl_mse=1.413e-02)"),
    "6": (dict(mse=2.922e-09), "case 5 RFFN(2000) (mse=2.922e-09)"),
}


@pytest.mark.parametrize("cid", sorted(LINES))
def test_a_benchmark_criterion_prints_its_details_in_order(canned, cid):
    details, line = LINES[cid]
    result = canned(cid, **details)
    assert list(result.details) == list(BENCHMARKS[cid][2])
    assert result.description == BENCHMARKS[cid][0]
    assert result.line() == f"[PASS] criterion {cid}: {line}"


@pytest.mark.parametrize("cid, name", [(cid, name) for cid, (_, _, bounds) in BENCHMARKS.items()
                                       for name in bounds])
def test_each_printed_detail_is_held_to_its_bound(canned, cid, name):
    op, bound = BENCHMARKS[cid][2][name]
    beyond = bound * (0.99 if op == ">=" else 1.01)
    inside = bound * (1.01 if op == ">=" else 0.99)
    assert canned(cid, **{name: inside}).passed
    assert canned(cid, **{name: bound}).passed == (op != "<")
    assert not canned(cid, **{name: beyond}).passed


def test_criterion_5_holds_the_linear_branch_to_a_plateau(canned):
    assert not canned("5", jl_mse=1e-5).passed
    assert canned("5", jl_mse=1e-3).passed
