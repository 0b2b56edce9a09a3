"""Benchmark and property acceptance checks, runnable from the CLI.

Each criterion returns a :class:`CriterionResult`; :func:`run_criteria`
prints one PASS/FAIL line per criterion. The test suite drives the same
functions, so ``randonet verify`` and ``pytest tests/test_acceptance.py``
exercise identical checks.

The fits of the benchmark criteria 1-6 and the bounds on their printed
details are rows of one table, ``_FITS``, which ``tools/bits.py`` also
runs to hash the fits' bits. The bounds are loose relative to the
reference results the suite reproduces (different RNG streams and BLAS
builds move the achievable error floor), but tight enough that only a
correct implementation passes them.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import time
from operator import ge, le, lt

import numpy as np

from . import funcgen, linalg, problems
from .embeddings import EmbeddingSpec, build_feature_map
from .harness import ExperimentConfig, run_experiment
from .model import AlignedDataset, evaluate, explode_aligned, train_aligned, train_unaligned
from .odeint import dopri5_batch

__all__ = ["CriterionResult", "CRITERIA", "run_criteria"]

_SEEDS = dict(seed_data=12, seed_embed=1, seed_split=7)

# Branch embedding each case's convergence trend is judged on.
_TREND_KIND = {1: "jl", 2: "rffn", 3: "jl", 4: "rffn", 5: "rffn"}


@dataclasses.dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.details.items())
        return f"[{status}] criterion {self.cid}: {self.description} ({detail})"


def _cfg(case, branch, sizes, frac=0.8, cache_dir=None, **overrides) -> ExperimentConfig:
    return ExperimentConfig(
        case=case,
        branch=branch,
        branch_sizes=tuple(sizes),
        train_fraction=frac,
        cache_dir=cache_dir,
        **{**_SEEDS, **overrides},
    )


# One row per benchmark fit of criteria 1-6: criterion id and description,
# the fit's model entry in tools/bits.py's manifest, its case, branch kind
# and width and train fraction, and for each printed detail the comparison
# with the bound that passes. A criterion with two fits prefixes each
# detail with its branch kind.
_Fit = collections.namedtuple("_Fit", "cid description label case branch width fraction bounds")
_FITS = tuple(_Fit(*row) for row in (
    ("1", "case 1 JL(100) extensive data", "case1_jl", 1, "jl", 100, 0.8,
     {"mse": (le, 1e-16), "median_l2": (le, 1e-7), "seconds": (lt, 10.0)}),
    ("2", "case 1 JL(100) limited data", "case1_jl_limited", 1, "jl", 100, 0.15,
     {"mse": (le, 1e-14)}),
    ("3", "case 2 RFFN(2000) and JL(100)", "case2_rffn", 2, "rffn", 2000, 0.8,
     {"mse": (le, 1e-10)}),
    ("3", "case 2 RFFN(2000) and JL(100)", "case2_jl", 2, "jl", 100, 0.8, {"mse": (le, 1e-9)}),
    ("4", "case 3 JL(100)", "case3_jl", 3, "jl", 100, 0.8,
     {"mse": (le, 1e-12), "median_l2": (le, 1e-5)}),
    ("5", "case 4 RFFN(2000) vs linear-branch plateau", "case4_rffn", 4, "rffn", 2000, 0.8,
     {"mse": (le, 1e-8)}),
    ("5", "case 4 RFFN(2000) vs linear-branch plateau", "case4_jl40", 4, "jl", 40, 0.8,
     {"mse": (ge, 1e-4)}),
    ("6", "case 5 RFFN(2000)", "case5_rffn", 5, "rffn", 2000, 0.8, {"mse": (le, 1e-6)}),
))


def _benchmark(cid: str, cache_dir=None) -> CriterionResult:
    """Run the fits of criterion ``cid`` and hold each printed detail to its bound."""
    fits = [fit for fit in _FITS if fit.cid == cid]
    details, passed = {}, True
    for fit in fits:
        cfg = _cfg(fit.case, fit.branch, [fit.width], fit.fraction, cache_dir)
        start = time.perf_counter()
        row = run_experiment(cfg).rows[0]
        measures = {"mse": row.mse, "median_l2": row.l2_median,
                    "seconds": time.perf_counter() - start}
        prefix = f"{fit.branch}_" if len(fits) > 1 else ""
        for name, (holds, bound) in fit.bounds.items():
            details[prefix + name] = measures[name]
            passed = passed and holds(measures[name], bound)
    return CriterionResult(cid, fits[0].description, passed, details)


def criterion_7(cache_dir=None) -> CriterionResult:
    """Branch-width convergence trend for every case.

    Sweeps M over {10, 40, 100, 500, 2000} with three embedding seeds; the
    best test MSE at M=2000 must be at most 1e-3 of the best at M=10.
    """
    sizes = (10, 40, 100, 500, 2000)
    details = {}
    passed = True
    for case, kind in _TREND_KIND.items():
        best = {m: np.inf for m in sizes}
        for seed_embed in (1, 2, 3):
            report = run_experiment(
                _cfg(case, kind, sizes, 0.8, cache_dir, seed_embed=seed_embed)
            )
            for row in report.rows:
                best[row.m_branch] = min(best[row.m_branch], row.mse)
        ratio = best[2000] / best[10]
        details[f"case{case}_ratio"] = ratio
        passed = passed and ratio <= 1e-3
    return CriterionResult("7", "branch-width convergence trend", passed, details)


def _prop_moore_penrose() -> tuple[bool, dict]:
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 25))
    worst = 0.0
    for route, factorize, apply_ in (
        ("tsvd", linalg.tsvd_factorize, linalg.tsvd_pinv_apply),
        ("cod", linalg.cod_factorize, linalg.cod_pinv_apply),
    ):
        f = factorize(a, None)
        pinv = apply_(f, np.eye(25))  # I @ A+
        res1 = np.linalg.norm(a @ pinv @ a - a) / np.linalg.norm(a)
        res2 = np.linalg.norm(pinv @ a @ pinv - pinv) / np.linalg.norm(pinv)
        worst = max(worst, res1, res2)
    return worst <= 1e-10, {"mp_residual": worst}


def _prop_solver_agreement() -> tuple[bool, dict]:
    rng = np.random.default_rng(6)
    # Clean spectral gap around the cut: sigma in {1..5} kept, 1e-9 dropped.
    u, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    sing = np.concatenate([np.linspace(5, 1, 8), np.full(12, 1e-9)])
    a = (u[:, :20] * sing) @ v.T
    b = rng.standard_normal((30, 4))
    tol = 1e-6
    # A+ b as (b.T (A.T)+).T
    x_tsvd = linalg.tsvd_pinv_apply(linalg.tsvd_factorize(a.T, tol), b.T).T
    x_cod = linalg.cod_pinv_apply(linalg.cod_factorize(a.T, tol), b.T).T
    rel = np.linalg.norm(x_tsvd - x_cod) / np.linalg.norm(x_tsvd)
    return rel <= 1e-8, {"solver_agreement": rel}


def _prop_tikhonov_limit() -> tuple[bool, dict]:
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((30, 80))
    y = rng.standard_normal((3, 80))
    w0 = linalg.tsvd_pinv_apply(linalg.tsvd_factorize(psi), y)
    w_small = linalg.tsvd_pinv_apply(linalg.tsvd_factorize(psi, reg=1e-14), y)
    rel = np.linalg.norm(w_small - w0) / np.linalg.norm(w0)
    return rel <= 1e-6, {"tikhonov_limit": rel}


def _prop_rffn_kernel() -> tuple[bool, dict]:
    fmap = build_feature_map(EmbeddingSpec(kind="rffn", input_dim=2, feature_dim=4000, seed=11))
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(60):
        u = rng.uniform(-1.5, 1.5, 2)
        v = u + rng.uniform(-1, 1, 2) * rng.uniform(0, 1.5)
        if np.linalg.norm(u - v) > 3:
            continue
        # The map scales its features by 1/input_dim; undo it for the kernel.
        approx = float(fmap.apply(u) @ fmap.apply(v)) * fmap.spec.input_dim**2
        exact = float(np.exp(-np.linalg.norm(u - v) ** 2 / 2))
        worst = max(worst, abs(approx - exact))
    return worst <= 0.05, {"kernel_abs_err": worst}


def _prop_derivative_oracles() -> tuple[bool, dict]:
    h = 1e-5
    worst = 0.0
    for case_id in problems.CASE_IDS:
        case = problems.case_config(case_id, size=3, seed=21)
        xs = np.linspace(case.domain[0] + 0.01, case.domain[1] - 0.01, 40)
        for row in funcgen.sample_params(case.sampling):
            du = funcgen.eval_du(row, xs)
            d2u = funcgen.eval_d2u(row, xs)
            u_minus, u, u_plus = (funcgen.eval_u(row, x) for x in (xs - h, xs, xs + h))
            fd1 = (u_plus - u_minus) / (2 * h)
            fd2 = (u_plus - 2 * u + u_minus) / (h * h)
            worst = max(worst, np.max(np.abs(du - fd1)) / max(np.max(np.abs(fd1)), 1.0))
            worst = max(worst, np.max(np.abs(d2u - fd2)) / max(np.max(np.abs(fd2)), 1.0))
    return worst <= 1e-6, {"derivative_fd_rel": worst}


def _fd_rhs_reference(case, row, n_fine: int = 10_000):
    """RHS oracle: 4th-order central differences of u (the function in
    parameter ``row``) on a fine grid.

    The grid is padded by two spacings on each side (u is analytic beyond
    the domain), so every output point is covered by a central stencil.
    """
    a, b = case.domain
    h = (b - a) / (n_fine - 1)
    grid = a + h * np.arange(-2, n_fine + 2)
    u = funcgen.eval_u(row, grid)
    du = (-u[4:] + 8 * u[3:-1] - 8 * u[1:-3] + u[:-4]) / (12 * h)
    d2u = (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2] + 16 * u[1:-3] - u[:-4]) / (12 * h * h)
    u = u[2:-2]
    if case.id == 3:
        rhs = case.constants["nu"] * d2u + case.constants["gamma"] * du + case.constants["zeta"] * u
    elif case.id == 4:
        rhs = case.constants["nu"] * d2u - u * du
    else:
        rhs = case.constants["nu"] * d2u + u - u**3
    idx = np.linspace(0, n_fine - 1, case.n).round().astype(int)
    return rhs[idx]


def _prop_rhs_oracles() -> tuple[bool, dict]:
    worst = 0.0
    for case_id in (3, 4, 5):
        case = problems.case_config(case_id, size=4, seed=22)
        ds, table = problems.build_case(case, with_params=True)
        for j, row in enumerate(table):
            rhs = _fd_rhs_reference(case, row)
            err = np.max(np.abs(ds.V[:, j] - rhs)) / max(np.max(np.abs(rhs)), 1e-30)
            worst = max(worst, err)
    return worst <= 1e-5, {"rhs_fd_rel": worst}


def _prop_antiderivative_quadrature() -> tuple[bool, dict]:
    from scipy.integrate import quad

    case = problems.case_config(1, size=2, seed=23)
    worst = 0.0
    for row in funcgen.sample_params(case.sampling):
        for x in (0.13, 0.5, 0.97):
            ref, _ = quad(lambda t: funcgen.eval_u(row, t), 0.0, x, epsabs=1e-14, epsrel=1e-13,
                          limit=400)
            got = float(funcgen.eval_antiderivative(row, x, 0.0))
            worst = max(worst, abs(got - ref))
    return worst <= 1e-12, {"antiderivative_abs": worst}


def _prop_pendulum_linearized() -> tuple[bool, dict]:
    k = 9.81
    eps = 1e-6

    def rhs(t, y):
        return np.column_stack([y[:, 1], -k * np.sin(y[:, 0]) + eps])

    t_eval = np.linspace(0, 1, 101)
    values, ok = dopri5_batch(rhs, (0.0, 1.0), np.zeros((1, 2)), t_eval)
    closed = (eps / k) * (1 - np.cos(np.sqrt(k) * t_eval))
    err = float(np.max(np.abs(values[0, :, 0] - closed)))
    return bool(ok.all()) and err <= 1e-9, {"pendulum_linear_abs": err}


def _prop_aligned_unaligned() -> tuple[bool, dict]:
    rng = np.random.default_rng(30)
    x = np.linspace(0, 1, 10)
    u_mat = rng.standard_normal((10, 5))
    v_mat = rng.standard_normal((10, 5))
    ds = AlignedDataset(x=x, y=x, U=u_mat, V=v_mat)
    trunk = EmbeddingSpec(kind="tanh", input_dim=1, feature_dim=8, seed=31, domain=(0.0, 1.0))
    branch = EmbeddingSpec(kind="jl", input_dim=10, feature_dim=8, seed=32)
    aligned = train_aligned(ds, trunk, branch, solver="tikhonov")
    unaligned = train_unaligned(explode_aligned(ds), trunk, branch, solver="tikhonov")
    pred_a = evaluate(aligned, u_mat, x)
    pred_u = evaluate(unaligned, u_mat, x)
    rel = np.linalg.norm(pred_a - pred_u) / np.linalg.norm(pred_a)
    return rel <= 1e-6, {"aligned_unaligned_rel": rel}


def _prop_determinism() -> tuple[bool, dict]:
    cfg = _cfg(1, "jl", [40], 0.8, None)
    # Every field but the time: the metrics and the trace, whose readout
    # and prediction hashes compare the two runs' bits.
    r1, r2 = (dataclasses.replace(run_experiment(cfg).rows[0], train_seconds=0.0)
              for _ in range(2))
    same = r1 == r2
    return same, {"identical_metrics": same}


def criterion_8(cache_dir=None) -> CriterionResult:
    """Property suite independent of the benchmark numbers."""
    checks = [
        _prop_moore_penrose,
        _prop_solver_agreement,
        _prop_tikhonov_limit,
        _prop_rffn_kernel,
        _prop_derivative_oracles,
        _prop_rhs_oracles,
        _prop_antiderivative_quadrature,
        _prop_pendulum_linearized,
        _prop_aligned_unaligned,
        _prop_determinism,
    ]
    details = {}
    passed = True
    for check in checks:
        ok, info = check()
        details.update(info)
        passed = passed and ok
    return CriterionResult("8", "property suite", passed, details)


CRITERIA = {**{fit.cid: functools.partial(_benchmark, fit.cid) for fit in _FITS},
            "7": criterion_7, "8": criterion_8}


def run_criteria(cids=None, cache_dir=None) -> list[CriterionResult]:
    """Run (a subset of) the acceptance criteria, printing one line each."""
    results = []
    for cid in sorted(CRITERIA) if cids is None else cids:
        result = CRITERIA[cid](cache_dir)
        print(result.line())
        results.append(result)
    return results
