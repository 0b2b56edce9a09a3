"""The three benchmark workloads, written against randonet's public API.

Every workload takes its inputs from the workload seed: the dataset seed is
``12 + seed`` (seed 0 reproduces the acceptance suite's data seed), the
embedding seed is 1 and the split seed 7, as in the acceptance suite.

* ``nonlinear_fit``: cases 4 and 5 at paper size are built in setup; a job
  fits RFFN(2000) and JL(100) on each and scores them. Factorization-bound.
* ``pendulum_data``: a job builds case 2 (3000 Dormand-Prince integrations)
  from nothing, then fits and scores JL(100). Data-generation-bound.
* ``scattered_fit``: the case 1 dataset is built in setup and 500 training
  functions times 5 random output points are drawn from the workload seed;
  a job solves the unaligned collocation system (trunk N=50, JL M=40, so
  N*M*S = 5e6, the solver's budget) and scores on the full test grid.

A job returns a :class:`JobOutcome`; ``failures`` lists every output check
that did not hold. Fits and evaluate calls are timed in blocks paced by a
reference kernel (:mod:`speed`). ``scale`` below 1 shrinks the dataset
sizes for the self-test; the acceptance MSE bounds only apply at scale 1.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import speed

DATA_SEED_BASE = 12
EMBED_SEED = 1
SPLIT_SEED = 7
TRAIN_FRACTION = 0.8
TRUNK_WIDTH = 200

# Acceptance-suite MSE bounds: criterion 5 (case 4 RFFN), criterion 6
# (case 5 RFFN) and criterion 3 (case 2 JL). The scattered bound is the
# benchmark's own: with 2500 samples for 2000 unknowns the fit sits near the
# interpolation threshold, and over 30 seeds its test MSE ran from 2.5e-6
# to 1.3e-4, while predicting zero scores 0.9.
MSE_BOUNDS = {
    "case4_rffn": 1e-8,
    "case5_rffn": 1e-6,
    "case2_jl": 1e-9,
    "case1_scattered": 1e-3,
}


def fingerprint(ds) -> str:
    """Content hash of an aligned dataset, as the harness reports it."""
    h = hashlib.sha256()
    for arr in (ds.x, ds.y, ds.U, ds.V):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:32]


@dataclass
class JobOutcome:
    mse: dict = field(default_factory=dict)
    l2: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    data_s: float = 0.0
    # Per model: timed blocks of fits and of evaluate calls, and the test
    # functions in one evaluate call.
    fit_blocks: dict = field(default_factory=dict)
    eval_blocks: dict = field(default_factory=dict)
    eval_functions: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def outputs(self) -> dict:
        """Exact outputs that must repeat bit for bit from job to job."""
        out = {k: float(v).hex() for k, v in self.mse.items()}
        out.update(self.fingerprints)
        return out


class Workload:
    name = ""
    # Timed blocks of fits and of evaluate calls, per model and job.
    fit_rounds = 1
    eval_rounds = 8
    data_in_job = False  # data_s is per job, not per setup round
    setup_rounds = 3  # input builds in set-up; setup_s takes their median

    def __init__(self, api, seed: int, scale: float = 1.0):
        self.api = api
        self.seed = seed
        self.data_seed = DATA_SEED_BASE + seed
        self.scale = scale

    def size(self, full: int) -> int:
        return max(20, int(round(full * self.scale)))

    def trunk(self, domain, width=TRUNK_WIDTH):
        return self.api.EmbeddingSpec(kind="tanh", input_dim=1, feature_dim=width,
                                      seed=(EMBED_SEED, 0), domain=domain)

    def branch(self, kind, width, sensors):
        bandwidth = 5.0 * sensors if kind == "rffn" else 1.0
        return self.api.EmbeddingSpec(kind=kind, input_dim=sensors, feature_dim=width,
                                      seed=(EMBED_SEED, 1), bandwidth=bandwidth)

    def score(self, out: JobOutcome, label: str, model, u, y, truth) -> None:
        """Evaluate in timed blocks, check repeatability, record MSE and L2."""
        seen = []  # the first prediction, and the first that differs from it

        def check(pred):
            if len(seen) < 2 and (not seen or not np.array_equal(pred, seen[0])):
                seen.append(pred)

        out.eval_blocks[label] = speed.run_blocks(
            lambda: self.api.evaluate(model, u, y), speed.EVALUATE, self.eval_rounds, check)
        out.eval_functions[label] = u.shape[1]
        if len(seen) > 1:
            out.failures.append(f"{label}: evaluate differs between calls")
        first = seen[0]
        value = self.api.mse(first, truth)
        out.mse[label] = value
        out.l2[label] = self.api.l2_percentiles(first, truth)
        bound = MSE_BOUNDS.get(label)
        if not math.isfinite(value):
            out.failures.append(f"{label}: MSE {value!r} is not finite")
        elif bound is not None and self.scale == 1.0 and value > bound:
            out.failures.append(f"{label}: MSE {value:.3e} above bound {bound:.0e}")

    def fit(self, out: JobOutcome, label: str, train_fn, *args):
        """Fit in timed blocks, check the readouts agree bit for bit."""
        seen = []  # the first model, and the first whose readout differs from it

        def check(model):
            if len(seen) < 2 and (not seen or not np.array_equal(model.readout,
                                                                  seen[0].readout)):
                seen.append(model)

        out.fit_blocks[label] = speed.run_blocks(
            lambda: train_fn(*args, solver="cod"), speed.FIT, self.fit_rounds, check)
        if len(seen) > 1:
            out.failures.append(f"{label}: readout differs between fits")
        return seen[0]

    def build(self, case_id: int, full_size: int):
        case = self.api.case_config(case_id, size=self.size(full_size), seed=self.data_seed)
        built = []
        [block] = speed.run_blocks(lambda: self.api.build_case(case), speed.FIT, 1,
                                   built.append)
        return case, built[0], block

    def prepare(self) -> tuple[speed.Block, dict]:
        """Build this workload's inputs; return the build time and fingerprints."""
        raise NotImplementedError

    def job(self) -> JobOutcome:
        raise NotImplementedError


class NonlinearFit(Workload):
    name = "nonlinear_fit"
    cases = ((4, 2000), (5, 3000))

    def prepare(self):
        self.inputs, builds, prints = [], [], {}
        for case_id, full_size in self.cases:
            case, ds, block = self.build(case_id, full_size)
            self.inputs.append((case, ds))
            builds.append(block)
            prints[f"case{case_id}"] = fingerprint(ds)
        return speed.Block(1, *(sum(b[i] for b in builds) for i in (1, 2))), prints

    def job(self):
        out = JobOutcome()
        for case, ds in self.inputs:
            train, test = self.api.split(ds, TRAIN_FRACTION, SPLIT_SEED)
            trunk = self.trunk(case.domain)
            for kind, width in (("rffn", 2000), ("jl", 100)):
                label = f"case{case.id}_{kind}"
                branch = self.branch(kind, width, case.m)
                model = self.fit(out, label, self.api.train_aligned, train, trunk, branch)
                self.score(out, label, model, test.U, test.y, test.V)
        return out


class PendulumData(Workload):
    name = "pendulum_data"
    fit_rounds = 10
    data_in_job = True
    # The first build of a process runs as the warm-up: it and the fits and
    # evaluate calls after it run up to a third faster than in later jobs,
    # whose system time and page faults have climbed (allocation churn), so
    # mixing it into the timed jobs doubled their spread. Later jobs fall
    # into two page-fault levels (3.3 and 2.6 million), so two are timed.

    def prepare(self):
        return speed.Block(1, 0.0, 0.0), {}  # the job generates its dataset

    def job(self):
        out = JobOutcome()
        case, ds, build = self.build(2, 3000)
        out.data_s = build.wall_s
        out.fingerprints["case2"] = fingerprint(ds)
        train, test = self.api.split(ds, TRAIN_FRACTION, SPLIT_SEED)
        model = self.fit(out, "case2_jl", self.api.train_aligned, train, self.trunk(case.domain),
                         self.branch("jl", 100, case.m))
        self.score(out, "case2_jl", model, test.U, test.y, test.V)
        return out


class ScatteredFit(Workload):
    name = "scattered_fit"
    # Its builds last a second: more of them steady the median in data_s.
    setup_rounds = 5
    points_per_function = 5

    def prepare(self):
        case, ds, build = self.build(1, 1000)
        train, self.test = self.api.split(ds, TRAIN_FRACTION, SPLIT_SEED)
        rng = np.random.default_rng(self.seed)
        funcs = rng.choice(train.n_functions, self.size(500), replace=False)
        # One point in each of 5 equal strata of the output grid, so every
        # draw covers the interval alike and the test MSE varies less by seed.
        width = train.y.size // self.points_per_function
        offsets = rng.integers(0, width, (funcs.size, self.points_per_function))
        rows = (offsets + width * np.arange(self.points_per_function)).ravel()
        cols = np.repeat(funcs, self.points_per_function)
        self.samples = self.api.UnalignedDataset(
            U=train.U[:, cols], Y=train.y[rows][None, :], V=train.V[rows, cols]
        )
        self.case = case
        return build, {"case1": fingerprint(ds)}

    def job(self):
        out = JobOutcome()
        model = self.fit(out, "case1_scattered", self.api.train_unaligned, self.samples,
                         self.trunk(self.case.domain, 50), self.branch("jl", 40, self.case.m))
        self.score(out, "case1_scattered", model, self.test.U, self.test.y, self.test.V)
        return out


WORKLOADS = {w.name: w for w in (NonlinearFit, PendulumData, ScatteredFit)}
