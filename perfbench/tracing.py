"""In-memory span tracing of the randonet layers, installed from outside.

A :class:`Tracer` replaces the public functions at the names their callers
look up (module globals of ``problems`` and ``linalg``, the
``FeatureMap.apply`` method, ``model.build_feature_map``) and the API
entries the benchmark itself calls with wrappers that record one span per
call: name, start, end, parent span, job label and a few attributes.
Nothing inside ``src/`` is edited; :meth:`Tracer.uninstall` puts every
original object back.

Flop and byte counts are computed from array shapes with textbook
formulas, not measured by hardware counters; metric names say so in
``COMPUTED``.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path

MODULES = ("funcgen", "odeint", "problems", "embeddings", "linalg", "model", "harness")

# Per-layer metrics whose values come from shape formulas, not counters.
COMPUTED = (
    "linalg.factorize.flops",
    "linalg.factorize.gflop_per_s",
    "embeddings.apply.flops",
    "embeddings.apply.gflop_per_s",
    "model.collocation_bytes",
)

_BENCH_API = {
    "build_case": "problems.build_case",
    "split": "harness.split",
    "mse": "harness.mse",
    "l2_percentiles": "harness.l2_percentiles",
    "train_aligned": "model.train",
    "train_unaligned": "model.train",
    "evaluate": "model.evaluate",
}


def _qr_flops(rows: int, cols: int) -> float:
    """Householder QR (geqrf/geqp3): 2 K k^2 - 2 k^3 / 3, k = min, K = max."""
    k, big = min(rows, cols), max(rows, cols)
    return 2.0 * big * k * k - 2.0 * k**3 / 3.0


def _orgqr_flops(rows: int, k: int) -> float:
    """Forming the rows-by-k orthogonal factor from k reflectors."""
    return 2.0 * rows * k * k - 2.0 * k**3 / 3.0


def cod_factorize_flops(shape, rank: int) -> float:
    """Two pivoted QRs of ``linalg.cod_factorize`` plus their Q formations."""
    rows, cols = shape
    k = min(rows, cols)
    flops = _qr_flops(rows, cols) + _orgqr_flops(rows, k)
    if rank:
        flops += _qr_flops(cols, rank) + _orgqr_flops(cols, rank)
    return flops


def _feature_dim(spec_or_map) -> int:
    spec = getattr(spec_or_map, "spec", spec_or_map)
    return int(spec.feature_dim)


class Tracer:
    """Records spans from wrapped randonet entry points.

    ``job`` labels every span recorded until it is changed; the benchmark
    sets it to ``setup``, ``warmup`` or the job number.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, attrs]
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> dict:
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        return span[5]

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped to record a span; ``attrs(args, kwargs, out)``
        may return extra attributes for the span."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span_attrs = self._close(index)
            if attrs is not None:
                span_attrs.update(attrs(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, api, randonet_modules) -> None:
        """Wrap the benchmark's ``api`` entries and the package internals."""
        problems = randonet_modules["problems"]
        linalg = randonet_modules["linalg"]
        model = randonet_modules["model"]
        embeddings = randonet_modules["embeddings"]

        for attr, name in _BENCH_API.items():
            attrs = self._train_attrs if name == "model.train" else None
            if name == "problems.build_case":
                self._patch(api, attr, self._rusage_wrap(name, getattr(api, attr)))
            else:
                self._patch(api, attr, self.wrap(name, getattr(api, attr), attrs))

        self._patch(problems, "dopri5_batch", self._dopri_wrap(problems.dopri5_batch))
        self._patch(problems, "sample_params", self.wrap("funcgen.sample_params",
                                                         problems.sample_params))
        for attr in sorted(vars(problems)):
            if attr.startswith("eval_") and callable(getattr(problems, attr)):
                self._patch(problems, attr, self.wrap("funcgen.eval", getattr(problems, attr)))

        for attr in linalg.__all__:
            fn = getattr(linalg, attr)
            if isinstance(fn, type) or not callable(fn):
                continue
            if attr.endswith("_factorize"):
                self._patch(linalg, attr, self.wrap("linalg.factorize", fn, self._factor_attrs))
            elif attr.endswith("_pinv_apply"):
                self._patch(linalg, attr, self.wrap("linalg.pinv_apply", fn))
            else:
                self._patch(linalg, attr, self.wrap(f"linalg.{attr}", fn))

        self._patch(model, "build_feature_map", self.wrap("embeddings.build",
                                                          model.build_feature_map))
        self._patch(embeddings.FeatureMap, "apply",
                    self.wrap("embeddings.apply", embeddings.FeatureMap.apply,
                              self._feature_attrs))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers with attributes -------------------------------------------

    def _rusage_wrap(self, name, fn):
        def traced(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                span_attrs = self._close(index)
                after = resource.getrusage(resource.RUSAGE_SELF)
                span_attrs.update(
                    cpu_user_s=after.ru_utime - before.ru_utime,
                    cpu_sys_s=after.ru_stime - before.ru_stime,
                    minor_faults=after.ru_minflt - before.ru_minflt,
                )

        traced.__wrapped__ = fn
        return traced

    def _dopri_wrap(self, fn):
        def rhs_attrs(args, kwargs, out):
            return {"rows": int(args[1].shape[0])}

        def dopri_attrs(args, kwargs, out):
            values, ok = out
            return {"failed_samples": int(ok.size - ok.sum())}

        def traced(f, *args, **kwargs):
            return dopri(self.wrap("odeint.rhs", f, rhs_attrs), *args, **kwargs)

        dopri = self.wrap("odeint.dopri5_batch", fn, dopri_attrs)
        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _factor_attrs(args, kwargs, out):
        shape = tuple(int(v) for v in out.shape)
        rank = int(getattr(out, "numerical_rank", getattr(out, "rank", min(shape))))
        attrs = {"shape": shape, "rank": rank}
        if type(out).__name__ == "CODFactors":
            attrs["flops"] = cod_factorize_flops(shape, rank)
        return attrs

    @staticmethod
    def _feature_attrs(args, kwargs, out):
        fmap, x = args[0], args[1]
        features, inputs = fmap.weights.shape
        columns = 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[1])
        # One multiply-add per weight and column, plus bias and activation.
        return {"flops": float(columns) * features * (2.0 * inputs + 2.0)}

    @staticmethod
    def _train_attrs(args, kwargs, out):
        ds, trunk, branch = args[0], args[1], args[2]
        samples = getattr(ds, "n_samples", None)
        if samples is None:
            return {"collocation_bytes": 0}
        return {"collocation_bytes": 8 * _feature_dim(trunk) * _feature_dim(branch) * samples}

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, **attrs}) + "\n")


def span_overhead_s(calls: int = 20000) -> float:
    """Measured cost of one traced call over a direct call, in seconds."""

    def noop(*args):
        return args

    tracer = Tracer()
    traced = tracer.wrap("calibrate", noop)
    best = []
    for fn in (noop, traced):
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                fn(1)
            runs.append(time.perf_counter() - start)
            tracer.spans.clear()
        best.append(min(runs))
    return max(best[1] - best[0], 0.0) / calls


def _self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    self_t = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, job, attrs in spans:
        if parent >= 0:
            self_t[parent] -= end - start
    return self_t


def layer_metrics(tracer: Tracer, setup_rounds: int, job_walls: dict, per_span_s: float):
    """Per-layer metrics of a traced run, each per setup round plus per job.

    Spans labelled ``setup`` are summed and divided by ``setup_rounds``;
    spans of numbered jobs are summed per job and the median over jobs is
    taken. Counts repeat exactly from job to job, so their medians are
    exact. Ratios are taken over the pooled totals.
    """
    spans = tracer.spans
    self_t = _self_times(spans)
    jobs = sorted(job_walls)
    acc = {"setup": {}}
    for job in jobs:
        acc[job] = {}

    def add(job, key, value):
        bucket = acc.get(job)
        if bucket is not None:
            bucket[key] = bucket.get(key, 0.0) + value

    for i, (name, start, end, parent, job, attrs) in enumerate(spans):
        dur = end - start
        module = name.split(".")[0]
        add(job, f"{module}.self_s", self_t[i])
        add(job, "trace.spans", 1)
        add(job, "trace.overhead_s", per_span_s)
        if parent < 0:
            add(job, "covered_s", dur)
        if name == "odeint.rhs":
            add(job, "odeint.rhs.s", dur)
            add(job, "odeint.rhs.calls", 1)
            add(job, "odeint.rhs.rows", attrs["rows"])
        elif name == "odeint.dopri5_batch":
            add(job, "odeint.dopri5_batch.self_s", self_t[i])
            add(job, "odeint.failed_samples", attrs["failed_samples"])
        elif name == "problems.build_case":
            add(job, "problems.build_case.self_s", self_t[i])
            add(job, "problems.build_case.cpu_user_s", attrs["cpu_user_s"])
            add(job, "problems.build_case.cpu_sys_s", attrs["cpu_sys_s"])
            add(job, "problems.build_case.minor_faults", attrs["minor_faults"])
        elif name == "funcgen.sample_params":
            add(job, "funcgen.sample_params.s", dur)
        elif name == "funcgen.eval":
            add(job, "funcgen.eval.s", dur)
            add(job, "funcgen.eval.calls", 1)
        elif name == "linalg.factorize":
            add(job, "linalg.factorize.s", dur)
            add(job, "linalg.factorize.calls", 1)
            add(job, "linalg.factorize.flops", attrs.get("flops", 0.0))
            add(job, "rank", attrs["rank"])
            add(job, "rank_max", min(attrs["shape"]))
        elif name == "linalg.pinv_apply":
            add(job, "linalg.pinv_apply.s", dur)
        elif name == "embeddings.build":
            add(job, "embeddings.build.s", dur)
        elif name == "embeddings.apply":
            add(job, "embeddings.apply.s", dur)
            add(job, "embeddings.apply.calls", 1)
            add(job, "embeddings.apply.flops", attrs["flops"])
        elif name == "model.train":
            add(job, "model.train.self_s", self_t[i])
            add(job, "model.collocation_bytes", attrs["collocation_bytes"])
        elif name == "model.evaluate":
            add(job, "model.evaluate.self_s", self_t[i])
        if module == "harness":
            add(job, "harness.s", dur)
    for job in jobs:
        acc[job]["bench.self_s"] = job_walls[job] - acc[job].get("covered_s", 0.0)
        acc[job]["trace.job_s"] = job_walls[job]

    def value(key):
        setup = acc["setup"].get(key, 0.0) / setup_rounds
        return setup + statistics.median(acc[job].get(key, 0.0) for job in jobs)

    def pooled(key):
        return acc["setup"].get(key, 0.0) + sum(acc[job].get(key, 0.0) for job in jobs)

    def rate(flops_key, time_key):
        seconds = pooled(time_key)
        return pooled(flops_key) / seconds / 1e9 if seconds > 0 else 0.0

    out = {}
    for key, unit in PER_LAYER_UNITS.items():
        if key == "trace.untraced_job_s":
            continue  # filled in by the caller, which ran that job
        if key == "linalg.factorize.gflop_per_s":
            out[key] = rate("linalg.factorize.flops", "linalg.factorize.s")
        elif key == "embeddings.apply.gflop_per_s":
            out[key] = rate("embeddings.apply.flops", "embeddings.apply.s")
        elif key == "linalg.rank_ratio":
            rank_max = pooled("rank_max")
            out[key] = pooled("rank") / rank_max if rank_max else 0.0
        else:
            out[key] = value(key)
        if unit in ("count", "flop", "B") and float(out[key]).is_integer():
            out[key] = int(out[key])
    return out


PER_LAYER_UNITS = {
    "odeint.rhs.s": "s",
    "odeint.rhs.calls": "count",
    "odeint.rhs.rows": "count",
    "odeint.dopri5_batch.self_s": "s",
    "odeint.failed_samples": "count",
    "problems.build_case.self_s": "s",
    "problems.build_case.cpu_user_s": "s",
    "problems.build_case.cpu_sys_s": "s",
    "problems.build_case.minor_faults": "count",
    "funcgen.sample_params.s": "s",
    "funcgen.eval.s": "s",
    "funcgen.eval.calls": "count",
    "linalg.factorize.s": "s",
    "linalg.factorize.calls": "count",
    "linalg.factorize.flops": "flop",
    "linalg.factorize.gflop_per_s": "GFLOP/s",
    "linalg.pinv_apply.s": "s",
    "linalg.rank_ratio": "ratio",
    "embeddings.build.s": "s",
    "embeddings.apply.s": "s",
    "embeddings.apply.calls": "count",
    "embeddings.apply.flops": "flop",
    "embeddings.apply.gflop_per_s": "GFLOP/s",
    "model.train.self_s": "s",
    "model.evaluate.self_s": "s",
    "model.collocation_bytes": "B",
    "harness.s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
    "bench.self_s": "s",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
