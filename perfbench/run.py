"""randonet benchmark: one workload per call, end-to-end or traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload nonlinear_fit --seed 0 --seconds 10 --trace 0

The command imports randonet from ``src/`` of the checkout (nothing needs
installing), sets the workload up, then runs jobs for ``--seconds``
seconds and at least twice. It prints every metric by name with its unit,
then one JSON line with the per-job record and the machine facts, then, as
its last line, the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run in which :mod:`tracing` wraps the package's entry points;
that run also writes its spans to ``perfbench/out/``.

Set-up (``setup_s``) is the import, the median of three (``scattered_fit``:
five) builds of the workload's inputs, and one full job as the warm-up, at
real sizes; its outputs must equal every timed job's. At least two timed
jobs follow. The end-to-end metrics:

* ``job_s``: mean job time, its fit and evaluate blocks paced (see
  below) and the rest in wall time. On ``pendulum_data`` jobs drift
  (allocation churn: system time and page faults climb from job to job);
  the warm-up is the first job of the process and the timed jobs the
  next, and the detail line holds the resource use of each.
* ``data_s``: ``pendulum_data``, mean per-job ``build_case`` time; the
  others, the median of the input builds made in set-up and between jobs,
  paced like the fits (see below).
* ``fit_s``: per model, the median time of one ``train_*`` call over the
  run, summed over the job's models.
* ``predict_fn_per_s``: the test functions of one ``evaluate`` call per
  model, over the sum of each model's median call time over the run.
* ``mse_digits``: ``-log10`` of the worst test MSE of a job.
* ``peak_rss_mb``: peak resident memory of the process.
* ``success_rate``: jobs whose outputs passed every check, over jobs run.

Fit and evaluate calls last milliseconds to seconds and are timed in
blocks paced by a fixed reference kernel (``speed.py``), and so are the
input builds made ahead of the jobs: ``fit_s``, ``predict_fn_per_s`` and
those ``data_s`` are at the kernel's nominal machine speed, and their
wall-time values are printed beside them and kept in the detail line
(``wall_time``). The other times are wall time without the kernel runs.
Every timing is a median or mean over the run, never the fastest call: a
best-of figure flips between the fast and the usual speed of the host.

BLAS runs single-threaded unless ``OPENBLAS_NUM_THREADS`` is set: on a
small shared machine a second BLAS thread makes the short solves and
evaluations swing by up to 10x from run to run, and the thread count also
moves the last bits of the MSEs the checks compare.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_JOBS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "data_s": "s",
    "fit_s": "s",
    "predict_fn_per_s": "1/s",
    "mse_digits": "digits",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class SourceMissing(RuntimeError):
    pass


def load_randonet():
    """Import randonet from this checkout's ``src/`` and the benchmark modules.

    Returns ``(api, modules)``: the public entry points the workloads call,
    and the package modules the tracer wraps.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = ROOT / "src"
    if not (src / "randonet" / "__init__.py").is_file():
        raise SourceMissing(f"no randonet package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import randonet
    from randonet import embeddings, linalg, model, problems

    if not Path(randonet.__file__).resolve().is_relative_to(src):
        raise SourceMissing(f"randonet imported from {randonet.__file__}, not {src}")
    api = SimpleNamespace(**{name: getattr(randonet, name) for name in (
        "case_config", "build_case", "split", "train_aligned", "train_unaligned", "evaluate",
        "mse", "l2_percentiles", "EmbeddingSpec", "AlignedDataset", "UnalignedDataset",
    )})
    modules = {"problems": problems, "linalg": linalg, "model": model, "embeddings": embeddings}
    return api, modules


def _openblas_threads(package):
    """Thread count of the OpenBLAS bundled with ``package`` (numpy or scipy)."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                  f"{package.__name__}.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(package):
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "randonet").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def _rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


class Run:
    """One benchmark process: set-up rounds, warm-up, then timed jobs."""

    def __init__(self, api, modules, workload_cls, seed, seconds, trace, scale=1.0):
        from tracing import Tracer

        self.api, self.modules = api, modules
        self.workload = workload_cls(api, seed, scale)
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.checks: list[str] = []
        self.reference = None
        self.prints = None
        self.rounds: list[dict] = []
        self.jobs: list[dict] = []

    def _label(self, job):
        if self.tracer is not None:
            self.tracer.job = job

    def _compare(self, what: str, outputs: dict) -> list[str]:
        if self.reference is None:
            self.reference = outputs
            return []
        if outputs != self.reference:
            return [f"{what}: outputs {outputs} differ from the first {self.reference}"]
        return []

    def build_round(self) -> None:
        """Build the workload's inputs once more; they must not change."""
        import speed

        self._label("setup")
        start, spent = time.perf_counter(), speed.spent_s()
        build, prints = self.workload.prepare()
        self.rounds.append({"prepare_s": time.perf_counter() - start - (speed.spent_s() - spent),
                            "build": build})
        if self.prints is not None and prints != self.prints:
            self.checks.append(f"rebuilt inputs {prints} differ from the first {self.prints}")
        self.prints = prints

    def setup(self) -> dict:
        import speed

        wl = self.workload
        for _ in range(wl.setup_rounds):
            self.build_round()
        self._label("warmup")
        before = _rusage()
        start, spent = time.perf_counter(), speed.spent_s()
        warm = wl.job()
        warmup_s = time.perf_counter() - start - (speed.spent_s() - spent)
        after = _rusage()
        self.checks.extend(warm.failures)
        self.checks.extend(self._compare("warm-up", warm.outputs()))
        return {
            "prepare_s": [r["prepare_s"] for r in self.rounds],
            "warmup_s": warmup_s,
            "warmup_cpu_user_s": after[0] - before[0],
            "warmup_cpu_sys_s": after[1] - before[1],
            "warmup_minor_faults": after[2] - before[2],
            "fingerprints": self.prints,
        }

    def one_job(self, label) -> dict:
        import speed

        self._label(label)
        before = _rusage()
        start, spent = time.perf_counter(), speed.spent_s()
        try:
            out = self.workload.job()
            failures = list(out.failures)
        except Exception:  # a failing job is counted, reported and the run goes on
            traceback.print_exc(file=sys.stderr)
            out, failures = None, [f"job raised: {traceback.format_exc(limit=1).strip()}"]
        kernel_s = speed.spent_s() - spent
        wall = time.perf_counter() - start - kernel_s
        after = _rusage()
        record = {"job": label, "wall_s": wall, "kernel_s": kernel_s,
                  "cpu_user_s": after[0] - before[0], "cpu_sys_s": after[1] - before[1],
                  "minor_faults": after[2] - before[2]}
        if out is not None:
            failures += self._compare(f"job {label}", out.outputs())
            blocks = [b for group in (out.fit_blocks, out.eval_blocks)
                      for model in group.values() for b in model]
            record.update(paced_s=wall + sum(b.scaled_s - b.wall_s for b in blocks),
                          data_s=out.data_s, fit_blocks=out.fit_blocks,
                          eval_blocks=out.eval_blocks, eval_functions=out.eval_functions,
                          mse=out.mse, l2=out.l2,
                          fingerprints=out.fingerprints, outputs=out.outputs())
        record["failures"] = failures
        return record

    def measure(self) -> None:
        """Run jobs; where inputs are built in set-up, rebuild them between
        jobs, so that data_s samples the whole run and not one stretch of it."""
        start = time.perf_counter()
        while len(self.jobs) < MIN_JOBS or time.perf_counter() - start < self.seconds:
            if self.jobs and not self.workload.data_in_job:
                self.build_round()
            self.jobs.append(self.one_job(len(self.jobs)))

    def execute(self, import_s: float):
        tracer = self.tracer
        try:
            if tracer is not None:
                tracer.install(self.api, self.modules)
            setup = self.setup()
            if tracer is not None:
                # An untraced job first: traced outputs must equal it bit for bit.
                tracer.uninstall()
                reference = self.one_job("untraced")
                self.checks.extend(reference["failures"])
                tracer.install(self.api, self.modules)
            self.measure()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup["import_s"] = import_s
        setup["builds"] = [r["build"] for r in self.rounds]
        setup["setup_s"] = import_s + statistics.median(setup["prepare_s"]) + setup["warmup_s"]
        failed = sum(1 for job in self.jobs if job["failures"])
        detail = {"workload": self.workload.name, "seed": self.workload.seed,
                  "data_seed": self.workload.data_seed, "seconds": self.seconds,
                  "trace": tracer is not None, "setup": setup, "jobs": self.jobs,
                  "checks": self.checks}
        if tracer is None:
            metrics = self.end_to_end(setup, failed)
            detail["wall_time"] = self.paced(setup, scaled=False)
        else:
            metrics = self.per_layer(reference)
            detail["untraced_reference"] = reference
        result = {
            "correct": failed == 0 and not self.checks,
            "attempted": len(self.jobs),
            "failed": failed,
            "metrics": metrics,
        }
        return result, detail

    def end_to_end(self, setup, failed) -> dict:
        ok = [job for job in self.jobs if "mse" in job]
        worst = max((max(job["mse"].values()) for job in ok), default=1.0)
        values = {
            "setup_s": setup["setup_s"],
            **self.paced(setup, scaled=True),
            "mse_digits": -math.log10(worst),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (len(self.jobs) - failed) / len(self.jobs),
        }
        return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}

    def paced(self, setup, scaled: bool) -> dict:
        """``job_s``, ``data_s``, ``fit_s`` and ``predict_fn_per_s``, paced
        by the reference kernels (``scaled``) or in wall time; ``fit_s`` and
        ``predict_fn_per_s`` from each model's median call over the run.
        ``pendulum_data``'s ``data_s`` is wall time either way."""
        ok = [job for job in self.jobs if "mse" in job]
        if not ok:  # every job raised; the result is then not correct
            return {"job_s": 0.0, "data_s": 0.0, "fit_s": 0.0, "predict_fn_per_s": 0.0}

        def median_call(key):
            return {label: statistics.median(b.per_call(scaled) for job in ok
                                             for b in job[key][label])
                    for label in ok[0][key]}

        return {
            "job_s": statistics.fmean(job["paced_s" if scaled else "wall_s"] for job in ok),
            "data_s": (statistics.fmean(job["data_s"] for job in ok) if self.workload.data_in_job
                       else statistics.median(b.per_call(scaled) for b in setup["builds"])),
            "fit_s": sum(median_call("fit_blocks").values()),
            "predict_fn_per_s": (sum(ok[0]["eval_functions"].values())
                                 / sum(median_call("eval_blocks").values())),
        }

    def per_layer(self, reference) -> dict:
        from tracing import PER_LAYER_UNITS, layer_metrics, span_overhead_s

        walls = {job["job"]: job["wall_s"] for job in self.jobs}
        values = layer_metrics(self.tracer, len(self.rounds), walls, span_overhead_s())
        values["trace.untraced_job_s"] = reference["wall_s"]
        return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        api, modules = load_randonet()
    except (SourceMissing, ImportError) as exc:
        print(f"perfbench: cannot import randonet: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    from tracing import COMPUTED
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run = Run(api, modules, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result, detail = run.execute(import_s)
    detail["machine"] = machine_facts()
    if run.tracer is not None:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["computed_from_shapes"] = list(COMPUTED)
    for job in detail["jobs"]:
        print(f"job {job['job']}: wall {job['wall_s']:.3f} s, "
              f"paced {job.get('paced_s', 0.0):.3f} s, "
              f"user {job['cpu_user_s']:.2f} s, sys {job['cpu_sys_s']:.2f} s, "
              f"minor faults {job['minor_faults']}, "
              f"failures {len(job['failures'])}")
    for name, metric in result["metrics"].items():
        note = " (computed from shapes)" if name in COMPUTED else ""
        if name in detail.get("wall_time", {}):
            note = f" (wall time: {detail['wall_time'][name]:.6g} {metric['unit']})"
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    for check in detail["checks"] + [f for job in detail["jobs"] for f in job["failures"]]:
        print(f"CHECK FAILED: {check}", file=sys.stderr)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
