"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs every workload at a tenth of its size, once untraced and twice
traced, in one process, and checks that:

* each run emits exactly the metrics BENCHMARK.json names, with its units,
  and its outputs pass their checks;
* the traced runs leave every wrapped module, class and API entry as it
  was, and their MSEs and dataset fingerprints equal the untraced run's bit
  for bit;
* two traced runs repeat the integrator's call and row counts exactly.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import sys

import run as bench

SCALE = 0.1


def _snapshot(objects):
    return [(obj, dict(vars(obj))) for obj in objects]


def _changed(snapshot):
    changed = []
    for obj, before in snapshot:
        now = vars(obj)
        for key in set(before) | set(now):
            if before.get(key) is not now.get(key):
                changed.append(f"{getattr(obj, '__name__', type(obj).__name__)}.{key}")
    return changed


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def main() -> int:
    api, modules = bench.load_randonet()
    from workloads import WORKLOADS

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    snapshot = _snapshot([api, modules["problems"], modules["linalg"], modules["model"],
                          modules["embeddings"].FeatureMap])
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names every workload")
    for name, cls in WORKLOADS.items():
        runs = {}
        for label, trace in (("untraced", False), ("traced", True), ("traced again", True)):
            run = bench.Run(api, modules, cls, seed=0, seconds=0.0, trace=trace, scale=SCALE)
            result, detail = run.execute(import_s=0.0)
            runs[label] = (result, detail)
            check(result["correct"] and result["failed"] == 0,
                  f"{name} {label}: outputs pass their checks {detail['checks']}")
            check(_units(result["metrics"]) == want[trace],
                  f"{name} {label}: emits every named metric with its unit")
            check(not _changed(snapshot), f"{name} {label}: no wrapper left installed")
        plain = runs["untraced"][1]["jobs"][0]["outputs"]
        for label in ("traced", "traced again"):
            outputs = [job["outputs"] for job in runs[label][1]["jobs"]]
            check(all(out == plain for out in outputs),
                  f"{name} {label}: MSEs and fingerprints equal the untraced run's")
        counts = [{k: runs[label][0]["metrics"][k]["value"]
                   for k in ("odeint.rhs.calls", "odeint.rhs.rows")}
                  for label in ("traced", "traced again")]
        check(counts[0] == counts[1], f"{name}: traced runs repeat rhs counts {counts[0]}")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
