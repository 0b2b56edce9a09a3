"""Print a JSON manifest of the bits randonet computes, or check one.

    python3 tools/bits.py > bits.json
    python3 tools/bits.py --check bits.json

The manifest holds:

* ``machine``: what else the bits depend on: the numpy and scipy versions,
  each one's BLAS name and version, numpy's enabled CPU features, the
  usable-CPU count, the CPU model and ``OPENBLAS_NUM_THREADS``;
* ``datasets``: the fingerprint of each seed-12 paper-size case dataset,
  cases 1-5, as the harness reports it;
* ``models``: the fits of acceptance criteria 1-6 and three more, all at
  data seed 12, embedding seed 1, split seed 7 and solver 'cod'. It runs
  each row of the criteria's table (``case1_jl``, ``case1_jl_limited`` at
  train fraction 0.15, ``case2_rffn``, ``case2_jl``, ``case3_jl``,
  ``case4_rffn``, ``case4_jl40`` and ``case5_rffn``) through
  ``randonet.harness.run_experiment``, and ``case4_jl`` and ``case5_jl``,
  JL(100) at train fraction 0.8, the same way. ``case1_scattered`` is the
  unaligned model of ``perfbench``'s scattered workload, with the
  harness's specs. An entry holds the numerical ranks, the rank
  tolerances as ``float.hex``, the SHA-256 of the readout and of the test
  predictions (a report row's ``trace``) and the test MSE as
  ``float.hex``.

``--check FILE`` first compares the machine entry and names each field
that differs from FILE's. The dataset builds call no BLAS, so their
fingerprints depend on the numpy and scipy versions and numpy's CPU
features alone (``DATASET_KEY``): if one of those differs, it exits 2
without building anything, since the bits of another machine say nothing
about the code. If only other fields differ, it builds the datasets,
compares their fingerprints and names the model entries it skips.
Otherwise it builds a fresh manifest. It prints one line for each compared
entry that differs from FILE's, and exits 1 if any does, 0 if none does.
``tests/data/bits.json`` is the committed manifest, made at
``OPENBLAS_NUM_THREADS=1``; check it at that setting. The whole run took
9.4-11 s there on a 2-core x86-64 Xeon. randonet is imported from
``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import randonet  # noqa: E402
from randonet import acceptance  # noqa: E402
from randonet._parallel import usable_cpus  # noqa: E402
from randonet.harness import (  # noqa: E402
    _dataset_fingerprint, _trace, branch_spec_for, dataset_for, run_experiment, trunk_spec_for)

# The unaligned benchmark model: trunk and JL branch widths, training
# functions and output points drawn per function.
SCATTERED = dict(trunk=50, branch=40, functions=500, points=5)
# The machine fields the dataset fingerprints depend on; the models depend
# on every field.
DATASET_KEY = ("numpy", "scipy", "numpy_cpu_features")


def cpu_model() -> str:
    """The CPU's model name where Linux tells it, else the platform's word."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    """The facts besides the code that the manifest's bits depend on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    def blas(package) -> str:
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "numpy_cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
        "usable_cpus": usable_cpus(),
        "cpu_model": cpu_model(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def model_entry(trace: dict, test_mse: float) -> dict:
    """A model's manifest entry: its trace, floats as ``float.hex``, and its test MSE."""
    entry = {key: (value.hex() if isinstance(value, float) else value)
             for key, value in trace.items()}
    return {**entry, "test_mse": test_mse.hex()}


def scattered_samples(train, seed: int = 0):
    """The unaligned training set of the scattered benchmark: one output
    point in each of ``points`` equal strata of the grid per function."""
    rng = np.random.default_rng(seed)
    funcs = rng.choice(train.n_functions, SCATTERED["functions"], replace=False)
    points = SCATTERED["points"]
    width = train.y.size // points
    offsets = rng.integers(0, width, (funcs.size, points))
    rows = (offsets + width * np.arange(points)).ravel()
    cols = np.repeat(funcs, points)
    return randonet.UnalignedDataset(U=train.U[:, cols], Y=train.y[rows][None, :],
                                     V=train.V[rows, cols])


def manifest(fit_models: bool = True) -> dict:
    """Build the five datasets and, unless ``fit_models`` is false, fit the
    models."""
    seed = acceptance._SEEDS["seed_data"]
    cases = {case_id: randonet.case_config(case_id, seed=seed) for case_id in randonet.CASE_IDS}
    fingerprints = {f"case{case_id}": _dataset_fingerprint(dataset_for(case))
                    for case_id, case in cases.items()}
    if not fit_models:
        return {"machine": machine(), "datasets": fingerprints}
    fits = {fit.label: acceptance._cfg(fit.case, fit.branch, [fit.width], fit.fraction)
            for fit in acceptance._FITS}
    # The benchmark models the table lacks: cases 4 and 5 JL(100).
    fits.update({f"case{case_id}_jl": acceptance._cfg(case_id, "jl", [100]) for case_id in (4, 5)})
    models = {}
    for label, cfg in fits.items():
        row = run_experiment(cfg).rows[0]
        models[label] = model_entry(row.trace, row.mse)
    case, width = cases[1], SCATTERED["branch"]
    cfg = acceptance._cfg(1, "jl", [width], trunk_size=SCATTERED["trunk"])
    train, test = randonet.split(dataset_for(case), cfg.train_fraction, cfg.seed_split)
    model = randonet.train_unaligned(scattered_samples(train), trunk_spec_for(cfg, case.domain),
                                     branch_spec_for(cfg, width, case.m))
    pred = randonet.evaluate(model, test.U, test.y)
    models["case1_scattered"] = model_entry(_trace(model, pred), randonet.mse(pred, test.V))
    return {"machine": machine(), "datasets": fingerprints, "models": models}


def differences(want: dict, got: dict, prefix: str = "") -> list[str]:
    """One line for each entry of the nested dicts that differs, is missing
    or is new, named by its dotted path."""
    lines = []
    for key in sorted(set(want) | set(got)):
        name = f"{prefix}{key}"
        if key not in got:
            lines.append(f"{name}: missing (want {want[key]!r})")
        elif key not in want:
            lines.append(f"{name}: new (got {got[key]!r})")
        elif isinstance(want[key], dict) and isinstance(got[key], dict):
            lines += differences(want[key], got[key], f"{name}.")
        elif want[key] != got[key]:
            lines.append(f"{name}: want {want[key]!r}, got {got[key]!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE", help="compare with this manifest")
    args = parser.parse_args(argv)
    if args.check is None:
        print(json.dumps(manifest(), indent=2, sort_keys=True))
        return 0
    want = json.loads(Path(args.check).read_text())
    want_machine, got_machine = want.get("machine", {}), machine()
    fields = [key for key in sorted(set(want_machine) | set(got_machine))
              if want_machine.get(key) != got_machine.get(key)]
    for line in differences(want_machine, got_machine, "machine."):
        print(line)
    if set(fields) & set(DATASET_KEY):
        print(f"bits: the machine differs from {args.check}'s in {len(fields)} fields; "
              "nothing compared")
        return 2
    if fields:
        # Fingerprints only: the models' bits depend on the fields that differ.
        skipped = sorted(want.get("models", {}))
        print(f"bits: the machine differs from {args.check}'s in {', '.join(fields)}; "
              f"skipped {len(skipped)} model entries: {', '.join(skipped)}")
        want = {"datasets": want.get("datasets", {})}
        got = {"datasets": manifest(fit_models=False)["datasets"]}
    else:
        got = manifest()
    lines = differences(want, got)
    for line in lines:
        print(line)
    print(f"bits: {len(lines)} entries differ from {args.check}" if lines
          else f"bits: every entry matches {args.check}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
