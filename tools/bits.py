"""Print a JSON manifest of the bits randonet computes, or check one.

    python3 tools/bits.py > bits.json
    python3 tools/bits.py --check bits.json

The manifest holds:

* ``machine``: what else the bits depend on: the numpy and scipy versions,
  each one's BLAS name and version, numpy's enabled CPU features, the
  usable-CPU count, the CPU model and ``OPENBLAS_NUM_THREADS``;
* ``datasets``: the fingerprint of each seed-12 paper-size case dataset,
  cases 1-5, as the harness reports it;
* ``models``: the six models that ``perfbench/workloads.py`` fits at seed 0
  and the fits of acceptance criteria 1-6 that those lack (case 1 JL(100)
  at train fraction 0.8 and 0.15, case 2 RFFN(2000), case 3 JL(100) and
  case 4 JL(40)), all at data seed 12, embedding seed 1, split seed 7 and
  solver 'cod': their numerical ranks, rank tolerances as ``float.hex``,
  the SHA-256 of the readout and of the test predictions, and the test
  MSE as ``float.hex``.

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
about 7.5 s there on a 2-core x86-64 Xeon. randonet is imported from
``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import randonet  # noqa: E402
from randonet._parallel import usable_cpus  # noqa: E402
from randonet.harness import _dataset_fingerprint  # noqa: E402

DATA_SEED = 12
EMBED_SEED = 1
SPLIT_SEED = 7
TRAIN_FRACTION = 0.8
TRUNK_WIDTH = 200
# Label, case, branch kind, branch width and train fraction of each aligned
# model: the benchmark's, then the acceptance criteria's that it lacks.
ALIGNED_MODELS = (
    ("case4_rffn", 4, "rffn", 2000, TRAIN_FRACTION),
    ("case4_jl", 4, "jl", 100, TRAIN_FRACTION),
    ("case5_rffn", 5, "rffn", 2000, TRAIN_FRACTION),
    ("case5_jl", 5, "jl", 100, TRAIN_FRACTION),
    ("case2_jl", 2, "jl", 100, TRAIN_FRACTION),
    ("case1_jl", 1, "jl", 100, TRAIN_FRACTION),
    ("case1_jl_limited", 1, "jl", 100, 0.15),
    ("case2_rffn", 2, "rffn", 2000, TRAIN_FRACTION),
    ("case3_jl", 3, "jl", 100, TRAIN_FRACTION),
    ("case4_jl40", 4, "jl", 40, TRAIN_FRACTION),
)
# The unaligned benchmark model: trunk and JL branch widths, training
# functions and output points drawn per function.
SCATTERED = dict(trunk=50, branch=40, functions=500, points=5)
# The machine fields the dataset fingerprints depend on; the models depend
# on every field.
DATASET_KEY = ("numpy", "scipy", "numpy_cpu_features")


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


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


def specs(case, kind: str, width: int, trunk_width: int = TRUNK_WIDTH):
    trunk = randonet.EmbeddingSpec(kind="tanh", input_dim=1, feature_dim=trunk_width,
                                   seed=(EMBED_SEED, 0), domain=case.domain)
    branch = randonet.EmbeddingSpec(kind=kind, input_dim=case.m, feature_dim=width,
                                    seed=(EMBED_SEED, 1),
                                    bandwidth=5.0 * case.m if kind == "rffn" else 1.0)
    return trunk, branch


def model_entry(model, test) -> dict:
    """Rank facts, readout and prediction hashes and test MSE of ``model``."""
    pred = randonet.evaluate(model, test.U, test.y)
    entry = {key: (value.hex() if isinstance(value, float) else value)
             for key, value in model.train_metadata.items() if "_rank" in key}
    entry.update(readout_sha256=sha256(model.readout), predictions_sha256=sha256(pred),
                 test_mse=randonet.mse(pred, test.V).hex())
    return entry


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
    cases, datasets = {}, {}
    for case_id in randonet.CASE_IDS:
        cases[case_id] = randonet.case_config(case_id, seed=DATA_SEED)
        datasets[case_id] = randonet.build_case(cases[case_id])
    fingerprints = {f"case{case_id}": _dataset_fingerprint(ds)
                    for case_id, ds in datasets.items()}
    if not fit_models:
        return {"machine": machine(), "datasets": fingerprints}
    models = {}
    for label, case_id, kind, width, fraction in ALIGNED_MODELS:
        train, test = randonet.split(datasets[case_id], fraction, SPLIT_SEED)
        model = randonet.train_aligned(train, *specs(cases[case_id], kind, width))
        models[label] = model_entry(model, test)
    train, test = randonet.split(datasets[1], TRAIN_FRACTION, SPLIT_SEED)
    model = randonet.train_unaligned(scattered_samples(train), *specs(
        cases[1], "jl", SCATTERED["branch"], SCATTERED["trunk"]))
    models["case1_scattered"] = model_entry(model, test)
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
