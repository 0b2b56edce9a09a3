"""Print a JSON manifest of the bits randonet computes, or check one.

    python3 tools/bits.py > bits.json
    python3 tools/bits.py --check bits.json

The manifest holds:

* ``datasets``: the fingerprint of each seed-12 paper-size case dataset,
  cases 1-5, as the harness reports it;
* ``models``: the six models that ``perfbench/workloads.py`` fits at seed 0
  (data seed 12, embedding seed 1, split seed 7, solver 'cod'): their
  numerical ranks, rank tolerances as ``float.hex``, the SHA-256 of the
  readout and of the test predictions, and the test MSE as ``float.hex``.

``--check FILE`` builds a fresh manifest, prints one line for each entry
that differs from FILE's, and exits 1 if any does. Trained bits depend on
the numpy, scipy and BLAS builds, the usable CPUs and the BLAS thread
count, so compare manifests made on one machine at one setting, for
example ``OPENBLAS_NUM_THREADS=1``. The whole run took about 6 s at that
setting on a 2-core x86-64 Xeon. randonet is imported from ``src/`` next
to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import randonet  # noqa: E402
from randonet.harness import _dataset_fingerprint  # noqa: E402

DATA_SEED = 12
EMBED_SEED = 1
SPLIT_SEED = 7
TRAIN_FRACTION = 0.8
TRUNK_WIDTH = 200
# Label, case, branch kind and branch width of each aligned benchmark model.
ALIGNED_MODELS = (
    ("case4_rffn", 4, "rffn", 2000),
    ("case4_jl", 4, "jl", 100),
    ("case5_rffn", 5, "rffn", 2000),
    ("case5_jl", 5, "jl", 100),
    ("case2_jl", 2, "jl", 100),
)
# The unaligned benchmark model: trunk and JL branch widths, training
# functions and output points drawn per function.
SCATTERED = dict(trunk=50, branch=40, functions=500, points=5)


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


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


def manifest() -> dict:
    """Build the five datasets and fit the six models."""
    cases, datasets = {}, {}
    for case_id in randonet.CASE_IDS:
        cases[case_id] = randonet.case_config(case_id, seed=DATA_SEED)
        datasets[case_id] = randonet.build_case(cases[case_id])
    splits = {case_id: randonet.split(ds, TRAIN_FRACTION, SPLIT_SEED)
              for case_id, ds in datasets.items()}
    models = {}
    for label, case_id, kind, width in ALIGNED_MODELS:
        train, test = splits[case_id]
        model = randonet.train_aligned(train, *specs(cases[case_id], kind, width))
        models[label] = model_entry(model, test)
    train, test = splits[1]
    model = randonet.train_unaligned(scattered_samples(train), *specs(
        cases[1], "jl", SCATTERED["branch"], SCATTERED["trunk"]))
    models["case1_scattered"] = model_entry(model, test)
    return {"datasets": {f"case{case_id}": _dataset_fingerprint(ds)
                         for case_id, ds in datasets.items()},
            "models": models}


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
    got = manifest()
    if args.check is None:
        print(json.dumps(got, indent=2, sort_keys=True))
        return 0
    lines = differences(json.loads(Path(args.check).read_text()), got)
    for line in lines:
        print(line)
    print(f"bits: {len(lines)} entries differ from {args.check}" if lines
          else f"bits: every entry matches {args.check}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
