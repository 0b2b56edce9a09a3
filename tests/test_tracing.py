"""The benchmark's tracer (``perfbench/tracing.py``) on the package.

It wraps entry points by the names their callers look up, so renaming or
dropping one of those names breaks every traced benchmark run; these tests
catch that without running a benchmark.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import randonet
from randonet import embeddings, linalg, model, problems

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The entries and modules ``perfbench/run.py:load_randonet`` hands the tracer.
API_NAMES = (
    "case_config", "build_case", "split", "train_aligned", "train_unaligned", "evaluate",
    "mse", "l2_percentiles", "EmbeddingSpec", "AlignedDataset", "UnalignedDataset",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_dataset_builds_and_restores_every_name():
    api = SimpleNamespace(**{name: getattr(randonet, name) for name in API_NAMES})
    modules = {"problems": problems, "linalg": linalg, "model": model, "embeddings": embeddings}
    owners = (api, problems, linalg, model, embeddings.FeatureMap)
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = load_tracing().Tracer()
    tracer.install(api, modules)
    try:
        for case_id in (4, 2):
            api.build_case(api.case_config(case_id, size=20, seed=3))
    finally:
        tracer.uninstall()

    names = [span[0] for span in tracer.spans]
    assert names.count("problems.build_case") == 2
    assert names.count("funcgen.sample_params") == 2
    assert names.count("odeint.dopri5_batch") == 1
    for name, _, _, parent, _, _ in tracer.spans:
        if name == "funcgen.sample_params":
            assert tracer.spans[parent][0] == "problems.build_case"
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs)
        assert [key for key in attrs if now[key] is not attrs[key]] == []


def test_tracer_counts_the_feature_builds_of_training():
    # Training builds its trunk and branch matrices through FeatureMap.apply,
    # the method the tracer wraps, so embeddings.apply counts them.
    api = SimpleNamespace(**{name: getattr(randonet, name) for name in API_NAMES})
    modules = {"problems": problems, "linalg": linalg, "model": model, "embeddings": embeddings}
    case = api.case_config(1, size=20, seed=3)
    ds = api.build_case(case)
    trunk = api.EmbeddingSpec("tanh", 1, 30, (1, 0), domain=case.domain)
    branch = api.EmbeddingSpec("jl", ds.x.size, 20, (1, 1))
    tracer = load_tracing().Tracer()
    tracer.install(api, modules)
    try:
        api.train_aligned(ds, trunk, branch)
    finally:
        tracer.uninstall()

    names = [span[0] for span in tracer.spans]
    assert names.count("model.train") == 1
    assert names.count("embeddings.apply") == 2


def test_a_split_evaluate_records_one_span_per_feature_map(split_applies):
    # Worker threads run the private range helpers, never the wrapped
    # FeatureMap.apply, so a split apply still counts once.
    api = SimpleNamespace(**{name: getattr(randonet, name) for name in API_NAMES})
    modules = {"problems": problems, "linalg": linalg, "model": model, "embeddings": embeddings}
    case = api.case_config(4, size=40, seed=3)
    ds = api.build_case(case)
    trunk = api.EmbeddingSpec("tanh", 1, 30, (1, 0), domain=case.domain)
    branch = api.EmbeddingSpec("rffn", ds.x.size, 40, (1, 1), bandwidth=float(ds.x.size))
    fitted = api.train_aligned(ds, trunk, branch)
    ranges = split_applies(2)
    tracer = load_tracing().Tracer()
    tracer.install(api, modules)
    try:
        api.evaluate(fitted, ds.U, ds.y)
    finally:
        tracer.uninstall()

    names = [span[0] for span in tracer.spans]
    assert names.count("embeddings.apply") == 2
    # The y grid (100 points) and the 40 functions each fill two ranges.
    assert len(ranges) == 4
