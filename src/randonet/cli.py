"""Command line interface: run, gen-data, verify.

Flags can also be supplied through a JSON config file (``--config``);
explicit flags win over file values. On failure the process exits nonzero
after printing a one-line JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import acceptance, harness, model, problems

__all__ = ["main", "build_parser"]


def _parse_m_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad branch size list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("branch size list is empty")
    return values


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    # An experiment flag stores to the harness.ExperimentConfig field of its dest.
    sub.add_argument("--case", type=int, choices=problems.CASE_IDS, help="case study id")
    sub.add_argument("--branch", choices=("jl", "rffn"), help="branch embedding kind")
    sub.add_argument("--m", type=_parse_m_list, dest="branch_sizes", metavar="M",
                     help="branch width M, or comma-separated list for sweeps")
    sub.add_argument("--n", type=int, dest="trunk_size", metavar="N",
                     help="trunk width N (default 200)")
    sub.add_argument("--train-frac", type=float, dest="train_fraction", metavar="TRAIN_FRAC",
                     help="training fraction in (0, 1)")
    sub.add_argument("--solver", choices=model.SOLVERS, help="least-squares route")
    sub.add_argument("--lambda", type=float, dest="reg", metavar="LAMBDA",
                     help="Tikhonov regularization weight (tikhonov only)")
    sub.add_argument("--tol", type=float, help="rank tolerance for cod (default auto)")
    sub.add_argument("--bandwidth", type=float, dest="rffn_bandwidth", metavar="BANDWIDTH",
                     help="RFFN kernel bandwidth (default: 5x sensor count)")
    sub.add_argument("--trunk-bound", type=float, dest="trunk_weight_bound",
                     metavar="TRUNK_BOUND",
                     help="tanh trunk weight bound (default: 25 / domain half-width)")
    sub.add_argument("--seed-data", type=int, help="dataset generation seed")
    sub.add_argument("--seed-embed", type=int, help="embedding sampling seed")
    sub.add_argument("--seed-split", type=int, help="train/test split seed")
    sub.add_argument("--size", type=int, dest="dataset_size", metavar="SIZE",
                     help="dataset size override (default per case)")
    sub.add_argument("--cache-dir", help="directory for cached datasets")
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    sub.add_argument("--config", help="JSON file with defaults for these flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="randonet", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="train one model per branch width and report test metrics")
    _add_experiment_flags(run)

    gen = subs.add_parser("gen-data", help="export a case dataset to CSV")
    gen.add_argument("--case", type=int, choices=problems.CASE_IDS, required=True)
    gen.add_argument("--seed-data", type=int, default=0)
    gen.add_argument("--size", type=int, help="dataset size override")
    gen.add_argument("--out", required=True, help="output CSV path")

    ver = subs.add_parser("verify", help="run the acceptance criteria")
    ver.add_argument("--criteria", help="comma-separated criterion ids (default: all)")
    ver.add_argument("--cache-dir", help="directory for cached datasets")
    return parser


def _config_value(key: str, action: argparse.Action, value):
    """A config file value, checked and converted as its flag's would be."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if key == "m" and isinstance(value, list):
        value = ",".join(map(str, value))
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r} must be a string or number, got {value!r}")
    text = str(value)
    try:
        value = action.type(text) if action.type else text
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def _merge_config_file(args: argparse.Namespace) -> None:
    """Fill unset flags from the ``--config`` JSON object.

    Its keys are the flag names (``train_frac``, ``lambda``); ``m`` may be a list.
    """
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(data).__name__}")
    flags = argparse.ArgumentParser(add_help=False)
    _add_experiment_flags(flags)
    actions = {action.option_strings[0][2:].replace("-", "_"): action
               for action in flags._actions if action.dest != "config"}
    unknown = set(data) - set(actions)
    if unknown:
        raise ValueError(f"unknown config file keys: {sorted(unknown)}")
    for key, value in data.items():
        action = actions[key]
        if value is not None:
            value = _config_value(key, action, value)
            # An unset flag holds its default; compared by identity, since 0 == False.
            if getattr(args, action.dest) is (False if action.nargs == 0 else None):
                setattr(args, action.dest, value)


def _experiment_config(args: argparse.Namespace) -> harness.ExperimentConfig:
    """The config of the flags that were set; the others keep the field defaults."""
    if args.case is None:
        raise ValueError("--case is required (flag or config file)")
    given = {field.name: getattr(args, field.name)
             for field in dataclasses.fields(harness.ExperimentConfig)}
    return harness.ExperimentConfig(**{k: v for k, v in given.items() if v is not None})


def _emit_report(report, args) -> None:
    if args.out:
        if args.json:
            harness.write_report_json(report, args.out)
        else:
            harness.write_report_csv(report, args.out)
    header = f"{'case':>4} {'branch':>6} {'M':>6} {'mse':>12} {'l2_median':>12} {'seconds':>9}"
    print(header)
    for row in report.rows:
        print(
            f"{row.case:>4} {row.branch:>6} {row.m_branch:>6} "
            f"{row.mse:>12.4e} {row.l2_median:>12.4e} {row.train_seconds:>9.3f}"
        )
    print(f"dataset fingerprint: {report.dataset_fingerprint}")


def _cmd_run(args) -> int:
    _merge_config_file(args)
    report = harness.run_experiment(_experiment_config(args))
    _emit_report(report, args)
    return 0


def _cmd_gen_data(args) -> int:
    case = problems.case_config(args.case, size=args.size, seed=args.seed_data)
    ds, params = problems.build_case(case, with_params=True)
    problems.export_dataset_csv(args.out, case, ds, params)
    print(f"wrote {case.sampling.size} functions to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    cids = None
    if args.criteria:
        cids = [c.strip() for c in args.criteria.split(",") if c.strip()]
        for cid in cids:
            if cid not in acceptance.CRITERIA:
                raise ValueError(f"unknown criterion {cid!r}")
    results = acceptance.run_criteria(cids, cache_dir=args.cache_dir)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "gen-data": _cmd_gen_data,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
