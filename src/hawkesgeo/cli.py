"""Command-line surface: simulate, fit, evaluate, diagnose, discretize, export.

Every option can also be supplied through ``--config file.json`` (keys are the
long option names with underscores); explicit flags win over the file, the
file wins over built-in defaults, and unknown keys are rejected.  Exit status
is 0 on success, 1 on usage errors, 2 on malformed data or artifacts or a
file that cannot be read or written, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from .diagnostics import EvalSplit, attribution_hellinger, background_qq, \
    categorical_accuracy, kendall_distance_correlation, phi_rmse, split_eval
from .em import MODES, FitConfig, NumericalError, fit
from .io import SCHEMA_VERSION, DataFormatError, _type_labels, check_writable, \
    discretize_counts, load_counts_csv, load_embedding_csv, load_events_csv, \
    load_model, load_report, read_json, reorder_to_labels, save_events_csv, \
    save_model, save_report, write_curve_csv, write_embedding_csv, write_json, \
    write_qq_csv
from .model import EmbeddingPair, ModelParams, influence_matrix
from .simulate import sample_ground_truth, simulate_thinning
from .spectral import init_params


class UsageError(Exception):
    """Bad or inconsistent options; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on its own; route errors through the
    # dispatcher instead so it owns the exit status.
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    """Type of every float option: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


_FIT = {f.name: f.default for f in fields(FitConfig)}

# Each subcommand's options as (flag, kind, default, help); kind is a type or
# a tuple of allowed values, and a None default means "not given".  The config
# file's accepted keys are exactly these options.  The fit options named like
# FitConfig's fields become its fields, with its defaults (``_FIT``).
_OPTIONS = {
    "simulate": (
        ("--n", int, None, "number of event types (required)"),
        ("--m", int, 2, "embedding dimension"),
        ("--R", int, 1, "number of kernel bases"),
        ("--N", int, None, "target number of events (stop after the Nth)"),
        ("--T", _finite_float, None, "time horizon (alternative to --N)"),
        ("--seed", int, 0, "seed for sampling and simulation"),
        ("--out-events", str, "events.csv", "events CSV path"),
        ("--out-truth", str, "truth_model.json", "ground-truth model path"),
    ),
    "fit": (
        ("--events", str, None, "events CSV path (required)"),
        ("--mode", MODES, _FIT["mode"], "estimator mode"),
        ("--epochs", int, _FIT["epochs"], "EM epochs"),
        ("--R", int, _FIT["R"], "number of kernel bases"),
        ("--m", int, None, f"embedding dimension (default {_FIT['m']}, or the frozen "
                           "embedding's)"),
        ("--eps", _finite_float, _FIT["eps"], "hhg-a learning rate (default n/N)"),
        ("--eps1", _finite_float, _FIT["eps1"], "hhg-b curvature regularizer (default off)"),
        ("--eps2", _finite_float, _FIT["eps2"],
         "hhg-b shrinkage regularizer (hhg-b needs eps1 or eps2)"),
        ("--dm-alpha", _finite_float, _FIT["dm_alpha"], "density-normalization exponent"),
        ("--inner-steps", int, _FIT["inner_steps"], "hhg-b inner steps per epoch"),
        ("--prior-alpha", _finite_float, _FIT["prior_alpha"], "Gamma prior shape on decay rates"),
        ("--prior-beta", _finite_float, _FIT["prior_beta"], "Gamma prior rate on decay rates"),
        ("--frozen-embedding", str, None,
         "coordinates CSV; required for geo, an initialization for hhg-*, none for frb"),
        ("--horizon", _finite_float, None, "override the record horizon"),
        ("--train-end", _finite_float, None, "drop events at or after this time before fitting"),
        ("--out", str, "model.json", "best-scoring model path"),
        ("--out-final", str, None, "also write the last-epoch model here"),
        ("--report", str, None, "fit report path (learning curve etc.)"),
    ),
    "evaluate": (
        ("--events", str, None, "events CSV path (required)"),
        ("--model", str, None, "model path (required)"),
        ("--split-time", _finite_float, None, "train/test boundary"),
        ("--test-days", _finite_float, None, "alternative: test window is the last so many days"),
        ("--horizon", _finite_float, None, "override the record horizon"),
        ("--out", str, None, "write the JSON summary here instead of stdout"),
    ),
    "diagnose": (
        ("--events", str, None, "events CSV path (required)"),
        ("--model", str, None, "fitted model path (required)"),
        ("--truth-model", str, None, "ground-truth model; enables recovery metrics"),
        ("--split-time", _finite_float, None, "train/test boundary for split metrics"),
        ("--test-days", _finite_float, None, "alternative: test window is the last so many days"),
        ("--horizon", _finite_float, None, "override the record horizon"),
        ("--seed", int, 0, "seed for residual sampling"),
        ("--out", str, None, "write the JSON report here instead of stdout"),
    ),
    "discretize": (
        ("--counts", str, None, "counts CSV path (required)"),
        ("--threshold", _finite_float, 10.0, "count increment per event"),
        ("--out", str, "events.csv", "events CSV path"),
    ),
    "export": (
        ("--what", ("embedding", "curve", "qq"), None, "what to export"),
        ("--model", str, None, "model path (for --what embedding)"),
        ("--report", str, None, "fit report path (for --what curve)"),
        ("--diagnostics", str, None, "diagnose output path (for --what qq)"),
        ("--out", str, None, "output CSV path"),
    ),
}


def _build_parser(command: str | None, defaults: dict | None = None) -> _Parser:
    """A parser of every subcommand, so usage, help and an unknown command read the
    same, with the options of ``command`` alone: no other command's are parsed.
    ``defaults`` (a config file's values) replace the built-in ones of ``command``."""
    parser = _Parser(prog="hawkesgeo",
                     description="Hawkes processes with latent geometric "
                                 "excitation structure.")
    sub = parser.add_subparsers(dest="command")
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, help=_COMMANDS[name].__doc__)
        if name != command:
            continue
        for flag, kind, default, help_ in options:
            if default is not None:
                help_ += " (default %(default)s)"
            if isinstance(kind, tuple):
                p.add_argument(flag, default=default, choices=kind, help=help_)
            else:
                p.add_argument(flag, default=default, type=kind, help=help_)
        p.add_argument("--config", default=None, help="JSON file with option values")
        p.set_defaults(**(defaults or {}))
    return parser


def _config_defaults(args: argparse.Namespace, parser: _Parser) -> dict:
    """The ``--config`` file's non-null values, each converted and checked by
    ``parser`` as its flag's text."""
    doc = read_json(args.config)
    unknown = sorted(set(doc) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise UsageError(f"unknown config keys for {args.command}: " + ", ".join(unknown))
    values = {}
    for key, value in doc.items():
        if value is not None:
            flag = f"--{key.replace('_', '-')}={value}"
            try:
                values[key] = getattr(parser.parse_args([args.command, flag]), key)
            except UsageError as exc:
                raise UsageError(f"config file {args.config}: {exc}") from None
    return values


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _load_aligned_model(path, record):
    """Load a model and reorder its types to match the record's labels."""
    params, labels = load_model(path, with_labels=True)
    target = _type_labels(record.labels, record.n)
    if list(labels) == target:
        return params
    return reorder_to_labels(params, labels, target)


def _record_and_model(args):
    """The ``--events`` record and the ``--model`` aligned to its labels."""
    _require(args, "events", "model")
    record = load_events_csv(args.events, horizon=args.horizon)
    return record, _load_aligned_model(args.model, record)


def _split_time(args, record) -> float | None:
    if args.split_time is not None and args.test_days is not None:
        raise UsageError("give either --split-time or --test-days, not both")
    if args.split_time is not None:
        return args.split_time
    if args.test_days is not None:
        t = record.horizon - args.test_days
        if t < 0.0:
            raise UsageError("--test-days exceeds the record horizon")
        return t
    return None


def _frozen_embedding(args, record):
    emb_labels, X, Y = load_embedding_csv(args.frozen_embedding)
    target = _type_labels(record.labels, record.n)
    missing = [lab for lab in target if lab not in emb_labels]
    if missing:
        raise DataFormatError("embedding file lacks coordinates for: "
                              + ", ".join(missing))
    perm = [emb_labels.index(lab) for lab in target]
    X = X[perm]
    Y = X if Y is None else Y[perm]
    return EmbeddingPair(X, Y)


def _opt_float(v):
    # a zero-intensity event scores -inf and a collapsed embedding has no
    # distance ranking (nan); keep the document strict JSON
    if v is None or not np.isfinite(v):
        return None
    return float(v)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    """sample a ground truth and a record from it"""
    _require(args, "n")
    if args.N is None and args.T is None:
        raise UsageError("give --N or --T")
    # Independent child streams so the truth draw does not shift the
    # simulation draw when only one of them changes.
    s_truth, s_sim = np.random.SeedSequence(args.seed).spawn(2)
    truth = sample_ground_truth(args.n, m=args.m, R=args.R, seed=s_truth)
    record = simulate_thinning(truth, T=args.T, seed=s_sim, target_events=args.N)
    save_events_csv(record, args.out_events)
    save_model(truth.params, args.out_truth)
    print(f"simulate: {record.N} events over {record.n} types, horizon "
          f"{record.horizon:.6g} -> {args.out_events}, {args.out_truth}")
    return 0


def _fit_config(args) -> FitConfig:
    given = {f.name: getattr(args, f.name) for f in fields(FitConfig)}
    try:  # an unset --m takes FitConfig's default
        return FitConfig(**{key: v for key, v in given.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_fit(args) -> int:
    """estimate a model from an event record"""
    _require(args, "events")
    if args.mode == "geo" and args.frozen_embedding is None:
        raise UsageError("mode geo requires --frozen-embedding")
    if args.mode == "frb" and args.frozen_embedding is not None:
        raise UsageError("mode frb has no embedding; drop --frozen-embedding")
    record = load_events_csv(args.events, horizon=args.horizon)
    if args.train_end is not None:
        record = record.truncated(args.train_end)
    if record.N == 0:
        raise DataFormatError("cannot fit an empty record")

    init = None
    if args.frozen_embedding is not None:
        emb = _frozen_embedding(args, record)
        if args.m is not None and args.m != emb.reception.shape[1]:
            raise UsageError("--m disagrees with the frozen embedding's dimension")
        args.m = emb.reception.shape[1]
    config = _fit_config(args)
    if args.frozen_embedding is not None:
        init = init_params(record, R=config.R, m=config.m,
                           alpha=config.dm_alpha, embedding=emb)
    for target in filter(None, (args.out, args.out_final, args.report)):
        check_writable(target)  # before the fit, not after its last epoch

    report = fit(record, config, init=init)
    if report.best_epoch < 0:
        print(f"fit[{config.mode}]: aborted at epoch {report.aborted_epoch} with no finite "
              "epoch (non-finite objective); wrote nothing", file=sys.stderr)
        return 3

    save_model(report.params_best, args.out, labels=record.labels)
    if args.out_final is not None:
        save_model(report.params_final, args.out_final, labels=record.labels)
    if args.report is not None:
        save_report(report, args.report, config=asdict(config))

    best_ll = report.curve[report.best_epoch]
    print(f"fit[{config.mode}]: {report.curve.size} epochs, best train "
          f"log-likelihood {best_ll:.6f} at epoch {report.best_epoch} "
          f"({report.wall_time:.1f}s) -> {args.out}")
    if report.aborted_epoch is not None:
        print(f"fit[{config.mode}]: aborted at epoch {report.aborted_epoch} "
              "(non-finite objective); wrote the last finite snapshot",
              file=sys.stderr)
        return 3
    return 0


def _split_scores(record, params, split_time) -> dict:
    """The split fields of the evaluate and diagnose documents."""
    train, test = split_eval(record, params, EvalSplit(split_time))
    n_train = int(np.sum(record.times < split_time))
    return {"n_train": n_train, "n_test": record.N - n_train,
            "train_ll_per_event": _opt_float(train),
            "test_ll_per_event": _opt_float(test)}


def _cmd_evaluate(args) -> int:
    """per-event log-likelihood across a time split"""
    record, params = _record_and_model(args)
    split_time = _split_time(args, record)
    if split_time is None:
        raise UsageError("give --split-time or --test-days")
    doc = {"schema_version": SCHEMA_VERSION, "split_time": split_time,
           **_split_scores(record, params, split_time)}
    write_json(doc, args.out)
    return 0


def _cmd_diagnose(args) -> int:
    """residual and recovery diagnostics for a fit"""
    record, params = _record_and_model(args)
    doc = {"schema_version": SCHEMA_VERSION, "train_ll_per_event": None,
           "test_ll_per_event": None, "n_train": record.N, "n_test": 0,
           "hellinger": None, "phi_rmse": None, "kendall_tau": None, "notes": []}

    split_time = _split_time(args, record)
    window = (0.0, record.horizon)
    if split_time is not None:
        doc.update(_split_scores(record, params, split_time))
        window = (split_time, record.horizon)

    accuracy, accuracy_naive = categorical_accuracy(record, params, window)
    doc["accuracy"] = _opt_float(accuracy)
    doc["accuracy_naive"] = _opt_float(accuracy_naive)
    qq_points = background_qq(record, params, seed=args.seed)
    doc["qq_points"] = [] if qq_points is None else qq_points.tolist()

    if args.truth_model is not None:
        truth = _load_aligned_model(args.truth_model, record)
        doc["hellinger"] = _opt_float(attribution_hellinger(record, params, truth))
        doc["phi_rmse"] = _opt_float(phi_rmse(influence_matrix(params),
                                              influence_matrix(truth)))
        if isinstance(params, ModelParams) and isinstance(truth, ModelParams):
            doc["kendall_tau"] = _opt_float(kendall_distance_correlation(
                params.embedding, truth.embedding))
            if doc["kendall_tau"] is None:
                doc["notes"].append("kendall_tau is null: an embedding has all cross "
                                    "distances equal (collapsed), so it ranks nothing")
        else:
            doc["notes"].append("kendall_tau needs embeddings on both models")
    else:
        doc["notes"].append("no truth model: hellinger/phi_rmse/kendall_tau skipped")
    write_json(doc, args.out)
    return 0


def _cmd_discretize(args) -> int:
    """turn cumulative daily counts into events"""
    _require(args, "counts")
    series = load_counts_csv(args.counts)
    record = discretize_counts(series, threshold=args.threshold)
    save_events_csv(record, args.out)
    print(f"discretize: {record.N} events over {record.n} locations -> {args.out}")
    return 0


def _cmd_export(args) -> int:
    """plot-ready CSVs from saved artifacts"""
    _require(args, "what")
    out = args.out or f"{args.what}.csv"
    if args.what == "embedding":
        _require(args, "model")
        params, labels = load_model(args.model, with_labels=True)
        if not isinstance(params, ModelParams):
            raise UsageError("this model has no embedding to export")
        write_embedding_csv(params, labels, out)
    elif args.what == "curve":
        _require(args, "report")
        write_curve_csv(load_report(args.report), out)
    else:
        _require(args, "diagnostics")
        points = read_json(args.diagnostics).get("qq_points")
        if not isinstance(points, list):
            raise DataFormatError("diagnostics file lacks qq_points")
        write_qq_csv(np.asarray(points, dtype=np.float64).reshape(-1, 2), out)
    print(f"export[{args.what}] -> {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "diagnose": _cmd_diagnose,
    "discretize": _cmd_discretize,
    "export": _cmd_export,
}


def cli_dispatch(argv) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = _build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.config is not None:  # re-parse so explicit flags beat the file
            args = _build_parser(args.command, _config_defaults(args, parser)).parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # invalid values that slipped past flag parsing (bad horizon, etc.)
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
