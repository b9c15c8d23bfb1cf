"""Command-line surface: simulate, fit, evaluate, diagnose, discretize, export.

Every option can also be supplied through ``--config file.json`` (keys are the
long option names with underscores); explicit flags win over the file, the
file wins over built-in defaults, and unknown keys are rejected.  Exit status
is 0 on success, 1 on usage errors, 2 on malformed data or artifacts, 3 on
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .diagnostics import EvalSplit, background_qq, categorical_accuracy, \
    hellinger_divergence, kendall_distance_correlation, phi_rmse, split_eval
from .em import MODES, FitConfig, GammaPrior, NumericalError, e_step, fit
from .io import SCHEMA_VERSION, DataFormatError, discretize_counts, \
    load_counts_csv, load_embedding_csv, load_events_csv, load_model, \
    load_report, read_json, reorder_to_labels, save_events_csv, save_model, \
    save_report, write_curve_csv, write_embedding_csv, write_json, \
    write_qq_csv
from .model import EmbeddingPair, ModelParams, influence_matrix
from .simulate import ground_truth_branching, sample_ground_truth, simulate_thinning
from .spectral import init_params


class UsageError(Exception):
    """Bad or inconsistent options; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on its own; route errors through the
    # dispatcher instead so it owns the exit status.
    def error(self, message):
        raise UsageError(message)


# Each subcommand's options as (flag, kind, default, help); kind is a type or
# a tuple of allowed values.  argparse defaults every option to None so "was
# this flag given" stays decidable; the defaults here apply after the config
# file, whose accepted keys are exactly these options.
_OPTIONS = {
    "simulate": (
        ("--n", int, None, "number of event types (required)"),
        ("--m", int, 2, "embedding dimension"),
        ("--R", int, 1, "number of kernel bases"),
        ("--N", int, None, "target number of events (stop after the Nth)"),
        ("--T", float, None, "time horizon (alternative to --N)"),
        ("--seed", int, 0, "seed for sampling and simulation"),
        ("--out-events", str, "events.csv", "events CSV path"),
        ("--out-truth", str, "truth_model.json", "ground-truth model path"),
    ),
    "fit": (
        ("--events", str, None, "events CSV path (required)"),
        ("--mode", MODES, "hhg-b", "estimator mode"),
        ("--epochs", int, 500, "EM epochs"),
        ("--R", int, 1, "number of kernel bases"),
        ("--m", int, None, "embedding dimension (default 2, or the frozen embedding's)"),
        ("--eps", float, None, "hhg-a learning rate (default n/N)"),
        ("--eps1", float, None, "hhg-b curvature regularizer (default off)"),
        ("--eps2", float, None, "hhg-b shrinkage regularizer (hhg-b needs eps1 or eps2)"),
        ("--dm-alpha", float, 1.0, "density-normalization exponent"),
        ("--inner-steps", int, 4, "hhg-b inner steps per epoch"),
        ("--prior-alpha", float, 1.0, "Gamma prior shape on decay rates"),
        ("--prior-beta", float, 0.0, "Gamma prior rate on decay rates"),
        ("--frozen-embedding", str, None,
         "coordinates CSV; required for geo, otherwise an initialization"),
        ("--horizon", float, None, "override the record horizon"),
        ("--train-end", float, None, "drop events at or after this time before fitting"),
        ("--out", str, "model.json", "best-scoring model path"),
        ("--out-final", str, None, "also write the last-epoch model here"),
        ("--report", str, None, "fit report path (learning curve etc.)"),
    ),
    "evaluate": (
        ("--events", str, None, "events CSV path (required)"),
        ("--model", str, None, "model path (required)"),
        ("--split-time", float, None, "train/test boundary"),
        ("--test-days", float, None, "alternative: test window is the last so many days"),
        ("--horizon", float, None, "override the record horizon"),
        ("--out", str, None, "write the JSON summary here instead of stdout"),
    ),
    "diagnose": (
        ("--events", str, None, "events CSV path (required)"),
        ("--model", str, None, "fitted model path (required)"),
        ("--truth-model", str, None, "ground-truth model; enables recovery metrics"),
        ("--split-time", float, None, "train/test boundary for split metrics"),
        ("--test-days", float, None, "alternative: test window is the last so many days"),
        ("--horizon", float, None, "override the record horizon"),
        ("--seed", int, 0, "seed for residual sampling"),
        ("--out", str, None, "write the JSON report here instead of stdout"),
    ),
    "discretize": (
        ("--counts", str, None, "counts CSV path (required)"),
        ("--threshold", float, 10.0, "count increment per event"),
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="hawkesgeo",
                     description="Hawkes processes with latent geometric "
                                 "excitation structure.")
    sub = parser.add_subparsers(dest="command")
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        for flag, kind, default, help_ in options:
            if default is not None:
                help_ = f"{help_} (default {default})"
            if isinstance(kind, tuple):
                p.add_argument(flag, default=None, choices=kind, help=help_)
            else:
                p.add_argument(flag, default=None, type=kind, help=help_)
        p.add_argument("--config", default=None, help="JSON file with option values")
    return parser


def _resolve(args: argparse.Namespace, parser: _Parser) -> argparse.Namespace:
    """Fill unset options from the config file, then from built-in defaults.

    ``parser`` converts and checks each config value as its flag's text.
    """
    defaults = {flag[2:].replace("-", "_"): default
                for flag, _, default, _ in _OPTIONS[args.command]}
    if args.config is not None:
        doc = read_json(args.config)
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys for {args.command}: "
                             + ", ".join(unknown))
        for key, value in doc.items():
            if getattr(args, key) is None and value is not None:
                flag = f"--{key.replace('_', '-')}={value}"
                try:
                    setattr(args, key, getattr(parser.parse_args([args.command, flag]), key))
                except UsageError as exc:
                    raise UsageError(f"config file {args.config}: {exc}") from None
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def _labels_for(record):
    return list(record.labels) if record.labels else [str(k) for k in range(record.n)]


def _load_aligned_model(path, record):
    """Load a model and reorder its types to match the record's labels."""
    params, labels = load_model(path, with_labels=True)
    target = _labels_for(record)
    if list(labels) == target:
        return params
    return reorder_to_labels(params, labels, target)


def _split_time(args, record) -> float | None:
    if args.split_time is not None and args.test_days is not None:
        raise UsageError("give either --split-time or --test-days, not both")
    if args.split_time is not None:
        return float(args.split_time)
    if args.test_days is not None:
        t = record.horizon - float(args.test_days)
        if t < 0.0:
            raise UsageError("--test-days exceeds the record horizon")
        return t
    return None


def _frozen_embedding(args, record):
    emb_labels, X, Y = load_embedding_csv(args.frozen_embedding)
    target = _labels_for(record)
    missing = [lab for lab in target if lab not in emb_labels]
    if missing:
        raise DataFormatError("embedding file lacks coordinates for: "
                              + ", ".join(missing))
    perm = [emb_labels.index(lab) for lab in target]
    X = X[perm]
    Y = X if Y is None else Y[perm]
    return EmbeddingPair(X, Y)


def _emit_json(doc: dict, path) -> None:
    if path is None:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        write_json(doc, path)


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
    save_model(truth.params, args.out_truth,
               labels=[str(k) for k in range(args.n)])
    print(f"simulate: {record.N} events over {record.n} types, horizon "
          f"{record.horizon:.6g} -> {args.out_events}, {args.out_truth}")
    return 0


def _fit_config(args) -> FitConfig:
    kwargs = dict(
        mode=args.mode, epochs=args.epochs, R=args.R, m=args.m,
        eps=args.eps, eps1=args.eps1, eps2=args.eps2, dm_alpha=args.dm_alpha,
        inner_steps=args.inner_steps,
        prior=GammaPrior(args.prior_alpha, args.prior_beta),
    )
    try:  # unset options take FitConfig's defaults
        return FitConfig(**{key: v for key, v in kwargs.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_fit(args) -> int:
    """estimate a model from an event record"""
    _require(args, "events")
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
    elif args.mode == "geo":
        raise UsageError("mode geo requires --frozen-embedding")
    config = _fit_config(args)
    if args.frozen_embedding is not None:
        init = init_params(record, R=config.R, m=config.m,
                           alpha=config.dm_alpha, embedding=emb)

    report = fit(record, config, init=init)

    labels = _labels_for(record)
    save_model(report.params_best, args.out, labels=labels)
    if args.out_final is not None:
        save_model(report.params_final, args.out_final, labels=labels)
    if args.report is not None:
        recorded = {
            "mode": config.mode, "epochs": config.epochs, "R": config.R,
            "m": config.m, "eps": config.eps, "eps1": config.eps1,
            "eps2": config.eps2, "dm_alpha": config.dm_alpha,
            "inner_steps": config.inner_steps,
            "prior_alpha": config.prior.alpha, "prior_beta": config.prior.beta,
        }
        save_report(report, args.report, config=recorded)

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


def _cmd_evaluate(args) -> int:
    """per-event log-likelihood across a time split"""
    _require(args, "events", "model")
    record = load_events_csv(args.events, horizon=args.horizon)
    params = _load_aligned_model(args.model, record)
    split_time = _split_time(args, record)
    if split_time is None:
        raise UsageError("give --split-time or --test-days")
    train, test = split_eval(record, params, EvalSplit(split_time))
    n_train = int(np.sum(record.times < split_time))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "split_time": split_time,
        "n_train": n_train,
        "n_test": record.N - n_train,
        "train_ll_per_event": _opt_float(train),
        "test_ll_per_event": _opt_float(test),
    }
    _emit_json(doc, args.out)
    return 0


def _cmd_diagnose(args) -> int:
    """residual and recovery diagnostics for a fit"""
    _require(args, "events", "model")
    record = load_events_csv(args.events, horizon=args.horizon)
    params = _load_aligned_model(args.model, record)
    doc = {"schema_version": SCHEMA_VERSION, "train_ll_per_event": None,
           "test_ll_per_event": None, "n_train": record.N, "n_test": 0,
           "hellinger": None, "phi_rmse": None, "kendall_tau": None, "notes": []}

    split_time = _split_time(args, record)
    window = (0.0, record.horizon)
    if split_time is not None:
        train, test = split_eval(record, params, EvalSplit(split_time))
        doc["train_ll_per_event"] = _opt_float(train)
        doc["test_ll_per_event"] = _opt_float(test)
        doc["n_train"] = int(np.sum(record.times < split_time))
        doc["n_test"] = record.N - doc["n_train"]
        window = (split_time, record.horizon)

    accuracy, accuracy_naive = categorical_accuracy(record, params, window)
    doc["accuracy"] = _opt_float(accuracy)
    doc["accuracy_naive"] = _opt_float(accuracy_naive)
    branching = e_step(record, params)
    qq_points = background_qq(record, params, branching, seed=args.seed)
    doc["qq_points"] = [] if qq_points is None else qq_points.tolist()

    if args.truth_model is not None:
        truth = _load_aligned_model(args.truth_model, record)
        doc["hellinger"] = _opt_float(hellinger_divergence(
            branching, ground_truth_branching(record, truth)))
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
    _emit_json(doc, args.out)
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
    if args.what == "embedding":
        _require(args, "model")
        params, labels = load_model(args.model, with_labels=True)
        if not isinstance(params, ModelParams):
            raise UsageError("this model has no embedding to export")
        out = args.out or "embedding.csv"
        write_embedding_csv(params, labels, out)
    elif args.what == "curve":
        _require(args, "report")
        out = args.out or "curve.csv"
        write_curve_csv(load_report(args.report), out)
    else:
        _require(args, "diagnostics")
        points = read_json(args.diagnostics).get("qq_points")
        if not isinstance(points, list):
            raise DataFormatError("diagnostics file lacks qq_points")
        out = args.out or "qq.csv"
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        args = _resolve(args, parser)
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
