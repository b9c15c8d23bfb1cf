"""Command-line behavior: flows, option resolution, exit statuses."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest

import hawkesgeo
from hawkesgeo import model
from hawkesgeo.cli import _OPTIONS, _build_parser, _finite_float, cli_dispatch
from hawkesgeo.diagnostics import background_probabilities, background_qq
from hawkesgeo.em import FitConfig, FullRankParams, e_step
from hawkesgeo.io import (
    load_events_csv,
    load_model,
    load_report,
    reorder_to_labels,
    save_model,
)
from hawkesgeo.model import EmbeddingPair, ModelParams, NumericsWarning

COUNTS = ("location,day,cumulative_count\n"
          "LA,0,0\nLA,1,5\nLA,2,25\n"
          "SF,0,0\nSF,1,8\nSF,2,40\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulate -> fit flow shared by the read-only tests below."""
    d = tmp_path_factory.mktemp("cliflow")
    assert cli_dispatch(["simulate", "--n", "3", "--T", "40", "--seed", "1",
                         "--out-events", str(d / "events.csv"),
                         "--out-truth", str(d / "truth.json")]) == 0
    assert cli_dispatch(["fit", "--events", str(d / "events.csv"),
                         "--epochs", "15", "--eps2", "0.1",
                         "--out", str(d / "model.json"),
                         "--out-final", str(d / "final.json"),
                         "--report", str(d / "report.json")]) == 0
    return d


class TestDispatch:
    def test_package_and_cli_import_no_scipy(self):
        # a fresh interpreter, since this one imports scipy for the test oracles
        src = os.path.dirname(os.path.dirname(os.path.abspath(hawkesgeo.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, hawkesgeo, hawkesgeo.cli; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_no_command_is_a_usage_error(self, capsys):
        assert cli_dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(_OPTIONS))
    def test_every_command_help_shows_its_defaults(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a help text
        assert cli_dispatch([command, "--help"]) == 0
        entries = capsys.readouterr().out.split("\n  -")  # one per option
        for flag, _, default, _ in _OPTIONS[command]:
            [entry] = [e for e in entries if e.split()[0] == flag[1:]]
            if default is not None:
                assert f"(default {default})" in entry, entry
            else:
                assert "(default None)" not in entry, entry

    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["calibrate"]) == 1

    def test_unparseable_flag_value(self, capsys):
        assert cli_dispatch(["fit", "--events", "x.csv", "--epochs", "many"]) == 1

    def test_unknown_mode_rejected(self, capsys):
        assert cli_dispatch(["fit", "--events", "x.csv", "--mode", "psychic"]) == 1

    def test_config_keys_are_the_parsed_options(self, tmp_path, capsys):
        commands = ("simulate", "fit", "evaluate", "diagnose", "discretize", "export")
        names = {c: set(vars(_build_parser(c).parse_args([c]))) - {"command", "config"}
                 for c in commands}
        every = set().union(*names.values())
        cfg = tmp_path / "cfg.json"
        for command in commands:
            # null values leave every option unset, so each run stops at its
            # first missing required option
            cfg.write_text(json.dumps(dict.fromkeys(names[command])))
            assert cli_dispatch([command, "--config", str(cfg)]) == 1
            assert "unknown config keys" not in capsys.readouterr().err
            for key in sorted(every - names[command]):
                cfg.write_text(json.dumps({key: None}))
                assert cli_dispatch([command, "--config", str(cfg)]) == 1
                assert f"unknown config keys for {command}: {key}" in capsys.readouterr().err

    def test_config_cannot_name_config_or_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key in ("config", "command"):
            cfg.write_text(json.dumps({key: "fit"}))
            assert cli_dispatch(["fit", "--config", str(cfg)]) == 1
            assert f"unknown config keys for fit: {key}\n" in capsys.readouterr().err

    def test_float_options_reject_non_finite_values(self, capsys):
        for command, options in _OPTIONS.items():
            for flag, kind, _, _ in options:
                if kind is _finite_float:
                    for value in ("nan", "inf", "-inf"):
                        assert cli_dispatch([command, f"{flag}={value}"]) == 1
                        assert (f"argument {flag}: '{value}' is not a finite number"
                                in capsys.readouterr().err)


class TestSimulate:
    def test_missing_required_options(self, tmp_path, capsys):
        assert cli_dispatch(["simulate", "--T", "5"]) == 1
        assert "--n is required" in capsys.readouterr().err
        assert cli_dispatch(["simulate", "--n", "3"]) == 1
        assert "--N or --T" in capsys.readouterr().err

    def test_stopping_rule_out_of_range_exits_2(self, tmp_path, capsys):
        for flag, value, message in (("--T", "0", "positive and finite"),
                                     ("--T", "-3", "positive and finite"),
                                     ("--N", "-1", "at least 0")):
            assert cli_dispatch(["simulate", "--n", "2", flag, value,
                                 "--out-events", str(tmp_path / "ev.csv"),
                                 "--out-truth", str(tmp_path / "truth.json")]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "ev.csv").exists()

    def test_writes_both_artifacts(self, tmp_path, capsys):
        rc = cli_dispatch(["simulate", "--n", "2", "--T", "20", "--seed", "3",
                           "--out-events", str(tmp_path / "ev.csv"),
                           "--out-truth", str(tmp_path / "truth.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulate:" in out
        record = load_events_csv(tmp_path / "ev.csv")
        assert record.n == 2 and record.N > 0
        params = load_model(tmp_path / "truth.json")
        assert params.n == 2

    def test_event_target_stops_exactly(self, tmp_path):
        assert cli_dispatch(["simulate", "--n", "2", "--N", "25", "--seed", "7",
                             "--out-events", str(tmp_path / "ev.csv"),
                             "--out-truth", str(tmp_path / "truth.json")]) == 0
        assert load_events_csv(tmp_path / "ev.csv").N == 25

    def test_same_seed_is_byte_identical(self, tmp_path):
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            assert cli_dispatch(["simulate", "--n", "3", "--T", "15",
                                 "--seed", "11",
                                 "--out-events", str(tmp_path / sub / "ev.csv"),
                                 "--out-truth", str(tmp_path / sub / "truth.json"),
                                 ]) == 0
        for name in ("ev.csv", "truth.json"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b

    def test_different_seeds_differ(self, tmp_path):
        for seed in ("1", "2"):
            assert cli_dispatch(["simulate", "--n", "3", "--T", "15",
                                 "--seed", seed,
                                 "--out-events", str(tmp_path / f"ev{seed}.csv"),
                                 "--out-truth", str(tmp_path / f"tr{seed}.json"),
                                 ]) == 0
        assert ((tmp_path / "ev1.csv").read_bytes()
                != (tmp_path / "ev2.csv").read_bytes())


class TestFit:
    def test_missing_events_flag(self, capsys):
        assert cli_dispatch(["fit"]) == 1
        assert "--events is required" in capsys.readouterr().err

    def test_nonexistent_events_file(self, tmp_path, capsys):
        assert cli_dispatch(["fit", "--events", str(tmp_path / "no.csv")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_geo_needs_frozen_embedding(self, workdir, capsys):
        assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                             "--mode", "geo"]) == 1
        assert "frozen-embedding" in capsys.readouterr().err

    def test_artifacts_of_the_shared_fit(self, workdir):
        params = load_model(workdir / "model.json")
        assert params.n == 3 and params.m == 2 and params.R == 1
        doc = load_report(workdir / "report.json")
        assert doc["mode"] == "hhg-b"
        assert doc["epochs_run"] == len(doc["curve"]) == 15
        assert doc["aborted_epoch"] is None
        assert 0 <= doc["best_epoch"] < 15
        assert doc["curve"][doc["best_epoch"]] == max(doc["curve"])
        record = load_events_csv(workdir / "events.csv")
        assert len(doc["p_background"]) == record.N
        assert np.all(np.isfinite(doc["curve"]))
        assert load_model(workdir / "final.json").n == 3

    def test_report_background_is_the_saved_models(self, workdir):
        record = load_events_csv(workdir / "events.csv")
        want = background_probabilities(record, load_model(workdir / "model.json"))
        assert load_report(workdir / "report.json")["p_background"] == want.tolist()

    def test_too_short_a_span_exits_2_in_every_mode(self, tmp_path, capsys):
        # the span is two denormals, so the initial decay rate 1 / t_hat overflows
        events = tmp_path / "ev.csv"
        events.write_text("type,time\na,0\nb,5e-324\na,1e-323\n")
        emb = tmp_path / "emb.csv"
        emb.write_text("type_label,coord_1,coord_2\na,0.0,0.0\nb,1.0,1.0\n")
        for flags in (["--mode", "hhg-a"], ["--mode", "hhg-b", "--eps2", "0.1"],
                      ["--mode", "hhg-dm"], ["--mode", "frb"],
                      ["--mode", "geo", "--frozen-embedding", str(emb)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli_dispatch(["fit", "--events", str(events),
                                     "--out", str(tmp_path / "m.json")] + flags) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and "decay rate" in err
            assert err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_config_file_fills_unset_flags_only(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "mode": "frb", "eps2": 0.1}))
        rc = cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                           "--mode", "hhg-b", "--config", str(cfg),
                           "--out", str(tmp_path / "m.json"),
                           "--report", str(tmp_path / "r.json")])
        assert rc == 0
        doc = load_report(tmp_path / "r.json")
        assert doc["mode"] == "hhg-b"  # explicit flag beats the file
        assert doc["config"]["epochs"] == 3  # file beats the built-in 500

    def test_unknown_config_key(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epoch": 3}))
        assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                             "--config", str(cfg)]) == 1
        assert "epoch" in capsys.readouterr().err

    def test_malformed_config_file(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                             "--config", str(cfg)]) == 2
        assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                             "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"epochs": "many"}, "argument --epochs: invalid int value: 'many'"),
        ({"epochs": 2.7}, "argument --epochs: invalid int value: '2.7'"),
        ({"eps2": [0.1]}, "argument --eps2: invalid float value: '[0.1]'"),
        ({"mode": "psychic"}, "argument --mode: invalid choice: 'psychic'"),
        ({"eps2": math.nan}, "argument --eps2: 'nan' is not a finite number"),
        ({"eps": math.inf}, "argument --eps: 'inf' is not a finite number"),
        ({"prior_alpha": -math.inf}, "argument --prior-alpha: '-inf' is not a finite"),
    ])
    def test_config_values_converted_like_flags(self, workdir, tmp_path, capsys,
                                                doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in doc.items()]
        for given in (["--config", str(cfg)], flags):
            assert cli_dispatch(["fit", "--events", str(workdir / "events.csv")]
                                + given) == 1
            assert message in capsys.readouterr().err

    def test_config_value_errors_name_the_file(self, workdir, tmp_path, capsys):
        # a bad value is refused even where an explicit flag would override it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": "many"}))
        for flags in ([], ["--epochs", "3"]):
            assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                                 "--config", str(cfg)] + flags) == 1
            assert capsys.readouterr().err == (f"usage error: config file {cfg}: argument "
                                               "--epochs: invalid int value: 'many'\n")

    def test_options_are_the_config_fields(self, workdir, capsys, monkeypatch):
        table = {flag[2:].replace("-", "_"): default
                 for flag, _, default, _ in _OPTIONS["fit"]}
        files = {"events", "frozen_embedding", "horizon", "train_end", "out",
                 "out_final", "report"}
        defaults = {f.name: f.default for f in fields(FitConfig)}
        assert table.keys() - files == defaults.keys()
        for name, default in defaults.items():
            # m stays unset so that a frozen embedding's dimension can fill it
            assert table[name] == (None if name == "m" else default), name
        monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a help text
        assert cli_dispatch(["fit", "--help"]) == 0
        entries = capsys.readouterr().out.split("\n  -")  # one per option
        for name, default in defaults.items():
            flag = "-" + name.replace("_", "-")
            [entry] = [e for e in entries if e.split()[0] == flag]
            if default is not None:
                assert f"(default {default}" in entry, entry
        config = load_report(workdir / "report.json")["config"]
        assert config.keys() == {"mode", "epochs", "R", "m", "eps", "eps1", "eps2",
                                 "dm_alpha", "inner_steps", "prior_alpha", "prior_beta"}

    def test_frozen_embedding_round_trip(self, workdir, tmp_path):
        emb = tmp_path / "emb.csv"
        assert cli_dispatch(["export", "--what", "embedding",
                             "--model", str(workdir / "truth.json"),
                             "--out", str(emb)]) == 0
        rc = cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                           "--mode", "geo", "--epochs", "5",
                           "--frozen-embedding", str(emb),
                           "--out", str(tmp_path / "geo.json")])
        assert rc == 0
        truth, tlabels = load_model(workdir / "truth.json", with_labels=True)
        fitted, flabels = load_model(tmp_path / "geo.json", with_labels=True)
        # the fitted model lists types in record order; align before comparing
        fitted = reorder_to_labels(fitted, flabels, tlabels)
        assert np.array_equal(fitted.embedding.reception,
                              truth.embedding.reception)
        assert np.array_equal(fitted.embedding.influence,
                              truth.embedding.influence)

    def test_frozen_embedding_dimension_clash(self, workdir, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        assert cli_dispatch(["export", "--what", "embedding",
                             "--model", str(workdir / "truth.json"),
                             "--out", str(emb)]) == 0
        assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                             "--mode", "geo", "--m", "3",
                             "--frozen-embedding", str(emb)]) == 1
        assert "disagrees" in capsys.readouterr().err
        # without --m the file's dimension is used, not the default 2
        emb3 = tmp_path / "emb3.csv"
        emb3.write_text("type_label,coord_1,coord_2,coord_3\n"
                        "0,0.0,0.1,0.2\n1,0.5,0.3,0.9\n2,1.0,0.8,0.4\n")
        base = ["fit", "--events", str(workdir / "events.csv"), "--mode", "geo",
                "--epochs", "2", "--frozen-embedding", str(emb3),
                "--out", str(tmp_path / "geo3.json")]
        assert cli_dispatch(base) == 0
        assert load_model(tmp_path / "geo3.json").m == 3
        assert cli_dispatch(base + ["--m", "2"]) == 1
        assert "disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize("frozen", [False, True])
    def test_header_only_events_are_a_data_error(self, tmp_path, capsys, frozen):
        # refused before the frozen embedding is read and a time scale asked of no events
        events, emb = tmp_path / "events.csv", tmp_path / "emb.csv"
        events.write_text("type,time\n")
        emb.write_text("type_label,coord_1,coord_2\n0,0.0,0.1\n")
        out = tmp_path / "model.json"
        extra = ["--mode", "geo", "--frozen-embedding", str(emb)] if frozen else []
        assert cli_dispatch(["fit", "--events", str(events), "--out", str(out)] + extra) == 2
        assert "data error: cannot fit an empty record" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, frozen, msg", [
        ("frb", True, "mode frb has no embedding"),  # the full-rank baseline has none
        ("geo", False, "mode geo requires --frozen-embedding"),
    ])
    def test_mode_and_frozen_embedding_clash_before_any_file_is_read(
            self, tmp_path, capsys, mode, frozen, msg):
        missing = str(tmp_path / "missing.csv")
        extra = ["--frozen-embedding", missing] if frozen else []
        assert cli_dispatch(["fit", "--events", missing, "--mode", mode] + extra) == 1
        assert f"usage error: {msg}" in capsys.readouterr().err

    def test_directory_inputs_are_data_errors(self, workdir, tmp_path, capsys):
        events = str(workdir / "events.csv")
        for argv in (["--events", str(tmp_path)],
                     ["--events", events, "--mode", "geo", "--frozen-embedding", str(tmp_path)]):
            assert cli_dispatch(["fit"] + argv) == 2
            assert f"data error: cannot read {tmp_path}: " in capsys.readouterr().err

    def test_unwritable_out_is_a_data_error(self, workdir, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before its outputs were checked")

        monkeypatch.setattr("hawkesgeo.cli.fit", no_fit)
        (tmp_path / "taken").mkdir()
        fine = str(tmp_path / "fine.json")
        for flag in ("--out", "--out-final", "--report"):
            for target in (tmp_path / "absent" / "m.json", tmp_path / "taken"):
                outputs = {"--out": fine, flag: str(target)}
                argv = [word for pair in outputs.items() for word in pair]
                assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                                     "--mode", "frb", "--epochs", "1"] + argv) == 2
                assert f"data error: cannot write {target}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]

    def test_frozen_embedding_missing_labels(self, workdir, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        emb.write_text("type_label,coord_1,coord_2\n0,0.0,0.0\n1,1.0,1.0\n")
        assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                             "--mode", "geo",
                             "--frozen-embedding", str(emb)]) == 2
        assert "lacks coordinates" in capsys.readouterr().err

    def test_train_end_truncates_the_record(self, workdir, tmp_path):
        rc = cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                           "--epochs", "2", "--eps2", "0.1", "--train-end", "20.0",
                           "--out", str(tmp_path / "m.json"),
                           "--report", str(tmp_path / "r.json")])
        assert rc == 0
        record = load_events_csv(workdir / "events.csv")
        n_kept = int(np.sum(record.times < 20.0))
        assert len(load_report(tmp_path / "r.json")["p_background"]) == n_kept

    def test_train_end_past_the_horizon_is_a_data_error(self, workdir, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr("hawkesgeo.cli.fit", lambda *a, **k: pytest.fail("fit ran"))
        record = load_events_csv(workdir / "events.csv")
        assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                             "--mode", "frb", "--epochs", "3",
                             "--train-end", repr(record.horizon * 1000.0),
                             "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "past the record horizon" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_runaway_step_aborts_with_status_3(self, workdir, tmp_path, capsys):
        rc = cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                           "--mode", "hhg-a", "--eps", "1e290",
                           "--epochs", "8",
                           "--out", str(tmp_path / "m.json"),
                           "--report", str(tmp_path / "r.json")])
        assert rc == 3
        assert "aborted" in capsys.readouterr().err
        # the best finite snapshot is still written, with its background share
        assert load_model(tmp_path / "m.json").n == 3
        doc = load_report(tmp_path / "r.json")
        assert doc["aborted_epoch"] is not None
        record = load_events_csv(workdir / "events.csv")
        want = background_probabilities(record, load_model(tmp_path / "m.json"))
        assert doc["p_background"] == want.tolist()

    def test_no_finite_epoch_exits_3_and_writes_nothing(self, workdir, tmp_path, capsys,
                                                       monkeypatch):
        # a full-rank start whose influence is 1e308 leaves the finite regime
        # at epoch 0, so the report has an empty curve and best_epoch -1
        from hawkesgeo import cli

        real_fit = cli.fit

        def overflowing_fit(record, config, init=None):
            phi = np.full((record.n, record.n), 1e308)
            return real_fit(record, config, init=FullRankParams(phi, [1.0], [1.0],
                                                                np.full(record.n, 0.1)))

        monkeypatch.setattr(cli, "fit", overflowing_fit)
        for budget in (model.PAIR_CACHE, 0):  # the kept pairs, then the scan
            monkeypatch.setattr(model, "PAIR_CACHE", budget)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericsWarning)
                rc = cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                                   "--mode", "frb", "--epochs", "3",
                                   "--out", str(tmp_path / "m.json"),
                                   "--report", str(tmp_path / "r.json")])
            assert rc == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "aborted at epoch 0 with no finite epoch" in err
            assert list(tmp_path.iterdir()) == []

    def test_invalid_hyperparameter_is_a_usage_error(self, workdir, capsys):
        for flags in (["--epochs", "0"], ["--eps2", "0.1", "--prior-alpha", "0"]):
            assert cli_dispatch(["fit", "--events", str(workdir / "events.csv")]
                                + flags) == 1
        assert "prior requires alpha > 0" in capsys.readouterr().err


class TestEvaluate:
    def test_required_flags(self, workdir, capsys):
        assert cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                             ]) == 1
        assert "--model is required" in capsys.readouterr().err
        assert cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                             "--model", str(workdir / "model.json")]) == 1
        assert "--split-time or --test-days" in capsys.readouterr().err

    def test_split_flags_are_exclusive(self, workdir, capsys):
        assert cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                             "--model", str(workdir / "model.json"),
                             "--split-time", "10", "--test-days", "5"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_stdout_summary(self, workdir, capsys):
        rc = cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                           "--model", str(workdir / "model.json"),
                           "--split-time", "30"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["split_time"] == 30.0
        record = load_events_csv(workdir / "events.csv")
        assert doc["n_train"] + doc["n_test"] == record.N
        assert doc["train_ll_per_event"] < 0.0 or doc["train_ll_per_event"] > 0.0

    def test_out_file_instead_of_stdout(self, workdir, tmp_path, capsys):
        out = tmp_path / "eval.json"
        rc = cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                           "--model", str(workdir / "model.json"),
                           "--split-time", "30", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["split_time"] == 30.0

    def test_test_days_matches_split_time(self, workdir, capsys):
        record = load_events_csv(workdir / "events.csv")
        rc = cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                           "--model", str(workdir / "model.json"),
                           "--test-days", "10"])
        assert rc == 0
        by_days = json.loads(capsys.readouterr().out)
        rc = cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                           "--model", str(workdir / "model.json"),
                           "--split-time", repr(record.horizon - 10.0)])
        assert rc == 0
        by_time = json.loads(capsys.readouterr().out)
        assert by_days == by_time

    def test_test_days_beyond_horizon(self, workdir, capsys):
        assert cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                             "--model", str(workdir / "model.json"),
                             "--test-days", "1e9"]) == 1

    def test_model_labels_align_to_record(self, workdir, tmp_path, capsys):
        params, labels = load_model(workdir / "model.json", with_labels=True)
        shuffled = reorder_to_labels(params, labels, ["2", "0", "1"])
        save_model(shuffled, tmp_path / "shuffled.json", labels=["2", "0", "1"])
        args = ["evaluate", "--events", str(workdir / "events.csv"),
                "--split-time", "30", "--model"]
        assert cli_dispatch(args + [str(workdir / "model.json")]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert cli_dispatch(args + [str(tmp_path / "shuffled.json")]) == 0
        assert json.loads(capsys.readouterr().out) == direct

    @pytest.mark.parametrize("labels", [5, None, "abcd"])
    def test_model_type_labels_not_a_list(self, workdir, tmp_path, capsys, labels):
        doc = json.loads((workdir / "model.json").read_text())
        doc["type_labels"] = labels
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                             "--model", str(tmp_path / "bad.json"),
                             "--split-time", "30"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "type_labels must be a list" in err
        assert err.count("\n") == 1

    def test_horizon_override_must_clear_events(self, workdir, capsys):
        assert cli_dispatch(["evaluate", "--events", str(workdir / "events.csv"),
                             "--model", str(workdir / "model.json"),
                             "--split-time", "5", "--horizon", "1.0"]) == 2


class TestDiagnose:
    def test_full_report_with_truth(self, workdir, capsys):
        rc = cli_dispatch(["diagnose", "--events", str(workdir / "events.csv"),
                           "--model", str(workdir / "model.json"),
                           "--truth-model", str(workdir / "truth.json"),
                           "--test-days", "10"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("hellinger", "phi_rmse", "kendall_tau", "accuracy",
                    "accuracy_naive", "train_ll_per_event", "test_ll_per_event"):
            assert isinstance(doc[key], float), key
        assert 0.0 <= doc["hellinger"] <= 1.0
        assert -1.0 <= doc["kendall_tau"] <= 1.0
        assert doc["notes"] == []
        assert len(doc["qq_points"]) > 2

    def test_without_truth_recovery_metrics_are_skipped(self, workdir, capsys):
        rc = cli_dispatch(["diagnose", "--events", str(workdir / "events.csv"),
                           "--model", str(workdir / "model.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hellinger"] is None and doc["phi_rmse"] is None
        assert any("truth" in note for note in doc["notes"])
        assert doc["n_train"] > 0 and doc["n_test"] == 0

    def test_malformed_model_is_a_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cli_dispatch(["diagnose", "--events", str(workdir / "events.csv"),
                             "--model", str(bad)]) == 2

    @pytest.mark.parametrize("field, value", [("kappa", [math.inf]), ("mu", [math.inf, 0.5]),
                                              ("w", [math.nan])])
    def test_non_finite_full_rank_model_exits_2(self, tmp_path, capsys, field, value):
        events = tmp_path / "ev.csv"
        events.write_text("type,time\na,0\nb,1\na,2\n")
        path = tmp_path / "model.json"
        save_model(FullRankParams(np.full((2, 2), 0.2), [1.0], [1.0], [0.5, 0.5]), path,
                   labels=["a", "b"])
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        for argv in (["evaluate", "--split-time", "1.5"], ["diagnose"]):
            assert cli_dispatch(argv + ["--events", str(events), "--model", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and err.count("\n") == 1

    def test_overflowing_model_scores_null(self, tmp_path, capsys):
        # phi = 1e308: the intensities, the compensator and the phi RMSE overflow
        events = tmp_path / "ev.csv"
        events.write_text("type,time\na,0.1\nb,0.1001\nc,0.1002\nb,0.1003\na,0.1004\n")
        for name, phi in (("model.json", 1e308), ("truth.json", 0.2)):
            save_model(FullRankParams(np.full((3, 3), phi), [1.0], [1.0], [0.1, 0.2, 0.3]),
                       tmp_path / name, labels=["a", "b", "c"])
        common = ["--events", str(events), "--model", str(tmp_path / "model.json"),
                  "--split-time", "0.1002"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(NumericsWarning):
                assert cli_dispatch(["evaluate", *common]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["train_ll_per_event"] is None and doc["test_ll_per_event"] is None
            with pytest.warns(NumericsWarning):
                assert cli_dispatch(["diagnose", *common, "--truth-model",
                                     str(tmp_path / "truth.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("train_ll_per_event", "test_ll_per_event", "accuracy", "hellinger",
                    "phi_rmse"):
            assert doc[key] is None, key

    @pytest.mark.parametrize("phi", [5, [0.2, 0.2]])
    def test_full_rank_phi_of_the_wrong_rank_exits_2(self, tmp_path, capsys, phi):
        events = tmp_path / "ev.csv"
        events.write_text("type,time\na,0\nb,1\na,2\n")
        path = tmp_path / "model.json"
        save_model(FullRankParams(np.full((2, 2), 0.2), [1.0], [1.0], [0.5, 0.5]), path,
                   labels=["a", "b"])
        doc = json.loads(path.read_text())
        doc["phi"] = phi
        path.write_text(json.dumps(doc))
        assert cli_dispatch(["evaluate", "--split-time", "1.5", "--events", str(events),
                             "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "inconsistent model document (phi must be square)" in err

    def test_collapsed_embedding_notes_the_null_kendall_tau(self, workdir, tmp_path,
                                                           capsys):
        params, labels = load_model(workdir / "model.json", with_labels=True)
        zeros = np.zeros_like(params.embedding.reception)
        collapsed = ModelParams(EmbeddingPair(zeros, zeros), params.kernels,
                                params.xi, params.mu)
        save_model(collapsed, tmp_path / "collapsed.json", labels=labels)
        with pytest.warns(NumericsWarning, match="kendall"):
            rc = cli_dispatch(["diagnose", "--events", str(workdir / "events.csv"),
                               "--model", str(tmp_path / "collapsed.json"),
                               "--truth-model", str(workdir / "truth.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kendall_tau"] is None
        assert any(note.startswith("kendall_tau is null") for note in doc["notes"])

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_builds_no_event_pairs(self, workdir, tmp_path, capsys, monkeypatch, no_pairs,
                                   with_truth):
        truth = ["--truth-model", str(workdir / "truth.json")] if with_truth else []
        assert cli_dispatch(["diagnose", "--events", str(workdir / "events.csv"),
                             "--model", str(workdir / "model.json"), *truth]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["hellinger"] is not None) == with_truth
        # past the pair budget, fit in every mode and its initial guess scan instead
        monkeypatch.setattr(model, "PAIR_CACHE", 0)
        emb = tmp_path / "emb.csv"
        assert cli_dispatch(["export", "--what", "embedding", "--model",
                             str(workdir / "truth.json"), "--out", str(emb)]) == 0
        for mode, extra in (("hhg-a", []), ("hhg-b", ["--eps2", "0.1"]), ("hhg-dm", []),
                            ("frb", ["--R", "2"]), ("geo", ["--frozen-embedding", str(emb)])):
            assert cli_dispatch(["fit", "--events", str(workdir / "events.csv"), "--mode", mode,
                                 "--epochs", "3", *extra, "--out", str(tmp_path / "m.json"),
                                 "--report", str(tmp_path / "r.json")]) == 0, mode
            assert len(load_report(tmp_path / "r.json")["curve"]) == 3
        # the fixture does catch the pairwise attribution
        with pytest.raises(AssertionError, match="pairs were built"):
            e_step(load_events_csv(workdir / "events.csv"), load_model(workdir / "model.json"))

    def test_qq_points_are_the_attributions(self, workdir, capsys):
        record = load_events_csv(workdir / "events.csv")
        params = load_model(workdir / "model.json")
        for seed in (0, 5):
            assert cli_dispatch(["diagnose", "--events", str(workdir / "events.csv"),
                                 "--model", str(workdir / "model.json"),
                                 "--seed", str(seed)]) == 0
            points = json.loads(capsys.readouterr().out)["qq_points"]
            expected = background_qq(record, params, e_step(record, params), seed=seed)
            assert len(points) > 2
            assert np.array_equal(np.asarray(points), expected)

    @pytest.mark.parametrize("dead_model, dead_truth", [(True, None), (True, False),
                                                        (False, True)])
    def test_zero_intensity_exits_3(self, workdir, tmp_path, capsys, dead_model,
                                    dead_truth):
        # no background on the first event's type leaves it with zero intensity
        record = load_events_csv(workdir / "events.csv")

        def model_path(source, dead):
            if not dead:
                return str(workdir / source)
            params, labels = load_model(workdir / source, with_labels=True)
            mu = params.mu.copy()
            mu[labels.index(record.labels[record.types[0]])] = 0.0
            save_model(ModelParams(params.embedding, params.kernels, params.xi, mu),
                       tmp_path / f"dead_{source}", labels=labels)
            return str(tmp_path / f"dead_{source}")

        args = ["diagnose", "--events", str(workdir / "events.csv"),
                "--model", model_path("model.json", dead_model)]
        if dead_truth is not None:
            args += ["--truth-model", model_path("truth.json", dead_truth)]
        assert cli_dispatch(args) == 3
        assert "zero intensity" in capsys.readouterr().err


class TestDiscretize:
    def test_counts_to_events(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS)
        out = tmp_path / "events.csv"
        rc = cli_dispatch(["discretize", "--counts", str(counts),
                           "--out", str(out)])
        assert rc == 0
        assert "discretize:" in capsys.readouterr().out
        record = load_events_csv(out)
        # SF's first crossing precedes LA's, so it claims the first label slot
        assert set(record.labels) == {"LA", "SF"}
        assert record.N == 6  # LA crosses 10, 20; SF crosses 10, 20, 30, 40
        counts = dict(zip(record.labels, np.bincount(record.types)))
        assert counts == {"LA": 2, "SF": 4}

    def test_threshold_via_config(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 20.0,
                                   "out": str(tmp_path / "ev.csv")}))
        assert cli_dispatch(["discretize", "--counts", str(counts),
                             "--config", str(cfg)]) == 0
        assert load_events_csv(tmp_path / "ev.csv").N == 3

    def test_null_config_values_keep_the_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "counts.csv").write_text(COUNTS)
        (tmp_path / "cfg.json").write_text(json.dumps({"threshold": None, "out": None}))
        assert cli_dispatch(["discretize", "--counts", "counts.csv",
                             "--config", "cfg.json"]) == 0
        assert load_events_csv(tmp_path / "events.csv").N == 6  # threshold 10

    def test_missing_and_bad_inputs(self, tmp_path, capsys):
        assert cli_dispatch(["discretize"]) == 1
        for path in (tmp_path / "no.csv", tmp_path):
            assert cli_dispatch(["discretize", "--counts", str(path)]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("location,day,cumulative_count\nLA,0,5\nLA,1,3\n")
        assert cli_dispatch(["discretize", "--counts", str(bad)]) == 2
        capsys.readouterr()
        # an infinite count has no last threshold crossing
        inf = tmp_path / "inf.csv"
        inf.write_text("location,day,cumulative_count\nLA,0,0\nLA,1,inf\n")
        assert cli_dispatch(["discretize", "--counts", str(inf)]) == 2
        assert "location LA" in capsys.readouterr().err
        # a finite but huge count asks for 1e299 events
        huge = tmp_path / "huge.csv"
        huge.write_text("location,day,cumulative_count\nLA,0,0\nLA,1,1e300\n")
        assert cli_dispatch(["discretize", "--counts", str(huge)]) == 2
        assert "1e+299 events" in capsys.readouterr().err

    def test_counts_past_two_to_the_53_thresholds_exit_2(self, tmp_path, capsys):
        # no level is crossed, but adjacent levels round to the same float
        counts = tmp_path / "counts.csv"
        counts.write_text("location,day,cumulative_count\na,0,1e30\na,1,1e30\n")
        start = time.perf_counter()
        assert cli_dispatch(["discretize", "--counts", str(counts), "--threshold", "1",
                             "--out", str(tmp_path / "ev.csv")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "location a" in err and "2^53" in err
        assert not (tmp_path / "ev.csv").exists()

    def test_counts_whose_logs_round_together(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("location,day,cumulative_count\n"
                          "a,0,9007199254740988\na,1,9007199254740991\n")
        assert cli_dispatch(["discretize", "--counts", str(counts), "--threshold", "1",
                             "--out", str(tmp_path / "ev.csv")]) == 0
        assert capsys.readouterr().err == ""
        # the log-linear times, 1/3 + 3.7e-17 and 2/3 + 3.7e-17, each round to
        # the float just above the one nearest 1/3 or 2/3
        assert load_events_csv(tmp_path / "ev.csv").times.tolist() == [0.33333333333333337,
                                                                       0.6666666666666667, 1.0]


class TestExport:
    def test_embedding_header_and_rows(self, workdir, tmp_path):
        out = tmp_path / "emb.csv"
        assert cli_dispatch(["export", "--what", "embedding",
                             "--model", str(workdir / "model.json"),
                             "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "type_label,role,coord_1,coord_2"
        assert len(lines) == 1 + 2 * 3

    def test_curve_export(self, workdir, tmp_path):
        out = tmp_path / "curve.csv"
        assert cli_dispatch(["export", "--what", "curve",
                             "--report", str(workdir / "report.json"),
                             "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_log_likelihood"
        assert len(lines) == 1 + 15

    def test_qq_export(self, workdir, tmp_path):
        diag = tmp_path / "diag.json"
        assert cli_dispatch(["diagnose", "--events", str(workdir / "events.csv"),
                             "--model", str(workdir / "model.json"),
                             "--out", str(diag)]) == 0
        out = tmp_path / "qq.csv"
        assert cli_dispatch(["export", "--what", "qq",
                             "--diagnostics", str(diag),
                             "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "empirical_quantile,theoretical_quantile"
        assert len(lines) == 1 + len(json.loads(diag.read_text())["qq_points"])

    def test_default_output_names(self, workdir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_dispatch(["diagnose", "--events", str(workdir / "events.csv"),
                             "--model", str(workdir / "model.json"),
                             "--out", "diag.json"]) == 0
        for what, flag, path in (("embedding", "--model", workdir / "model.json"),
                                 ("curve", "--report", workdir / "report.json"),
                                 ("qq", "--diagnostics", tmp_path / "diag.json")):
            assert cli_dispatch(["export", "--what", what, flag, str(path)]) == 0
            assert (tmp_path / f"{what}.csv").exists()

    def test_usage_and_data_errors(self, workdir, tmp_path, capsys):
        assert cli_dispatch(["export"]) == 1
        assert cli_dispatch(["export", "--what", "sculpture"]) == 1
        assert cli_dispatch(["export", "--what", "embedding"]) == 1
        no_qq = tmp_path / "noqq.json"
        no_qq.write_text(json.dumps({"schema_version": 1}))
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        for what, flag, path in (("qq", "--diagnostics", no_qq),
                                 ("qq", "--diagnostics", array),
                                 ("curve", "--report", array),
                                 ("curve", "--report", no_qq)):
            capsys.readouterr()
            assert cli_dispatch(["export", "--what", what, flag, str(path)]) == 2
            assert "data error:" in capsys.readouterr().err

    def test_curve_of_booleans_is_a_data_error(self, tmp_path, capsys):
        # JSON's true and false load as Python bools, an int subclass
        report = tmp_path / "bools.json"
        report.write_text(json.dumps({"schema_version": 1, "curve": [True, False, 3]}))
        out = tmp_path / "curve.csv"
        assert cli_dispatch(["export", "--what", "curve", "--report", str(report),
                             "--out", str(out)]) == 2
        assert "report lacks a numeric curve" in capsys.readouterr().err
        assert not out.exists()

    def test_full_rank_model_has_no_embedding(self, workdir, tmp_path, capsys):
        rc = cli_dispatch(["fit", "--events", str(workdir / "events.csv"),
                           "--mode", "frb", "--epochs", "3",
                           "--out", str(tmp_path / "frb.json")])
        assert rc == 0
        assert cli_dispatch(["export", "--what", "embedding",
                             "--model", str(tmp_path / "frb.json")]) == 1
