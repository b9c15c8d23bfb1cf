"""Workload bodies of the benchmark, run in a fresh process by ``run.py``.

Each workload turns ``--seed`` into its inputs during set-up, notes the
monotonic clock (``run.py`` measures set-up time from it), then repeats one
fixed pass over those inputs ``--seconds // pass_s`` times, where ``pass_s``
is a constant of the workload, so every commit makes the same number of
passes however fast it runs.  A traced run makes half as many rounds of one
untraced and one traced pass, so it takes about as long.  Every package
call in a pass counts as an attempted operation; a raised exception, a
non-zero CLI exit, an aborted fit or a failed output check counts as a
failed one.  After the passes, a toy-size
pass at ``REFERENCE_SEED`` must reproduce the held-out log-likelihood and
Hellinger figures recorded in ``reference.json``.  The last line of
standard output is one JSON document for ``run.py``.

Ground truths come from fixed panel seeds and only the event records are drawn
from ``--seed``.  With the truth drawn per seed as well, five seeds of the
(50, 6000) pipeline gave held-out log-likelihoods per event from -0.9 to -4.3
and 75 %-of-horizon training sets from 2,971 to 4,541 events, a spread no
per-run median can absorb.  Train/test splits are placed by event count, not
by time, so every seed gives the same amount of work.

    python3 bench/workloads.py --write-reference   # re-record reference.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hawkesgeo as hg  # noqa: E402
import hawkesgeo.cli as hcli  # noqa: E402
import hawkesgeo.model as hmodel  # noqa: E402
from tracing import Tracer, median_metrics  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 20261
REFERENCE_RTOL = 1e-6
TRAIN_SHARE = 0.75

# pass_s is about one untraced pass's wall time on a 2-vCPU Xeon; with the
# 35 s of BENCHMARK.json it gives 2 recovery, 3 pipeline and 4 long-record
# passes, which fit the time budget of a full set of benchmark runs.
# Panel seeds are disjoint from the acceptance suite's (71000-71019,
# 72000-72019, 81000-81019, 82000-82019) and from every seed in tests/ and
# demos/.
SIZES = {
    "full": {
        "recovery": {"pass_s": 14.0, "epochs": 500, "sizes": (
            {"n": 15, "N": 300, "eps2": 0.1, "truth_seed": 93015,
             "modes": ("hhg-a", "hhg-b", "hhg-dm", "frb")},
            {"n": 30, "N": 900, "eps2": 1.0, "truth_seed": 93030,
             "modes": ("hhg-b", "frb")},
        )},
        "pipeline-large": {"pass_s": 11.0, "n": 50, "N": 6000, "epochs": 3, "eps2": 1.0,
                           "truth_seed": 93050},
        "long-record": {"pass_s": 8.5, "n": 100, "N": 100_000, "prefix": 2000, "epochs": 10,
                        "truth_seed": 93100, "locations": 200,
                        "days": 365, "count_total": 950_000, "threshold": 10.0},
    },
    "toy": {
        "recovery": {"pass_s": 0.5, "epochs": 20, "sizes": (
            {"n": 5, "N": 60, "eps2": 0.1, "truth_seed": 93005,
             "modes": ("hhg-a", "hhg-b", "hhg-dm", "frb")},
            {"n": 8, "N": 120, "eps2": 1.0, "truth_seed": 93008,
             "modes": ("hhg-b", "frb")},
        )},
        "pipeline-large": {"pass_s": 0.5, "n": 8, "N": 400, "epochs": 2, "eps2": 1.0,
                           "truth_seed": 93058},
        "long-record": {"pass_s": 0.5, "n": 10, "N": 3000, "prefix": 300, "epochs": 3,
                        "truth_seed": 93110, "locations": 10,
                        "days": 60, "count_total": 5000, "threshold": 10.0},
    },
}


class Run:
    """Operation and failure counts of one run, and notes on odd outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.ops: list[tuple[str, float]] = []

    def timed(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` as one operation of ``kind`` and record its seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.ops.append((kind, time.perf_counter() - t0))
        return out

    def check(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def check_fit(self, curve, aborted, epochs: int, what: str) -> None:
        self.check(aborted is None, f"{what}: fit aborted at epoch {aborted}")
        self.check(len(curve) == epochs and bool(np.all(np.isfinite(curve))),
                   f"{what}: curve has {len(curve)} epochs or non-finite entries")


class Sample:
    """What one pass did: its operation times, work counts and fit quality."""

    def __init__(self):
        self.ops: list[tuple[str, float]] = []
        self.epochs = 0
        self.sim_events = 0
        self.scored_events = 0
        self.nll_total = 0.0
        self.nll_events = 0
        self.hellinger: list[float] = []

    def add_quality(self, ll_per_event, window, n_events, hellinger) -> None:
        # Time is counted in mean inter-event gaps of the scored window, so a
        # per-event log-likelihood does not depend on the record's time unit.
        gap = (window[1] - window[0]) / n_events
        self.nll_total += n_events * (-ll_per_event - math.log(gap))
        self.nll_events += n_events
        self.hellinger.append(hellinger)

    def quality(self) -> tuple[float, float]:
        return self.nll_total / self.nll_events, statistics.fmean(self.hellinger)


def _record_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _split_at(record, share: float) -> float:
    """A time between two events that puts ``share`` of them before it."""
    i = round(share * record.N)
    return float(0.5 * (record.times[i - 1] + record.times[i]))


def _check_unit(run, value, what) -> None:
    run.check(value is not None and 0.0 <= value <= 1.0, f"{what} = {value} outside [0, 1]")


# ---------------------------------------------------------------------------
# recovery: many small fits shaped like the acceptance suite


def setup_recovery(spec, seed, workdir):
    return {"truths": [hg.sample_ground_truth(size["n"], m=2, R=1,
                                              seed=size["truth_seed"]).params
                       for size in spec["sizes"]]}


def pass_recovery(spec, seed, ctx, run):
    out = Sample()
    for k, (size, truth) in enumerate(zip(spec["sizes"], ctx["truths"])):
        what = f"recovery n={size['n']}"
        record = run.timed("sim", hg.simulate_thinning, truth, seed=_record_seed(seed, k),
                           target_events=size["N"])
        out.sim_events += record.N
        run.check(record.N == size["N"], f"{what}: simulated {record.N} events")
        split = _split_at(record, TRAIN_SHARE)
        train = run.timed("", record.truncated, split)
        window = (split, record.horizon)
        n_test = record.N - train.N
        truth_branching = run.timed("", hg.ground_truth_branching, train, truth)
        phi_true = run.timed("", hg.influence_matrix, truth)
        for mode in size["modes"]:
            extra = {"eps2": size["eps2"]} if mode == "hhg-b" else {}
            report = run.timed("fit", lambda: hg.fit(train, hg.FitConfig(
                mode=mode, epochs=spec["epochs"], R=1, m=2, **extra)))
            run.check_fit(report.curve, report.aborted_epoch, spec["epochs"], f"{what} {mode}")
            out.epochs += report.curve.size
            params = report.params_best
            ll_train, ll_test = run.timed("", lambda: hg.split_eval(record, params,
                                                                    hg.EvalSplit(split)))
            run.check(np.isfinite(ll_train) and np.isfinite(ll_test),
                      f"{what} {mode}: non-finite held-out log-likelihood")
            branching = run.timed("", hg.e_step, train, params)
            hellinger = run.timed("", hg.hellinger_divergence, branching, truth_branching)
            _check_unit(run, hellinger, f"{what} {mode}: hellinger")
            accuracy, _ = run.timed("score", hg.categorical_accuracy, record, params, window)
            out.scored_events += n_test
            run.check(0.0 < accuracy <= 1.0, f"{what} {mode}: accuracy {accuracy}")
            rmse = run.timed("", lambda: hg.phi_rmse(hg.influence_matrix(params), phi_true))
            run.check(np.isfinite(rmse), f"{what} {mode}: non-finite phi_rmse")
            if mode != "frb":
                tau = run.timed("", hg.kendall_distance_correlation, params.embedding,
                                truth.embedding)
                if not np.isfinite(tau):
                    # a collapsed embedding has no distance ranking; the CLI
                    # reports the same case as null, so it is not a failure
                    run.notes.append(f"{what} {mode}: kendall tau {tau} "
                                     "(collapsed embedding)")
                qq = run.timed("", hg.background_qq, train, params, branching, seed=seed)
                run.check(qq is not None and bool(np.all(np.isfinite(qq))),
                          f"{what} {mode}: no finite background QQ points")
            out.add_quality(ll_test, window, n_test, hellinger)
    return out


# ---------------------------------------------------------------------------
# pipeline-large: the CLI pipeline at (50, 6000), in process, files in a temp dir


def setup_pipeline(spec, seed, workdir):
    return {"dir": workdir}


def pass_pipeline(spec, seed, ctx, run):
    out = Sample()
    n, N, epochs = spec["n"], spec["N"], spec["epochs"]

    def path(name):
        return str(ctx["dir"] / name)

    def cli(*argv, kind=""):
        code = run.timed(kind, hcli.cli_dispatch, [str(a) for a in argv])
        run.check(code == 0, f"cli {argv[0]} exited {code}")

    # The CLI draws truth and record from one seed; the truth comes from the
    # panel seed here and the record from --seed below.
    cli("simulate", "--n", n, "--N", N, "--seed", spec["truth_seed"],
        "--out-events", path("panel_events.csv"), "--out-truth", path("truth.json"))
    truth = run.timed("", hg.load_model, path("truth.json"))
    record = run.timed("sim", hg.simulate_thinning, truth, seed=_record_seed(seed, 0),
                       target_events=N)
    out.sim_events += record.N
    run.check(record.N == N, f"pipeline: simulated {record.N} events")
    run.timed("", hg.save_events_csv, record, path("events.csv"))
    split = repr(_split_at(record, TRAIN_SHARE))

    cli("fit", "--events", path("events.csv"), "--mode", "hhg-b", "--epochs", epochs,
        "--eps2", spec["eps2"], "--train-end", split, "--out", path("model.json"),
        "--report", path("report.json"), kind="fit")
    report = run.timed("", hg.load_report, path("report.json"))
    run.check_fit(report["curve"], report["aborted_epoch"], epochs, "pipeline fit")
    out.epochs += report["epochs_run"]
    cli("evaluate", "--events", path("events.csv"), "--model", path("model.json"),
        "--split-time", split, "--out", path("evaluate.json"))
    cli("diagnose", "--events", path("events.csv"), "--model", path("model.json"),
        "--truth-model", path("truth.json"), "--split-time", split,
        "--out", path("diagnose.json"))
    cli("export", "--what", "embedding", "--model", path("model.json"),
        "--out", path("embedding.csv"))
    cli("export", "--what", "curve", "--report", path("report.json"), "--out", path("curve.csv"))
    cli("export", "--what", "qq", "--diagnostics", path("diagnose.json"),
        "--out", path("qq.csv"))

    with open(path("evaluate.json")) as f:
        evaluated = json.load(f)
    with open(path("diagnose.json")) as f:
        diagnosed = json.load(f)
    n_test = N - round(TRAIN_SHARE * N)
    run.check(evaluated["n_test"] == n_test, f"pipeline: {evaluated['n_test']} test events")
    run.check(evaluated["test_ll_per_event"] is not None
              and evaluated["test_ll_per_event"] == diagnosed["test_ll_per_event"],
              "pipeline: evaluate and diagnose disagree on the test log-likelihood")
    _check_unit(run, diagnosed["hellinger"], "pipeline: hellinger")
    for name, rows in (("embedding.csv", 2 * n), ("curve.csv", epochs),
                       ("qq.csv", len(diagnosed["qq_points"]))):
        with open(path(name)) as f:
            got = sum(1 for _ in f) - 1
        run.check(got == rows and rows > 0, f"pipeline: {name} has {got} rows, want {rows}")

    loaded = run.timed("", hg.load_events_csv, path("events.csv"))
    model = run.timed("", hg.load_model, path("model.json"))
    window = (float(split), loaded.horizon)
    accuracy, _ = run.timed("score", hg.categorical_accuracy, loaded, model, window)
    out.scored_events += n_test
    run.check(0.0 < accuracy <= 1.0, f"pipeline: accuracy {accuracy}")
    if evaluated["test_ll_per_event"] is not None and diagnosed["hellinger"] is not None:
        out.add_quality(evaluated["test_ll_per_event"], window, n_test, diagnosed["hellinger"])
    return out


# ---------------------------------------------------------------------------
# long-record: simulation, CSV round trip and recursive scoring at 10^5 events


def setup_long_record(spec, seed, workdir):
    rng = np.random.default_rng(_record_seed(seed, 1))
    locations, days = spec["locations"], spec["days"]
    cap = rng.lognormal(0.0, 0.5, locations)
    cap *= spec["count_total"] / cap.sum()
    mid = rng.uniform(0.2, 0.8, locations) * days
    pace = rng.uniform(0.02, 0.1, locations) * days
    t = np.arange(days)
    cumulative = np.floor(cap[:, None] / (1.0 + np.exp(-(t[None, :] - mid[:, None])
                                                       / pace[:, None])))
    rows = [f"loc{i},{d},{int(cumulative[i, d])}" for i in range(locations) for d in range(days)]
    counts_path = workdir / "counts.csv"
    counts_path.write_text("location,day,cumulative_count\n" + "\n".join(rows) + "\n")
    thr = spec["threshold"]
    crossings = int(np.sum(cumulative[:, -1] // thr - cumulative[:, 0] // thr))
    truth = hg.sample_ground_truth(spec["n"], m=2, R=1, seed=spec["truth_seed"]).params
    return {"dir": workdir, "truth": truth, "counts": str(counts_path), "crossings": crossings}


def pass_long_record(spec, seed, ctx, run):
    out = Sample()
    N, truth = spec["N"], ctx["truth"]
    record = run.timed("sim", hg.simulate_thinning, truth, seed=_record_seed(seed, 0),
                       target_events=N)
    out.sim_events += record.N
    run.check(record.N == N, f"long-record: simulated {record.N} events")

    events_path = str(ctx["dir"] / "long_events.csv")
    run.timed("", hg.save_events_csv, record, events_path)
    loaded = run.timed("", hg.load_events_csv, events_path)
    same = (loaded.N == record.N and np.array_equal(loaded.times, record.times)
            and np.array_equal(np.asarray(loaded.labels)[loaded.types],
                               record.types.astype(str)))
    run.check(same, "long-record: CSV round trip changed the record")

    # The types' coordinates are taken as known (the geo estimator): a free
    # embedding of 100 types from 2,000 events lands in different optima per
    # record, which moved the Hellinger figure between 0.27 and 0.67.
    prefix = run.timed("", record.truncated, _split_at(record, spec["prefix"] / N))
    init = run.timed("fit", hg.init_params, prefix, R=1, m=2, embedding=truth.embedding)
    report = run.timed("fit", lambda: hg.fit(
        prefix, hg.FitConfig(mode="geo", epochs=spec["epochs"], R=1, m=2), init=init))
    run.check_fit(report.curve, report.aborted_epoch, spec["epochs"], "long-record prefix fit")
    out.epochs += report.curve.size
    params = report.params_best
    branching = run.timed("", hg.e_step, prefix, params)
    truth_branching = run.timed("", hg.ground_truth_branching, prefix, truth)
    hellinger = run.timed("", hg.hellinger_divergence, branching, truth_branching)
    _check_unit(run, hellinger, "long-record: hellinger")

    window = (_split_at(record, 0.5), record.horizon)
    scored = record.times >= window[0]
    n_scored = int(scored.sum())
    accuracy, _ = run.timed("score", hg.categorical_accuracy, record, params, window)
    out.scored_events += n_scored
    run.check(0.0 < accuracy <= 1.0, f"long-record: accuracy {accuracy}")
    lam = run.timed("", hmodel.intensities_at, record, params, record.times[scored])
    run.check(bool(np.all(np.isfinite(lam)) and np.all(lam > 0.0)),
              "long-record: non-positive or non-finite intensity")
    realized = lam[np.arange(n_scored), record.types[scored]]
    comp = run.timed("", hg.compensator, record, params, window)
    out.add_quality((float(np.sum(np.log(realized))) - comp) / n_scored, window, n_scored,
                    hellinger)

    series = run.timed("", hg.load_counts_csv, ctx["counts"])
    discretized = run.timed("", hg.discretize_counts, series, spec["threshold"])
    run.check(discretized.N == ctx["crossings"],
              f"long-record: {discretized.N} threshold crossings, want {ctx['crossings']}")
    return out


WORKLOADS = {
    "recovery": (setup_recovery, pass_recovery),
    "pipeline-large": (setup_pipeline, pass_pipeline),
    "long-record": (setup_long_record, pass_long_record),
}


# ---------------------------------------------------------------------------
# measurement


def reference_quality(workload, workdir, run) -> tuple[float, float]:
    """Quality figures of the toy pass at the fixed reference seed."""
    spec = SIZES["toy"][workload]
    setup, body = WORKLOADS[workload]
    run.ops = []
    return body(spec, REFERENCE_SEED, setup(spec, REFERENCE_SEED, workdir), run).quality()


def setup_probe(args) -> float:
    """Set-up seconds of a fresh process of this workload that stops after set-up."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--workdir", str(args.workdir), "--setup-only"]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready_at"] - started


def measure(args, run, workdir) -> dict:
    spec = SIZES[args.size][args.workload]
    setup, body = WORKLOADS[args.workload]
    ctx = setup(spec, args.seed, workdir)
    ready_at = time.monotonic()
    if args.setup_only:
        return {"ready_at": ready_at}

    tracer = Tracer()
    walls, plain, traced, layers, setups = [], [], [], [], []

    def one_pass() -> Sample:
        run.ops = []
        sample = body(spec, args.seed, ctx, run)
        sample.ops = run.ops
        first = plain[0] if plain else sample
        what = f"pass {len(plain) + len(traced) + 1}"
        run.check([k for k, _ in sample.ops] == [k for k, _ in first.ops],
                  f"{what} made other calls than the first")
        run.check(sample.quality() == first.quality(), f"{what} gave other results than the first")
        return sample

    passes = max(1, int(args.seconds // spec["pass_s"]))
    if args.trace:
        passes = max(1, passes // 2)  # each round is an untraced and a traced pass
    try:
        for _ in range(passes):
            if not args.trace:
                setups.append(setup_probe(args))
            t0 = time.perf_counter()
            plain.append(one_pass())
            walls.append(time.perf_counter() - t0)
            if args.trace:
                layers.append(tracer.traced_pass(lambda: traced.append(one_pass())))
        if not args.trace:
            setups.append(setup_probe(args))
    except Exception:
        traceback.print_exc()
        run.failures.append(f"{args.workload} raised {sys.exc_info()[1]!r}")
        return {"ready_at": ready_at}

    nll, hellinger = reference_quality(args.workload, workdir, run)
    reference = json.loads(REFERENCE_PATH.read_text())[args.workload]
    for name, got in (("heldout_nll_per_event", nll), ("hellinger_to_truth", hellinger)):
        want = reference[name]
        run.check(abs(got - want) <= REFERENCE_RTOL * abs(want),
                  f"reference {name} {got!r} differs from the recorded {want!r}")

    # wall_s sums each operation's median time over the untraced passes.  On a
    # shared 2-vCPU Xeon host, where a few-millisecond slice of work ran up to
    # 1.8x slower than its fastest run in bursts, a per-operation minimum
    # depends on whether a run happens to catch a quiet burst: over ten runs
    # of each workload the sum of minima spread by 0.18-0.25 (interquartile
    # range over median), the sum of medians of the same runs by 0.10-0.14.
    typical = [(kind, statistics.median(s.ops[i][1] for s in plain))
               for i, (kind, _) in enumerate(plain[0].ops)]

    def seconds(kind=None):
        return sum(t for k, t in typical if kind is None or k == kind)

    first = plain[0]
    nll, hellinger = first.quality()
    n = len(plain)
    # name: (value, unit, sample count)
    metrics = {
        "wall_s": (seconds(), "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "epoch_ms": (1e3 * seconds("fit") / first.epochs, "ms", n),
        "sim_events_per_s": (first.sim_events / seconds("sim"), "1/s", n),
        "scored_events_per_s": (first.scored_events / seconds("score"), "1/s", n),
        "heldout_nll_per_event": (nll, "nat", len(first.hellinger)),
        "hellinger_to_truth": (hellinger, "ratio", len(first.hellinger)),
    }
    out = {"ready_at": ready_at, "metrics": metrics, "pass_wall_s": walls,
           "setup_probes_s": setups}
    if args.trace:
        per_layer = median_metrics(layers)
        per_layer["trace.untraced_wall_s"] = statistics.median(walls)
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"]
                                         - per_layer["trace.untraced_wall_s"])
        out["per_layer"] = per_layer
        out["traced_passes"] = len(layers)
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"trace-{args.workload}.jsonl")
    return out


def write_reference() -> None:
    import tempfile

    run = Run()
    values = {}
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as workdir:
            nll, hellinger = reference_quality(workload, Path(workdir), run)
        values[workload] = {"heldout_nll_per_event": nll, "hellinger_to_truth": hellinger}
    if run.failures:
        sys.exit("reference run failed its checks: " + "; ".join(run.failures))
    REFERENCE_PATH.write_text(json.dumps({"seed": REFERENCE_SEED, **values}, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if Path(hg.__file__).resolve().parent != ROOT / "src" / "hawkesgeo":
        sys.exit(f"imported hawkesgeo from {hg.__file__}, not from {ROOT / 'src'}")
    warnings.simplefilter("ignore")
    if args.write_reference:
        (ROOT / ".bench_tmp").mkdir(exist_ok=True)
        write_reference()
        return

    # The CLI prints progress lines; keep standard output for the result.
    result_stream = sys.stdout
    sys.stdout = open(os.devnull, "w")
    run = Run()
    out = measure(args, run, args.workdir)
    out.update(attempted=run.attempted, failed=len(run.failures), failures=run.failures,
               notes=run.notes)
    print(json.dumps(out), file=result_stream, flush=True)


if __name__ == "__main__":
    main()
