"""Benchmark of the hawkesgeo package: one workload per call.

    python3 bench/run.py --workload recovery --seed 20261 --seconds 35 --trace 0

Workloads (inputs are drawn from ``--seed``; see ``workloads.py``):

- ``recovery``: 500-epoch fits at (15, 300) in modes hhg-a, hhg-b, hhg-dm and
  frb and at (30, 900) in hhg-b and frb, each followed by the acceptance
  suite's diagnostics.  Per-epoch fixed costs dominate.
- ``pipeline-large``: the CLI pipeline simulate, fit, evaluate, diagnose and
  export at (50, 6000), in process.  O(N^2) pair enumeration dominates.
- ``long-record``: simulation, a CSV round trip and recursive scoring at
  10^5 events, plus a 200 x 365 cumulative count table to discretize.

The workload runs in a fresh Python process with BLAS and OpenMP pinned to
one thread, so peak RSS and set-up time belong to that run alone.  Set-up
(interpreter start, imports, input generation) is timed in that process and,
on untraced runs, in one more process before each pass and after the last,
each of which stops after set-up, so that the samples are spread over the
run; ``setup_s`` is their median.

With ``--trace 0`` the last line of output holds the end-to-end metrics of
BENCHMARK.json, and the lines before it add two unbounded throughputs (see
README.md).  With ``--trace 1`` it holds the per-layer metrics, which come from
passes run with every cross-module call wrapped (``tracing.py``); a layer the
workload never calls reports 0.  Lines before it repeat the figures for
people, with sample counts, the error rate and the pinned thread count.  The
exit status is 1 when an output check failed, 2 when the source tree is
missing.

Each per-layer metric and the end-to-end metric it should move:

    model.pair_indices_s, model.pairs_built   peak_rss_mb, wall_s on pipeline-large
    model.pair_response_s                     epoch_ms on pipeline-large
    model.compensator_s                       epoch_ms on recovery
    model.log_likelihood_s                    wall_s on pipeline-large
    model.intensities_at_s, _queries          wall_s on long-record
    em.branching_s, em.branching_kept_ratio   epoch_ms on pipeline-large
    em.m_step_s, em.epochs                    epoch_ms on recovery
    em.e_step_s                               wall_s on pipeline-large
    em.aborted_fits                           the error rate (failed / attempted)
    geometry.*_s                              epoch_ms on recovery
    spectral.init_params_s, init_influence_guess_s   wall_s on pipeline-large
    spectral.diffusion_embed_s                epoch_ms on recovery (hhg-dm)
    simulate.thinning_s, simulate.events      wall_s on long-record
    diagnostics.categorical_accuracy_s        wall_s on long-record
    diagnostics.*_s (others)                  wall_s on recovery, pipeline-large
    io.*                                      wall_s on long-record, pipeline-large
    cli.*                                     wall_s and the error rate on pipeline-large
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = Path(__file__).resolve().parent / "workloads.py"
DEFAULT_SEED = 20261
TIME_LIMIT_S = 170.0
THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_child(argv, env, deadline) -> dict:
    """Run ``workloads.py`` once; return its result with ``setup_s`` added."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKLOADS)] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the set-up probes it started, too
        proc.communicate()
        raise RuntimeError("the workload process ran past the time limit") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"the workload process exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def report(workload, spec, child, setups) -> dict:
    """Print the figures for people; return the metrics of the result line."""
    print(f"# {workload}: {child['attempted']} operations, {child['failed']} failed, "
          f"error_rate {child['failed'] / max(child['attempted'], 1):.4g}, "
          f"threads pinned to {THREADS}")
    for failure in child["failures"]:
        print(f"#   failed: {failure}")
    for note in dict.fromkeys(child["notes"]):  # each pass repeats its notes
        print(f"#   note: {note}")
    walls = child["pass_wall_s"]
    print(f"# pass wall times (s): median {statistics.median(walls):.4g}, "
          f"min {min(walls):.4g}, max {max(walls):.4g} over {len(walls)} untraced passes")
    print(f"# set-up times (s): median {statistics.median(setups):.4g}, "
          f"min {min(setups):.4g}, max {max(setups):.4g} over {len(setups)} processes")
    if "per_layer" in child:
        print(f"# per-layer medians over {child['traced_passes']} traced passes")
        metrics = {m["name"]: {"value": child["per_layer"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"#   {name:<36} {m['value']:>14.6g} {m['unit']}")
        return metrics
    figures = dict(child["metrics"], setup_s=(statistics.median(setups), "s", len(setups)))
    bounded = {m["name"] for m in spec["end_to_end"]}
    for name, (value, unit, count) in figures.items():
        note = "" if name in bounded else ", not bounded: see bench/README.md"
        print(f"#   {name:<36} {value:>14.6g} {unit}  (n={count}{note})")
    return {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every workload in seconds, for the smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "hawkesgeo" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: str(THREADS) for v in THREAD_VARIABLES})
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--size", args.size,
            "--workdir", str(workdir)]
    try:
        child = run_child(argv, env, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "metrics" not in child:
        print(f"error: {args.workload} stopped early: {child['failures']}", file=sys.stderr)
        return 1
    metrics = report(args.workload, spec, child, [child["setup_s"]] + child["setup_probes_s"])
    correct = child["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
