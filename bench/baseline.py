"""Run every workload over ten seeds and record the figures with the machine.

    python3 bench/baseline.py --out bench/baseline.json

For each workload this makes ten untraced runs of ``run.py``, one for each of
``SEEDS``, and one traced run, strictly one after another.  It records each
end-to-end metric's values, median, quartiles (``statistics.quantiles`` with
``n=4``) and spread (interquartile distance over the median), the traced
run's per-layer figures, and the git commit, CPU, core count, memory,
interpreter and library versions, pinned thread count and ``src/`` line
count.  It exits 1 if any run fails or any spread exceeds its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import THREADS  # noqa: E402

SEEDS = range(1001, 1011)


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": sha,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
        "src_lines": src_lines,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    doc = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
           "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in SEEDS]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median)
            ok &= spread <= m["bound"]
            metrics[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                                  "spread": spread, "values": values}
            print(f"{workload:15} {m['name']:24} median {median:12.6g} {m['unit']:6} "
                  f"spread {spread:.4f} (bound {m['bound']})", flush=True)
        traced = run_once(workload, SEEDS[0], 1)["metrics"]
        doc["workloads"][workload] = {
            "metrics": metrics,
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
