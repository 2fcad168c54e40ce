"""Benchmark of the loewy CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh worker
processes (worker.py) with the checkout's src/ on the path and every
BLAS/OpenMP pool pinned to one thread.  Set-up is timed in SETUP_RUNS
processes; the last of them goes on to measure whole rounds for S seconds
and check the outputs.  The last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  Exits non-zero without a result when the checkout has no loewy
sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
TIME_LIMIT = 170.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_worker(args, env, deadline: float, *, setup_only: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(time.perf_counter())]
    done = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()), check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "loewy" / "__init__.py").is_file():
        print(f"no loewy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **PINNED, "PYTHONPATH": path}
    try:
        setups = [run_worker(args, env, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result = run_worker(args, env, deadline, setup_only=False)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "items_per_s": {"value": result["items"] / result["wall_s"], "unit": "items/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print("detail " + json.dumps({"round_walls": result["walls"], "setups": setups}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
