"""Write BENCH_<sha>.json, a snapshot of the benchmark for one or more
checkouts of loewy, to commit next to the change it measures.

    python3 tools/bench_snapshot.py [CHECKOUT ...] [--out DIR]

CHECKOUT defaults to the repository this script lives in; give a second
checkout (say, a clone of the parent commit) to measure a before/after
pair.  For every workload of BENCHMARK.json the script runs each
checkout's own `perfbench/run.py` on seeds 1-10 at the benchmark's
run_seconds.  The checkouts take turns run by run, so that a drift of the
machine falls on every checkout alike.  It then times `loewy scan --zmin
2999 --zmax 3001 --jobs 1` three times per checkout, and runs the tier-1
suite once per checkout.

Each file holds the machine (CPUs, Python, numpy), the checkout's git sha
and whether its tree was clean, the line count of its `src/`, every run's
metrics, and for each workload the median and quartiles of the four
end-to-end metrics; then the high-z scan's records/s and the tier-1 wall
time and result.  The script uses the standard library only and runs the
benchmark as a program, never importing it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SCAN = ["scan", "--zmin", "2999", "--zmax", "3001", "--jobs", "1"]
SCAN_RUNS = 3
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def src_env(checkout: Path) -> dict:
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in sorted((checkout / "src").rglob("*.py")))


def bench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py` run: its last output line, with the seed."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"seed": seed, **result}


def scan_rate(checkout: Path) -> dict:
    """Wall seconds and records/s of one high-z scan into a fresh file."""
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "scan.jsonl"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "loewy.cli", *SCAN, "--out", str(out)],
                       env=src_env(checkout), capture_output=True, check=True)
        wall = time.perf_counter() - start
        records = len(out.read_bytes().splitlines())
    return {"wall_s": wall, "records": records, "records_per_s": records / wall}


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=src_env(checkout),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def summarize(runs: list[dict]) -> dict:
    """metric -> median and quartiles over the runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for the files")
    args = parser.parse_args()
    checkouts = [path.resolve() for path in args.checkouts]
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = {"cpus": os.cpu_count(), "platform": platform.platform(),
               "python": platform.python_version(),
               "numpy": importlib.metadata.version("numpy")}
    snaps = {}
    for checkout in checkouts:
        sha = git(checkout, "rev-parse", "HEAD")
        snaps[checkout] = {"machine": machine, "git_sha": sha,
                           "clean_tree": git(checkout, "status", "--porcelain") == "",
                           "src_lines": src_lines(checkout),
                           "run_seconds": config["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in config["workloads"]]:
        runs = {checkout: [] for checkout in checkouts}
        for seed in SEEDS:
            # the first checkout runs first on odd seeds, last on even ones
            order = checkouts if seed % 2 else checkouts[::-1]
            for checkout in order:
                runs[checkout].append(bench_run(checkout, workload, seed, config["run_seconds"]))
                print(f"{checkout.name} {workload} seed {seed} done", file=sys.stderr)
        for checkout in checkouts:
            snaps[checkout]["workloads"][workload] = {
                "summary": summarize(runs[checkout]), "runs": runs[checkout]}
    scans = {checkout: [] for checkout in checkouts}
    for turn in range(SCAN_RUNS):
        for checkout in (checkouts if turn % 2 == 0 else checkouts[::-1]):
            scans[checkout].append(scan_rate(checkout))
    for checkout in checkouts:
        rates = [scan["records_per_s"] for scan in scans[checkout]]
        snaps[checkout]["high_z_scan"] = {
            "args": SCAN, "median_records_per_s": statistics.median(rates),
            "runs": scans[checkout]}
        snaps[checkout]["tier1"] = tier1(checkout)
        path = args.out / f"BENCH_{snaps[checkout]['git_sha'][:12]}.json"
        path.write_text(json.dumps(snaps[checkout], indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
