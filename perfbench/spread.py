"""Run the benchmark on seeds 1-10 for every workload in BENCHMARK.json, at
its run_seconds, and report each end-to-end metric's median, quartiles and
quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py [--out FILE]
    python3 perfbench/spread.py --compare A B

Runs go one after another, never in parallel.  Results are appended to FILE
(default perfbench/_out/spread.jsonl) as one JSON line per run, so that two
sets of runs can be compared with --compare A B.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def summarize(rows: list[dict]) -> dict:
    """workload -> metric -> (median, q1, q3, spread), plus failed shares."""
    out = {}
    for workload in sorted({row["workload"] for row in rows}):
        mine = [row for row in rows if row["workload"] == workload]
        metrics = {}
        for name in mine[0]["metrics"]:
            values = [row["metrics"][name]["value"] for row in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = (med, q1, q3, (q3 - q1) / med)
        shares = {row["failed"] / row["attempted"] for row in mine}
        out[workload] = {"metrics": metrics, "failed_shares": sorted(shares),
                         "runs": len(mine), "correct": all(row["correct"] for row in mine)}
    return out


def show(summary: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    for workload, info in summary.items():
        print(f"{workload}: {info['runs']} runs, correct={info['correct']}, "
              f"failed shares {info['failed_shares']}")
        for name, (med, q1, q3, spread) in info["metrics"].items():
            print(f"  {name:12s} median {med:12.4f}  Q1 {q1:12.4f}  Q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bounds.get(name, '-')}")


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=HERE / "_out" / "spread.jsonl")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        first, second = (summarize(load(path)) for path in args.compare)
        bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
        for workload in first:
            for name, (med, *_rest) in first[workload]["metrics"].items():
                med2 = second[workload]["metrics"][name][0]
                better = next(m["better"] for m in CONFIG["end_to_end"] if m["name"] == name)
                worse = (med2 - med) / med if better == "lower" else (med - med2) / med
                print(f"{workload:12s} {name:12s} {med:12.4f} -> {med2:12.4f}  "
                      f"worse by {worse:+.3f} (bound {bounds[name]})")
        return 0

    args.out.parent.mkdir(exist_ok=True)
    workloads = [w["name"] for w in CONFIG["workloads"]]
    for workload in workloads:
        for seed in SEEDS:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]), "--trace", "0"],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            row = json.loads(lines[-1])
            row.update(next((json.loads(line[7:]) for line in lines if line.startswith("detail ")), {}))
            row.update(workload=workload, seed=seed, elapsed=time.perf_counter() - start)
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: {row['elapsed']:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in row["metrics"].items()),
                  flush=True)
    show(summarize([row for row in load(args.out)
                    if row["workload"] in workloads]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
