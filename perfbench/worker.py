"""One workload in one process: set up, repeat whole rounds of CLI calls for
the given time, check the outputs, and print one JSON line.

Started by run.py, which passes its clock reading at spawn as --t0 so that
set-up time counts from process start.  With --setup-only it stops after
set-up.  With --trace 1 it alternates untraced rounds with rounds in which
the loewy functions are wrapped (tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Round:
    wall: float
    attempted: int
    failed: int
    stdouts: list[str]
    digest: str


def call(cli, argv: list[str]) -> tuple[float, int | None, str]:
    """Run one CLI command in this process; stdout is captured."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, the run goes on
        traceback.print_exc()
        rc = None
    return time.perf_counter() - start, rc, buf.getvalue()


def run_round(cli, workload) -> Round:
    workload.prepare()
    wall = 0.0
    failed = 0
    stdouts = []
    calls = workload.calls()
    for argv in calls:
        seconds, rc, out = call(cli, argv)
        wall += seconds
        failed += rc != 0
        stdouts.append(out)
    digest = hashlib.sha256()
    for out in stdouts:
        digest.update(out.encode())
    for path in workload.artifacts():
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return Round(wall, len(calls), failed, stdouts, digest.hexdigest())


def measure(cli, workload, seconds: float) -> list[Round]:
    """Whole rounds until another round of median length would overrun."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, workload))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall for r in rounds) > seconds:
            return rounds


def measure_traced(cli, workload, seconds: float, spans_path: Path):
    """Pairs of rounds, the first untraced and the second with every listed
    loewy function wrapped, so that both halves of the tracing overhead see
    the same machine.  Returns the untraced rounds, the traced rounds and
    each traced round's layer metrics; the spans of all traced rounds are
    written once the rounds end."""
    from tracing import Tracer, root_time, self_times

    tracer = Tracer()
    plain, traced, per_round, kept = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_round(cli, workload))
        tracer.reset()
        tracer.install()
        try:
            rnd = run_round(cli, workload)
        finally:
            tracer.remove()
        traced.append(rnd)
        spans = list(tracer.spans)
        kept.append(spans)
        layer = {f"{name}.self_s": value for name, value in self_times(spans).items()}
        layer.update(tracer.counts)
        layer["trace.wall_s"] = rnd.wall
        layer["trace.unaccounted_s"] = rnd.wall - root_time(spans)
        layer["trace.spans"] = len(spans)
        per_round.append(layer)
        elapsed = time.perf_counter() - start
        pair = statistics.median(r.wall for r in plain) + statistics.median(r.wall for r in traced)
        if elapsed + pair > seconds:
            break
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for number, spans in enumerate(kept):
            for name, start, end, parent in spans:
                handle.write(json.dumps({"round": number, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
    return plain, traced, per_round


def layer_metrics(per_round: list[dict], plain_wall: float) -> dict:
    """Every per-layer metric BENCHMARK.json names: the median over the traced
    rounds of its per-round total (0 where the layer did no work)."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for metric in config["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = statistics.median(r["trace.wall_s"] for r in per_round) - plain_wall
        else:
            value = statistics.median(r.get(name, 0) for r in per_round)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from loewy import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"loewy was imported from {cli.__file__}, not from this checkout")
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]()
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.setup(work, lambda argv: call(cli, argv))
        setup_s = time.perf_counter() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            rounds, traced, per_round = measure_traced(
                cli, workload, args.seconds, HERE / "_out" / f"{args.workload}.spans.jsonl")
        else:
            rounds, traced = measure(cli, workload, args.seconds), []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = statistics.median(r.wall for r in rounds)
        result = {"setup_s": setup_s, "wall_s": wall, "walls": [r.wall for r in rounds],
                  "peak_rss_mb": peak_rss_mb}
        if args.trace:
            result["layers"] = layer_metrics(per_round, wall)
        rounds += traced

        correct = len({r.digest for r in rounds}) == 1
        if not correct:
            print("outputs differ between rounds", file=sys.stderr)
        try:
            workload.check(rounds[0].stdouts, random.Random(args.seed))
            result["items"] = workload.items(rounds[0].stdouts)
        except (CheckFailed, LookupError, ValueError):  # malformed or wrong outputs
            traceback.print_exc()
            correct = False
            result["items"] = 0
        result.update(correct=correct,
                      attempted=sum(r.attempted for r in rounds),
                      failed=sum(r.failed for r in rounds))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
