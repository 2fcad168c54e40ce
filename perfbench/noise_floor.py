"""The machine's own drift: a fixed 6-million-step pure-Python loop, timed
ten times back to back.  No loewy code runs, so whatever spread it shows
bounds how steady any timing of this benchmark can be.

    python3 perfbench/noise_floor.py
"""

from __future__ import annotations

import statistics
import time

RUNS = 10
STEPS = 6_000_000


def loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(STEPS):
        total += i
    return time.perf_counter() - start


def main() -> None:
    times = [loop() for _ in range(RUNS)]
    q1, median, q3 = statistics.quantiles(times, n=4)
    print(" ".join(f"{t:.3f}" for t in times))
    print(f"min {min(times):.3f} s  median {median:.3f} s  max {max(times):.3f} s  "
          f"quartile spread {(q3 - q1) / median:.3f}")


if __name__ == "__main__":
    main()
