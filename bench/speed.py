"""The host's speed, read from a fixed piece of work between operations.

The shared machines this benchmark runs on change speed by a quarter or more
for tens of seconds at a time, and every operation slows with them.  The
runner times a gauge, a fixed piece of work that never calls the program,
between operations, and scales each measured time by ``ref_s / t_gauge``:
end-to-end times read as they would on a CPU where the gauge takes
``ref_s``.  A program that gets slower still reads slower; raw times are
printed and recorded beside the scaled ones.

Each workload uses the gauge that slows most like its own operations:

- ``loop``, a pure-Python loop, for in-process calls.  A reading is short,
  so an interval is scaled by the readings within about two seconds of it;
- ``start``, one bare interpreter start (``python -I -c pass``), for
  command-line processes.  It is read after every operation, and an
  operation is scaled by the two readings around it.  The loop tracks
  process start-up poorly: a cold ``roeclass`` process slows by about half
  as much as the loop does.  Set-up time, mostly imports in fresh
  interpreters, is scaled by this gauge in every workload.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

EVERY_S = 0.25  # the runner reads the gauge after the first operation past this
LOOP_N = 5000


def _loop() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return perf_counter() - t0


def _start() -> float:
    t0 = perf_counter()
    # output captured: a timed wait on a child without pipes polls with
    # sleeps of up to 50 ms
    subprocess.run([sys.executable, "-I", "-c", "pass"], capture_output=True, check=True,
                   timeout=60)
    return perf_counter() - t0


# name: (time of one run on the reference CPU, runs per reading,
#        readings on each side of an interval that scale it, one timed run)
GAUGES = {"loop": (0.0005, 9, 8, _loop), "start": (0.07, 1, 1, _start)}


class Gauge:
    """Readings of one gauge, each tagged with the number of operations
    done before it."""

    def __init__(self, name: str):
        self.ref_s, self.reps, self.window, self._once = GAUGES[name]
        self.readings: list[tuple[int, list[float]]] = []
        self.read(0)

    def read(self, ops_done: int):
        self.readings.append((ops_done, [self._once() for _ in range(self.reps)]))
        self.at = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self.at >= EVERY_S

    def scale(self, latency: list[float]) -> tuple[list[float], list[float]]:
        """Scaled times of ``latency`` and the factor of each interval.  The
        last reading must follow the last operation."""
        r = self.readings
        scaled, factors = [], []
        for i in range(1, len(r)):
            near = [t for _, ts in r[max(0, i - self.window):i + self.window] for t in ts]
            f = self.ref_s / statistics.median(near)
            factors.append(f)
            scaled.extend(dt * f for dt in latency[r[i - 1][0]:r[i][0]])
        return scaled, factors
