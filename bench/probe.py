"""Machine-speed probe, in a process of its own.

    python3 bench/probe.py

The benchmark host may be shared: over half-minute windows its speed for the
same single-threaded work can drift by a third. A fixed probe, run just
before a unit's process starts and just after it ends, tracks that drift;
one probe between two units serves both.
Times are reported at the reference speed: measured seconds times
REFERENCE_S / probe seconds. The probe runs in this separate process, idle
while a unit runs, so nothing the program leaves in memory can reach it.
The probe mixes interpreter work, NumPy calls on 201-node arrays and NumPy
work on 3201-node arrays.

Protocol: each line read from standard input asks for one sample set; the
reply is one JSON list of probe seconds. The process ends when its standard
input is closed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

# Probe seconds at the reference speed: about the typical probe time on a
# shared 2-core Intel Xeon host with Python 3.11.7 and numpy 2.4.6. Fixed
# once, so that reported times stay comparable between commits.
REFERENCE_S = 0.04
REPEATS = 8

_SMALL = np.linspace(0.0, 1.0, 201)
_LARGE = np.linspace(0.0, 1.0, 3201)


def _once() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(4000):
        acc += float((_SMALL * 1.0001 + 0.5).sum())
    for _ in range(400):
        acc += float(np.sqrt(_LARGE * _LARGE + 1.0).sum())
    k = 0
    for i in range(150000):
        k += i * i
    return time.perf_counter() - t0


def samples() -> list[float]:
    """A few probe repetitions, in seconds."""
    return [_once() for _ in range(REPEATS)]


def speed_seconds(before: list[float], after: list[float]) -> float:
    """The probe time for a unit: the median of the samples taken just
    before and just after it."""
    return statistics.median(before + after)


def main() -> int:
    for _ in sys.stdin:
        sys.stdout.write(json.dumps(samples()) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
