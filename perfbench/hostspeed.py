"""How fast the host runs Python right now, measured in a separate process.

A shared host's speed wanders: in a few seconds the same request can take a
quarter longer or shorter, and for minutes at a time it can run up to 1.75
times faster, as other tenants come and go.  To keep that out of the figures,
a run times a fixed unit of pure-Python work about every 50 ms between
requests, and scales each time it measures by REF_UNIT_NS / (median time of
the units timed within a second of it).  The unit mixes what the program's
requests spend their time on, without calling the program: complex
multiply-adds over Python lists (the fallback kernels), Fraction arithmetic
(the exact backend) and JSON encoding (the CLI's output).

The unit runs in a child interpreter that has not imported the program, so
nothing the program does to its own process (hooks, threads, garbage
collector settings) can slow the unit and hide a slowdown of the program.
The parent waits while the child works, so the two never compete.

Run as a script, this file is the child: it answers each line on stdin with
the nanoseconds one unit took, and exits at end of input.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

#: the unit's median time on the reference host (2-vCPU shared VM, Python 3.11)
REF_UNIT_NS = 800_000
#: least busy time between two units
INTERVAL_NS = 50_000_000
#: a time is scaled by the units timed within this distance of it ...
WINDOW_NS = 1_000_000_000
#: ... or by the nearest this many, where fewer fall inside
MIN_UNITS = 9


def unit():
    """A fixed piece of interpreter-bound work, about 0.8 ms on the reference host."""
    av = [complex(i, -i) / 7 for i in range(48)]
    acc = 0j
    for n in range(48):
        for k in range(n + 1):
            acc = acc + av[k] * av[n - k]
    q = Fraction(1, 3)
    for i in range(1, 30):
        q = q * Fraction(7, 5) - Fraction(1, i + 2)
    row = [{"re": repr(i / 7), "im": str(Fraction(i, 7))} for i in range(60)]
    return acc, q, len(json.dumps(row))


def _serve():
    unit()  # warm up
    for _ in sys.stdin.buffer:
        t0 = time.perf_counter_ns()
        unit()
        sys.stdout.write(f"{time.perf_counter_ns() - t0}\n")
        sys.stdout.flush()


class HostSpeed:
    """Parent side: a child that times `unit`; use as a context manager."""

    def __init__(self):
        self.ns = []
        self.at = []  # perf_counter_ns when each unit was timed
        self._last = 0
        self._child = None

    def __enter__(self):
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        child, self._child = self._child, None
        child.stdin.close()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()

    def sample(self):
        """Time one unit now."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("host-speed child exited")
        self.ns.append(int(line))
        self._last = time.perf_counter_ns()
        self.at.append(self._last)

    def tick(self):
        """Time one unit if INTERVAL_NS has passed since the last."""
        if time.perf_counter_ns() - self._last >= INTERVAL_NS:
            self.sample()

    def factor(self) -> float:
        """What a time measured in this run is multiplied by, on the run's median speed."""
        return REF_UNIT_NS / statistics.median(self.ns)

    def factor_at(self, t_ns: int) -> float:
        """What a time measured at perf_counter_ns t_ns is multiplied by."""
        lo = bisect_left(self.at, t_ns - WINDOW_NS)
        hi = bisect_right(self.at, t_ns + WINDOW_NS)
        if hi - lo < MIN_UNITS:
            mid = bisect_left(self.at, t_ns)
            lo = max(0, min(mid - MIN_UNITS // 2, len(self.at) - MIN_UNITS))
            hi = min(len(self.at), lo + MIN_UNITS)
        return REF_UNIT_NS / statistics.median(self.ns[lo:hi])


if __name__ == "__main__":
    _serve()
