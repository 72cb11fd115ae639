"""Reference kernel: a fixed stdlib-only workload that measures host speed.

The benchmark times it around and during every operation and divides the
operation's time by it, so a host that runs slower or faster for a while
moves both by the same factor.  It imports nothing from rmlab, so no change
to the program under test can move it.  Its mix (small ``Fraction``
arithmetic, tuple hashing, dict traffic, short big-integer products) follows
the mix rmlab's exact layers spend their time in.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from fractions import Fraction

# Nominal time of one kernel sample, in seconds.  Normalised times are raw
# times multiplied by NOMINAL_S / measured sample time, i.e. they read as
# seconds on a host where one sample takes exactly this long.
NOMINAL_S = 0.0004

# A running operation is interrupted every PROBE_PERIOD_S of wall time to
# take one sample; the samples' own time is subtracted from the operation's.
PROBE_PERIOD_S = 0.01

# Set-up is mostly interpreter start-up, which the CPU-bound body above does
# not track, so it is normalised by a reference start instead: a fresh
# interpreter importing the stdlib modules rmlab imports, and nothing else.
START_CMD = [sys.executable, "-c",
             "import concurrent.futures, dataclasses, fractions, json, math, random"]
NOMINAL_START_S = 0.1


def _body() -> int:
    acc = Fraction(0)
    for i in range(1, 41):
        acc += Fraction(2 * i + 1, 3 * i + 2) * Fraction(i, i * i + 1)
    table: dict = {}
    for i in range(400):
        key = (i % 17, i * 7 % 23, i // 11)
        table[key] = table.get(key, 0) + i
    big = 1
    for i in range(1, 60):
        big = big * (i * 1_000_003 + 7) % (1 << 192)
    return acc.numerator % 97 + len(table) + big % 89


def sample() -> float:
    """Wall time of one run of the kernel body, in seconds."""
    t0 = time.perf_counter()
    _body()
    return time.perf_counter() - t0


def samples(n: int) -> list[float]:
    return [sample() for _ in range(n)]


def start_time(cwd) -> float:
    """Wall time of one reference interpreter start, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run(START_CMD, cwd=cwd, check=True)
    return time.perf_counter() - t0


class Probe:
    """Samples the kernel from a SIGALRM timer while an operation runs.

    Signal handlers run between bytecodes of the main thread, so a sample
    lands inside the operation, at most PROBE_PERIOD_S apart; ``stop``
    returns the samples taken and the wall time they took."""

    def __init__(self):
        self.taken: list[float] = []
        self.spent = 0.0
        self._mark = (0, 0.0)
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        _body()
        dt = time.perf_counter() - t0
        self.taken.append(dt)
        self.spent += dt

    def start(self) -> None:
        self._mark = (len(self.taken), self.spent)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> tuple[list[float], float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        n0, s0 = self._mark
        return self.taken[n0:], self.spent - s0
