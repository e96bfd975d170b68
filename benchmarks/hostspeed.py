"""Host-speed calibration for wall times.

On a shared host the same computation runs up to 1.6x slower for tens of
seconds at a time, and CPU time slows with it, so medians of raw wall
times differ by more than any useful regression bound from one run to
the next.  A fixed pure-Python loop, run between operations, slows by
about as much as the library does.  Each timed operation is scaled by
``REFERENCE_S / (median of the latest loop times)``: the time it would
have taken on a host where the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

# Median time of ``calibration_loop`` on the host the README's figures
# come from; scaled times read as that host's typical milliseconds.
REFERENCE_S = 0.0057
SAMPLE_EVERY_S = 0.25
WINDOW = 3


def calibration_loop() -> Fraction:
    """Fraction arithmetic, tuple and dict building, and list indexing,
    the operations the library spends its time in."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    word: tuple = ()
    rows = [[0] * 8 for _ in range(64)]
    for i in range(1, 800):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + i
        word = word[-40:] + (key,)
        rows[i % 64][i % 8] = rows[(i * 7) % 64][(i + 3) % 8] + len(word)
    return acc


class HostSpeed:
    """Recent calibration-loop times and the scale factor they give."""

    def __init__(self):
        self.samples: deque[float] = deque(maxlen=WINDOW)
        self.last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        calibration_loop()
        self.last = perf_counter()
        self.samples.append(self.last - start)

    def refresh(self) -> None:
        """Sample again if ``SAMPLE_EVERY_S`` has passed since the last sample."""
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
