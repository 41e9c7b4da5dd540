"""Machine-speed calibration.

On machines that share their cores, speed drifts by tens of percent within
minutes.  So a calibration kernel runs between consecutive timed
operations: exact ``Fraction`` arithmetic in plain Python, the kind of work
the library does, written here so that no change to the library can change
it.  An operation's scaled time is its raw time times REFERENCE_S over the
mean of the kernel runs just before and just after it: seconds on a machine
where the kernel takes REFERENCE_S.  Measured on a shared 2-core virtual
machine, scaling this way held the median of repeated library calls within
a few percent while their raw time moved by 20 %.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.002  # kernel time that defines one scaled second

_XS = tuple(Fraction(i, 6 * (i % 5 + 1)) for i in range(1, 30))


def kernel() -> Fraction:
    acc = Fraction(0)
    for x in _XS:
        for y in _XS[::6]:
            acc += (x - y) * (x + y) / (x + 1)
    return acc


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Calibration:
    """Kernel runs between consecutive operations."""

    def __init__(self):
        self.last = kernel_seconds()

    def next(self) -> float:
        """Run the kernel again; return the mean of this run and the last."""
        now = kernel_seconds()
        mean = (self.last + now) / 2
        self.last = now
        return mean
