"""Machine-speed calibration: a fixed kernel timed between jobs.

On a shared host the same job can take 1.5x longer for seconds or minutes
at a time, whatever the program does.  A run therefore also times a fixed
piece of work that does not use the program: scalar Python calls (the
shape of the quadrature integrands) followed by numpy array work (the
shape of the samplers).  Pieces run before the first job of a pass and
after every job (and around every set-up probe), each batch until it has
taken ``SHARE`` of the time just measured, so they sample the machine
where and as long as the program runs.

``to_reference`` scales a measured time by ``REFERENCE_S`` over the mean
piece time of the batches just before and just after it.  The result is
in *reference seconds*: the time the job would have taken on a machine
where one piece takes ``REFERENCE_S``.  The mean, not the median, is
used because the host alternates between a fast and a slow state within
a second, and a job's time follows the share of time spent in each, which
the mean of the pieces measures and the median does not.  The kernel is
fixed here and never calls ``starparadox``, so a change to the program
moves reference seconds and a change of machine speed mostly does not.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the unit of reference seconds: about the mean piece time on a lightly loaded
# 2-vCPU Intel Xeon at 2.0 GHz with Python 3.11.7 and numpy 2.4.6
REFERENCE_S = 0.009
SHARE = 0.1
# the batch before the first job of a pass runs at least this long
LEAD_S = 0.1

_ARRAY = np.random.default_rng(20091104).random(1 << 15)


def _integrand(x: float) -> float:
    return math.exp(-x) * math.sqrt(1.0 + x * x)


def piece() -> float:
    """Seconds one calibration piece takes."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += _integrand(i * 1e-5)
    for _ in range(8):
        acc += float(np.log1p(np.exp(-_ARRAY)).sum()) + float(np.sort(_ARRAY)[100])
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite sum")
    return seconds


def batch(seconds: float) -> list[float]:
    """Piece times of pieces run until they have taken seconds (at least one piece)."""
    pieces = [piece()]
    while sum(pieces) < seconds:
        pieces.append(piece())
    return pieces


def to_reference(measured_s: float, before: list[float], after: list[float]) -> float:
    """measured_s in reference seconds, from the piece batches around it."""
    return measured_s * REFERENCE_S / statistics.fmean(before + after)


class Calibrator:
    """Runs the batches of one run and keeps every piece time."""

    def __init__(self):
        self.pieces: list[float] = []

    def run(self, seconds: float) -> list[float]:
        pieces = batch(seconds)
        self.pieces.extend(pieces)
        return pieces

    def lead(self) -> list[float]:
        """The batch before a pass or probe."""
        return self.run(LEAD_S)

    def follow(self, measured_s: float) -> list[float]:
        """The batch after a job or probe that took measured_s."""
        return self.run(SHARE * measured_s)

    def factor(self) -> float:
        """REFERENCE_S over the run's mean piece time (reported, not applied)."""
        return REFERENCE_S / statistics.fmean(self.pieces)
