"""Host-speed calibration for bench/run.py.

A shared host runs the same code up to ~1.7x slower for stretches of tens
of seconds, when other tenants load the cores. Such a swing would drown a
change to the program, so the benchmark reports every time at a reference
speed: a fixed calibration loop runs before the first step and after each
one, and a step's wall time is scaled by CAL_REF_S over the mean of the two
calibration times beside it.

Import this module after the BLAS thread variables are set.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np
from scipy import stats

# calibration_s() on the reference host (2 shared vCPUs, Intel Xeon) in its
# fast state
CAL_REF_S = 0.031

_RNG = np.random.default_rng(20121004)
_MATRIX = _RNG.random((40, 40))
_VECTOR = _RNG.random(300)
_ROWS = [[f"d{i}", f"w{i % 50}", repr(float(v))]
         for i, v in enumerate(_RNG.random(3000))]


def calibration_s():
    """Wall time of a fixed loop of the kinds of work metamine does:
    interpreted arithmetic and dict updates, a CSV text round trip, small
    numpy calls and a scipy rank. It runs no metamine code and touches no
    file, so only the host's speed moves it."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(200_000):
        acc += (i % 7) * 0.5
        table[i % 211] = acc
    text = io.StringIO()
    csv.writer(text).writerows(_ROWS)
    for _, _, value in csv.reader(io.StringIO(text.getvalue())):
        acc += float(value)
    for _ in range(600):
        np.argsort(_VECTOR)
        _MATRIX @ _MATRIX
        _VECTOR.sum()
    stats.rankdata(_MATRIX, axis=1)
    return time.perf_counter() - t0


class Clock:
    """Times steps at the reference speed: a calibration loop runs before
    the first step and after each one, and a step's wall time is scaled by
    CAL_REF_S over the mean of the calibration times on either side."""

    def __init__(self):
        self.calibrations = [calibration_s()]

    def at_reference(self, wall):
        """Calibrate after a step that took `wall` seconds; returns the
        step's time at the reference speed."""
        self.calibrations.append(calibration_s())
        return wall * CAL_REF_S / statistics.mean(self.calibrations[-2:])
