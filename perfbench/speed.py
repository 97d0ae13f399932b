"""Machine-speed calibration for the end-to-end times.

The benchmark runs on a shared machine whose speed drifts by tens of
percent, within seconds and over minutes, and CPU time drifts with it.
``calibrate()`` times a fixed job of the same kind as the program's work
(exact rational arithmetic, small allocations and string formatting).
Each measured time is multiplied by ``REF_S / calibration``, with the
calibrations taken around it (``window_factors``), so a time reads as it
would on a machine where the job takes ``REF_S`` seconds: it is a time "at
reference speed".  ``REF_S`` is the median calibration measured in the
workload loops on the 2-vCPU machine of the recorded results (over 60
runs made just before them: ten seeds, three workloads, two sets), so
there the scaled times are close to the measured ones; perfbench/results
gives each run's median calibration as ``calibration_ms``.  A change to
the program moves the scaled times; a change in the machine's speed does
not.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.0078
_STEPS = 1000


def calibrate():
    """Seconds taken by the fixed job."""
    t0 = perf_counter()
    a, step, shift = Fraction(3, 7), Fraction(5, 11), Fraction(1, 3)
    words = []
    for _ in range(_STEPS):
        a = a * step + shift
        a = Fraction(a.numerator % 10 ** 12, a.denominator % 10 ** 12 or 1)
        words.append("%d/%d" % (a.numerator, a.denominator))
    " ".join(words)
    return perf_counter() - t0


def window_factors(cals, reach):
    """Factor for each window of time between consecutive calibrations:
    ``REF_S`` over the median of the calibrations at most ``reach`` windows
    away from it.  With reach 1 these are the two calibrations that bound
    the window; a larger reach averages out the calibration job's own
    noise where windows are short."""
    return [REF_S / statistics.median(cals[max(0, i - reach + 1):i + reach + 1])
            for i in range(len(cals) - 1)]
