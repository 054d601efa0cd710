"""Statistics and host-speed calibration for the end-to-end benchmark.

Host time on a shared machine swings by about 2x for minutes at a time,
while wall time multiplied by the speed of a fixed pure-Python loop stays
roughly constant.  Every host-time metric is therefore *calibrated*: the
raw value is scaled by the loop speed measured around the pass, relative
to the reference speed pinned in ``config.json``, so the reported number
reads as "seconds on the reference host".  Time spent in a fixed sleep
(the service's admission window) is left as it is.
"""

import math
import statistics
import time

#: A tail percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND_TAIL = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)

#: One machine-index reading: the best of this many runs of the loop ...
CALIBRATION_REPEATS = 3
#: ... of this many iterations (about 0.17 s at the reference speed).
CALIBRATION_ITERATIONS = 1_000_000
#: A pass across which the index moved by more than this share is re-run ...
MAX_DRIFT = 0.10
#: ... at most this many times.
MAX_RERUNS = 2


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles.
    """
    values = sorted(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values):
    """Interquartile range as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def tail_percentile(count):
    """The highest of :data:`TAIL_PERCENTILES` leaving at least
    :data:`SAMPLES_BEYOND_TAIL` of ``count`` samples beyond its
    nearest-rank position, or ``None`` when even the median does not."""
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * count)
        if count - rank >= SAMPLES_BEYOND_TAIL:
            return percentile
    return None


def percentile(values, percentile_value):
    """Nearest-rank percentile of ``values``."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(percentile_value / 100.0 * len(values)))
    return values[rank - 1]


def summarize(values, unit):
    """One metric's report entry: median as ``value``, quartiles and n."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def machine_index(iterations=CALIBRATION_ITERATIONS, repeats=CALIBRATION_REPEATS):
    """Operations per second of a fixed pure-Python loop (best of ``repeats``).

    The same loop ``benchmarks/bench_kernel.py`` calibrates with, kept here
    so the end-to-end benchmark does not change when that script does.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(iterations):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return iterations / best


def calibration_factor(readings, before, reference):
    """Scale from raw host time to reference-host time for one pass.

    ``readings`` are machine-index readings in time order, taken by the
    process that measured the pass, which ran between ``readings[before]``
    and ``readings[before + 1]``.  A host slower than the reference (a
    lower index) makes every raw time longer, and multiplying by
    ``index / reference`` undoes that; rates divide by the factor instead.
    The index is the median of the two readings around the pass and, where
    they exist, one more on each side: a reading sometimes dips for a
    fraction of a second while the pass beside it runs at full speed, and
    with four readings the median ignores one such dip.
    """
    window = readings[max(0, before - 1) : before + 3]
    return statistics.median(window) / reference


def calibrated(raw, factor, asleep=0.0):
    """Reference-host time of ``raw`` host seconds, ``asleep`` of which
    were a fixed sleep.

    A sleep lasts as long on a slow host as on a fast one, so only the
    rest scales with the factor.  ``asleep`` is capped at ``raw``.
    """
    asleep = min(asleep, raw)
    return asleep + (raw - asleep) * factor


def drifted(before, after, limit):
    """Whether the host's speed moved by more than ``limit`` across a pass."""
    return abs(after - before) / min(before, after) > limit


def calibrated_pass(
    run_pass, max_drift=MAX_DRIFT, max_reruns=MAX_RERUNS, may_rerun=lambda seconds: True
):
    """Run ``run_pass()`` until its host speed held steady.

    The pass reports the machine index read just before and just after it
    (``index_before``/``index_after`` in its result).  A pass across which
    the index drifted by more than ``max_drift`` is run again, at most
    ``max_reruns`` times and only while ``may_rerun(seconds the attempt
    took)`` allows it; the last attempt is kept either way.  Returns
    ``(result, reruns)``.
    """
    reruns = 0
    while True:
        started = time.monotonic()
        result = run_pass()
        steady = not drifted(result["index_before"], result["index_after"], max_drift)
        if steady or reruns >= max_reruns or not may_rerun(time.monotonic() - started):
            return result, reruns
        reruns += 1
