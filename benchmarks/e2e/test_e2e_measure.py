"""Statistics, calibration and pass-count rules of the end-to-end benchmark."""

import json
import statistics

import pytest

import measure
import service_mix
import workloads


def test_tail_percentile_leaves_ten_samples_beyond():
    assert measure.tail_percentile(1200) == 99.0
    assert measure.tail_percentile(1000) == 99.0
    # 999 samples: p99's nearest rank is 990, leaving only 9 beyond.
    assert measure.tail_percentile(999) == 97.5
    assert measure.tail_percentile(400) == 97.5
    assert measure.tail_percentile(200) == 95.0
    assert measure.tail_percentile(20) == 50.0
    assert measure.tail_percentile(19) is None
    for count in (20, 57, 100, 333, 999, 10_000):
        percentile = measure.tail_percentile(count)
        rank = -(-int(percentile * count) // 100)
        assert count - rank >= measure.SAMPLES_BEYOND_TAIL


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    assert measure.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert measure.quartiles(values)[1] == statistics.median(values)
    assert measure.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_relative_spread_and_summary():
    values = [9.0, 10.0, 10.0, 11.0]
    q1, median, q3 = measure.quartiles(values)
    assert measure.relative_spread(values) == pytest.approx((q3 - q1) / median)
    assert measure.relative_spread([0.0, 0.0]) == 0.0
    summary = measure.summarize(values, "s")
    assert summary == {"value": median, "q1": q1, "q3": q3, "n": 4, "unit": "s"}


def test_calibration_scales_to_the_reference_host():
    # A host at half the reference speed takes twice as long: the
    # calibrated time is the time the reference host would have taken.
    readings = [9e6, 9e6, 9e6]
    assert measure.calibration_factor(readings, 0, 18e6) == 0.5
    assert measure.calibration_factor(readings, 1, 18e6) == 0.5


def test_calibration_ignores_one_dipped_reading():
    readings = [18e6, 18e6, 11e6, 18e6, 18e6]
    # The pass between readings 1 and 2, and the one between 2 and 3.
    assert measure.calibration_factor(readings, 1, 18e6) == 1.0
    assert measure.calibration_factor(readings, 2, 18e6) == 1.0


def test_a_pass_with_only_its_own_readings_takes_their_mean():
    assert measure.calibration_factor([16e6, 20e6], 0, 18e6) == 1.0


def test_calibration_follows_a_lasting_change():
    readings = [18e6, 18e6, 9e6, 9e6, 9e6, 9e6]
    assert measure.calibration_factor(readings, 3, 18e6) == 0.5
    # At the edges the window is clipped to the readings that exist.
    assert measure.calibration_factor(readings, 0, 18e6) == 1.0
    assert measure.calibration_factor(readings, 4, 18e6) == 0.5


def test_a_fixed_sleep_is_not_scaled():
    # 1 s of admission windows in a 2 s round on a host at 0.7x reference.
    assert measure.calibrated(2.0, 0.7, 1.0) == pytest.approx(1.7)
    assert measure.calibrated(2.0, 0.7) == pytest.approx(1.4)
    # A query shorter than one window slept for all of it.
    assert measure.calibrated(0.02, 0.5, 0.025) == 0.02


def test_drift_limit_is_relative_to_the_slower_reading():
    assert not measure.drifted(10e6, 11e6, 0.10)
    assert measure.drifted(10e6, 11.1e6, 0.10)
    assert measure.drifted(11.1e6, 10e6, 0.10)


def _passes(*readings):
    """A pass function returning one attempt per ``(before, after)`` pair."""
    attempts = iter(readings)
    calls = []

    def run_pass():
        before, after = next(attempts)
        calls.append(before)
        return {"attempt": len(calls), "index_before": before, "index_after": after}

    return run_pass, calls


def test_steady_pass_runs_once():
    run_pass, calls = _passes((10e6, 10.2e6))
    result, reruns = measure.calibrated_pass(run_pass, 0.10, 2)
    assert (result["attempt"], reruns) == (1, 0)


def test_drifting_pass_is_rerun():
    run_pass, calls = _passes((10e6, 20e6), (20e6, 20.5e6))
    result, reruns = measure.calibrated_pass(run_pass, 0.10, 2)
    assert (result["attempt"], reruns) == (2, 1)


def test_rerun_limit_keeps_the_last_attempt():
    run_pass, calls = _passes((10e6, 20e6), (20e6, 10e6), (10e6, 20e6), (18e6, 18e6))
    result, reruns = measure.calibrated_pass(run_pass, 0.10, 2)
    assert (result["attempt"], reruns) == (3, 2)
    assert len(calls) == 3


def test_rerun_only_while_allowed():
    run_pass, calls = _passes((10e6, 20e6), (20e6, 20e6))
    result, reruns = measure.calibrated_pass(run_pass, 0.10, 2, may_rerun=lambda seconds: False)
    assert (result["attempt"], reruns) == (1, 0)


def test_machine_index_is_operations_per_second():
    index = measure.machine_index(iterations=10_000, repeats=2)
    assert 1e5 < index < 1e10


def test_budgeted_passes_run_at_least_the_minimum_and_stop_when_exhausted():
    def steady_pass():
        return {"index_before": 18e6, "index_after": 18e6}

    # Instant passes under a zero budget: the minimum still runs.
    assert len(workloads.measure_passes(steady_pass, 15, 0.0)) == workloads.MIN_PASSES
    # A budget longer than the passes there are stops when they run out.
    left = [7]

    def available():
        left[0] -= 1
        return left[0] >= 0

    assert len(workloads.measure_passes(steady_pass, 15, 3600.0, available)) == 7


@pytest.mark.parametrize("trace", [False, True])
def test_a_long_time_budget_plans_only_the_service_rounds_there_are(trace):
    capacity = service_mix.max_rounds()
    # Without a budget every configured round can be re-run to the limit ...
    attempts = 1 + measure.MAX_RERUNS
    assert workloads.service_rounds(15, None, trace) == (
        15 * attempts,
        workloads.TRACE_ROUNDS * attempts if trace else 0,
    )
    # ... a short budget plans its rounds plus re-run spares ...
    assert workloads.service_rounds(15, 15.0, trace)[0] == 8 + 3 * measure.MAX_RERUNS
    # ... an hour would need more fresh cells than exist, so it is capped.
    timed, traced = workloads.service_rounds(15, 3600.0, trace)
    assert timed + traced == capacity
    assert timed > measure.MAX_RERUNS
    plan = service_mix.Plan(0, capacity)
    fresh = [
        json.dumps([cell, query.estimate], sort_keys=True)
        for queries in plan.rounds
        for query in queries
        if query.planned != "memo"
        for cell in query.cells
    ]
    assert len(fresh) == len(set(fresh))
    with pytest.raises(ValueError, match="at most {} rounds".format(capacity)):
        service_mix.Plan(0, capacity + 1)
