"""The analytic speedup estimator (Tier A of the grid stack).

The error-bound test is the model's regression gate: the fixed
200-scenario stratified slice is simulated exactly and the mean
absolute prediction error per spec must stay under the ceiling the
current weights measure (~30/21 points).  Everything here is
deterministic — a failure means the model, the featurizer, or the
simulator changed, not noise.
"""

import pytest

from repro.analysis.estimate import (
    BAND_ABS,
    BAND_REL,
    RATIO_CLAMP,
    RATIO_FEATURES,
    RATIO_WEIGHTS,
    Estimate,
    confidence_band,
    estimate_row,
    estimate_speedup,
    estimated_trace_length,
    mean_absolute_error,
)
from repro.experiments.runner import ExperimentRunner
from repro.workloads import prepare_workload
from repro.workloads.synth import is_catalog_name, stratified_sample

#: Slice token and per-spec error ceilings: the 200-scenario slice
#: measures 30.1 (postdoms) / 21.1 (loop combo) points of mean
#: absolute error at scale 1.0; the ceiling leaves ~2 points for
#: platform float drift, none for model regressions.
_SLICE_TOKEN = "estimator-error-v1"
_SLICE_SIZE = 200
_MAE_CEILING = 32.0
_SPECS = ("postdoms", "loop+procFT+loopFT")


def test_weights_cover_every_feature_plus_intercept():
    for spec, weights in RATIO_WEIGHTS.items():
        assert len(weights) == len(RATIO_FEATURES) + 1, spec
    assert "*" in RATIO_WEIGHTS


def test_estimate_reports_band_and_cycles():
    estimate = estimate_speedup("synth/L1H1C0I0P0S0V0", "postdoms", scale=0.3)
    assert isinstance(estimate, Estimate)
    assert estimate.band == pytest.approx(
        BAND_ABS + BAND_REL * abs(estimate.predicted_speedup)
    )
    assert estimate.baseline_cycles > 0
    assert estimate.polyflow_cycles > 0
    low, high = RATIO_CLAMP
    ratio = estimate.polyflow_cycles / estimate.baseline_cycles
    assert low <= ratio <= high
    # A clamped ratio bounds the speedup a prediction can claim.
    assert (1.0 / high - 1.0) * 100.0 <= estimate.predicted_speedup
    assert estimate.predicted_speedup <= (1.0 / low - 1.0) * 100.0


def test_estimate_resolves_spec_aliases():
    direct = estimate_speedup("synth/L1H1C0I0P0S0V0", "postdoms", scale=0.3)
    aliased = estimate_speedup(
        "synth/L1H1C0I0P0S0V0", "control-equivalent", scale=0.3
    )
    assert aliased.spec == "postdoms"
    assert aliased.predicted_speedup == direct.predicted_speedup


def test_estimate_row_covers_every_spec():
    row = estimate_row("synth/L1H1C0I0P0S0V0", _SPECS, scale=0.3)
    assert set(row) == set(_SPECS)
    for spec, estimate in row.items():
        assert estimate.spec == spec
        assert estimate.error_against(estimate.predicted_speedup) == 0.0


def test_mean_absolute_error_arithmetic():
    assert mean_absolute_error([]) == 0.0
    assert mean_absolute_error([(3.0, 1.0), (-2.0, 2.0)]) == pytest.approx(3.0)


def test_estimator_error_bound_on_fixed_slice():
    """Mean |predicted - exact| per spec over the fixed 200-scenario
    stratified slice stays under the ceiling: the estimator's one
    error gate."""
    names = stratified_sample(_SLICE_SIZE, _SLICE_TOKEN)
    assert len(names) == _SLICE_SIZE
    runner = ExperimentRunner(scale=1.0)
    pairs = {spec: [] for spec in _SPECS}
    for name in names:
        row = estimate_row(name, _SPECS, scale=1.0)
        for spec in _SPECS:
            pairs[spec].append(
                (row[spec].predicted_speedup, runner.speedup(name, spec))
            )
    for spec in _SPECS:
        error = mean_absolute_error(pairs[spec])
        assert error <= _MAE_CEILING, "{}: MAE {:.2f} over ceiling {}".format(
            spec, error, _MAE_CEILING
        )


def test_confidence_band_grows_with_magnitude():
    assert confidence_band(0.0) == BAND_ABS
    assert confidence_band(50.0) > confidence_band(10.0)
    assert confidence_band(-50.0) == confidence_band(50.0)


# -- the scheduler's closed-form trace-length estimate ------------------------


def test_trace_length_estimate_is_catalog_only():
    assert estimated_trace_length("gzip") is None
    assert not is_catalog_name("gzip")


def test_trace_length_estimate_tracks_exact_length():
    """Mean relative error over a stratified sample stays near the
    documented ~20%, and no single scenario strays past 3x (or 64
    instructions on the tiny ones, where relative error is
    meaningless) — far tighter than the scheduler's over-partitioned
    balance needs."""
    errors = []
    for name in stratified_sample(12, "estimate-length-test"):
        estimate = estimated_trace_length(name, 0.5)
        assert isinstance(estimate, int) and estimate >= 1
        exact = len(prepare_workload(name, 0.5).analyses.trace)
        errors.append(abs(estimate - exact) / exact)
        in_band = 1 / 3 <= estimate / exact <= 3.0 or abs(estimate - exact) <= 64
        assert in_band, (name, estimate, exact)
    assert sum(errors) / len(errors) <= 0.35
