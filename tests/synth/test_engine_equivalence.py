"""Engine equivalence over synthesized catalog scenarios.

A rotating stratified sample of catalog programs — the rotation token
derives from the catalog's content digest, never from wall clock, so a
given catalog always samples the same scenarios — must run identically
on the event kernel and on the staged reference engine: byte-identical
lifecycle streams and statistics, and the same end-of-run machine
state.
"""

import pytest

from tests.helpers import HYPOTHESIS_PROFILE

from repro.isa import assemble
from repro.workloads.synth import build_scenario, stratified_sample

from tests.engines import observe_both, program_job

_SCALE = 0.4
_SAMPLE = 24 if HYPOTHESIS_PROFILE == "ci-long" else 8


def _sample_names():
    # token defaults to the catalog digest: the sample rotates exactly
    # when the catalog itself changes
    return stratified_sample(_SAMPLE)


def _observe_both(name):
    bundle = build_scenario(name, _SCALE)
    spec = "hammock" if bundle.dials.conflict else "postdoms"
    return observe_both(program_job(assemble(bundle.source), spec))


@pytest.mark.parametrize("name", _sample_names())
def test_block_engine_equivalent_on_catalog_sample(name):
    """The block-at-a-time kernel ends in the per-instruction staged
    engine's machine state."""
    kernel, staged = _observe_both(name)
    assert kernel[2] == staged[2]


@pytest.mark.parametrize("name", _sample_names())
def test_event_kernel_equivalent_on_catalog_sample(name):
    kernel, staged = _observe_both(name)
    assert kernel[:2] == staged[:2]
