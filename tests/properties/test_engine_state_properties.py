"""Property-based equivalence of the event kernel and the staged spec:
end-of-run machine state.

The event kernel fetches and issues whole straight-line runs from the
compiled block tables; the staged reference engine steps one
instruction at a time.  On randomly generated programs — the plain
hammock loops and the violation-provoking store/load hammocks — both
must leave the machine in the same end-of-run state (cache LRU sets,
predictor tables, spawn-unit feedback), under the control-equivalent
policy and the squash-heavy hammock policy.  (Statistics and event
streams are pinned on the same strategies in
``test_event_kernel_properties.py``.)
"""

from hypothesis import given, settings

from tests.helpers import examples

from repro.polyflow import PolyFlowCore

from tests.engines import StagedReferenceCore, observe_both, program_job
from tests.strategies import random_hammock_programs, violating_programs


def _assert_engines_equivalent(program, spec):
    kernel, staged = observe_both(program_job(program, spec))
    assert kernel[2] == staged[2]


@given(random_hammock_programs())
@settings(max_examples=examples(20), deadline=None)
def test_kernel_state_matches_staged_on_random_hammocks(program):
    _assert_engines_equivalent(program, "postdoms")


@given(violating_programs())
@settings(max_examples=examples(15), deadline=None)
def test_kernel_state_matches_staged_under_violations(program):
    """The squash/refetch recovery path: batched positions are squashed
    mid-run and refetched, and the machine state must still match."""
    _assert_engines_equivalent(program, "hammock")


@given(random_hammock_programs())
@settings(max_examples=examples(10), deadline=None)
def test_kernel_stats_match_staged_without_bus(program):
    """With the default bus (no sink beyond the statistics) the kernel
    takes its quiet-skip and batched-fetch shortcuts in full; stats must
    still be identical."""
    make_core = program_job(program, "postdoms")
    kernel = make_core(PolyFlowCore).run()
    staged = make_core(StagedReferenceCore).run()
    assert kernel.as_dict() == staged.as_dict()
