"""Property-based equivalence of the event kernel and the staged spec.

On randomly generated programs — plain hammock loops and the
violation-provoking store/load hammocks — the event-calendar kernel
must be observationally identical to the staged reference engine
stepping every cycle: same :class:`SimStats`, the same lifecycle event
stream, event for event, and the same end-of-run machine state (cache
LRU sets, predictor tables, spawn-unit feedback), under the
control-equivalent policy and the squash-heavy hammock policy, on the
standard machine and on drawn edge geometries.  The kernel fetches and
issues whole straight-line runs from the compiled block tables; the
staged engine steps one instruction at a time.
"""

from hypothesis import given, settings

from tests.helpers import examples

from repro.polyflow import PolyFlowCore

from tests.engines import StagedReferenceCore, observe_both, program_job
from tests.strategies import edge_configs, random_hammock_programs, violating_programs


def _assert_time_skip_transparent(program, spec):
    kernel, staged = observe_both(program_job(program, spec))
    kernel_stats, kernel_stream, _ = kernel
    staged_stats, staged_stream, _ = staged
    assert kernel_stream == staged_stream
    assert kernel_stats == staged_stats


@given(random_hammock_programs())
@settings(max_examples=examples(20), deadline=None)
def test_time_skip_transparent_on_random_hammocks(program):
    _assert_time_skip_transparent(program, "postdoms")


@given(violating_programs())
@settings(max_examples=examples(15), deadline=None)
def test_time_skip_transparent_under_violations(program):
    """Squash/refetch recovery inside skip windows: violations land
    mid-flight and the re-fetched region replays cycle-for-cycle."""
    _assert_time_skip_transparent(program, "hammock")


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


@given(random_hammock_programs(), edge_configs())
@settings(max_examples=examples(20), deadline=None)
def test_engines_equivalent_on_edge_geometries(program, config):
    """Tiny structures, a single task or unit, zero latencies, cold
    caches and nested spawns: every observable must still match."""
    kernel, staged = observe_both(program_job(program, "postdoms", config))
    assert kernel == staged


@given(violating_programs(), edge_configs())
@settings(max_examples=examples(15), deadline=None)
def test_engines_equivalent_on_edge_geometries_under_violations(program, config):
    """The squash/refetch path on edge geometries."""
    kernel, staged = observe_both(program_job(program, "hammock", config))
    assert kernel == staged
