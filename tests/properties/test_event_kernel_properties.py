"""Property-based equivalence of the event kernel and the staged spec:
statistics and event streams.

On randomly generated programs — plain hammock loops and the
violation-provoking store/load hammocks — the event-calendar kernel
must be observationally identical to the staged reference engine
stepping every cycle: same :class:`SimStats` and the same lifecycle
event stream, event for event.  (The end-of-run machine state is pinned
on the same strategies in ``test_engine_state_properties.py``.)
"""

from hypothesis import given, settings

from tests.helpers import examples

from tests.engines import observe_both, program_job
from tests.strategies import random_hammock_programs, violating_programs


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
