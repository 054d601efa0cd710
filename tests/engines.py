"""Engine-equivalence helpers: the staged reference core and observers.

:class:`~repro.polyflow.core.PolyFlowCore` runs the staged engine
exactly when a verbose sink is attached and the event-calendar kernel
otherwise.  The equivalence suites pin the kernel to the staged
specification by running the same job on a plain core and on
:class:`StagedReferenceCore` and comparing everything either engine can
make observable.
"""

import io
from unittest import mock

import repro.experiments.runner as runner_module
from repro.cfg import build_program_cfgs
from repro.obs import LIFECYCLE_KINDS, JsonlTraceWriter
from repro.polyflow import MachineConfig, PolyFlowCore
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, profile_spawn_points


class _DiscardingSink:
    """A verbose sink that drops every event."""

    def on_event(self, event):
        pass


class StagedReferenceCore(PolyFlowCore):
    """Forces the staged reference engine.

    Attaching a verbose sink — here one that discards every event — is
    what selects ``_run_staged``; every other sink sees exactly what it
    would see on the kernel.  Comparing this against a plain
    ``PolyFlowCore`` (which takes the event kernel) pins the two
    engines to each other.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bus.attach(_DiscardingSink(), verbose=True)


def job(name, spec, scale, config):
    """A ``make_core`` for :func:`observe_both`: one
    :func:`~repro.experiments.runner.build_core` job on a given core
    class, so every job shape it knows (policy specs, the reconvergence
    spawner, the superscalar baseline) can run on either engine."""

    def make_core(core_cls):
        with mock.patch.object(runner_module, "PolyFlowCore", core_cls):
            return runner_module.build_core(name, spec, scale, config)

    return make_core


def program_job(program, spec, config=None):
    """A ``make_core`` for :func:`observe_both`: ``program`` under the
    ``spec`` policy on ``config``, by default a machine that spawns at
    distance 2, so small generated programs still spawn."""
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy(spec)
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy, min_loop_task_size=4)
    if config is None:
        config = MachineConfig(min_spawn_distance=2)
    return lambda core_cls: core_cls(trace, config, hints)


def _nonzero(counts):
    return {key: value for key, value in counts.items() if value}


def machine_state(core):
    """End-of-run machine state that :class:`SimStats` does not show.

    Cache LRU sets, the branch, indirect-target and store-set predictor
    tables, and the spawn unit's feedback counters.  The kernel batches
    straight-line runs where the staged engine steps one instruction at
    a time, so equal state means batching reordered no access.
    """
    unit = core.spawn_unit
    store_sets = core.store_sets
    return {
        "caches": core.hierarchy.snapshot_sets(),
        "gshare": (list(core.gshare.counters), core.gshare.history),
        "indirect": dict(core.indirect_predictor._last_target),
        "store_sets": (
            dict(store_sets._store_sets),
            store_sets.predictions,
            store_sets.violations,
        ),
        "spawn_unit": (
            _nonzero(unit.spawn_counts),
            _nonzero(unit.squash_counts),
            sorted(unit._suppressed),
        ),
    }


def observe(core):
    """Run ``core`` with a lifecycle JSONL sink attached.

    Returns ``(stats dict, lifecycle stream text, machine state)``.
    """
    buffer = io.StringIO()
    writer = core.bus.attach(
        JsonlTraceWriter(buffer, kinds=LIFECYCLE_KINDS), verbose=False
    )
    stats = core.run()
    writer.close()
    return stats.as_dict(), buffer.getvalue(), machine_state(core)


def observe_both(make_core):
    """:func:`observe` one job on the event kernel and on the staged
    engine; ``make_core(core_cls)`` builds a fresh, unrun core.

    Returns ``(kernel observation, staged observation)`` after checking
    that each core really took the engine it stands for.
    """
    kernel_core = make_core(PolyFlowCore)
    staged_core = make_core(StagedReferenceCore)
    assert not kernel_core.bus.verbose
    assert staged_core.bus.verbose
    return observe(kernel_core), observe(staged_core)
