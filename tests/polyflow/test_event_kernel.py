"""Edge cases of the event-calendar time-skip kernel.

The differential and golden suites pin the kernel against whole
workloads; these tests aim the calendar's corners directly — stall
windows with every task asleep, multiple events due on the same cycle,
minimum-latency completions, squashes landing inside a skip window —
and the engine-selection contract (when the kernel runs, and when the
staged reference engine takes over).

Each equivalence check compares the kernel against the staged engine
on the same job: identical :class:`SimStats`, an identical non-verbose
lifecycle event stream, byte for byte, and identical end-of-run
machine state.
"""

import dataclasses
import io

import pytest

import repro.polyflow.core as core_module

from repro.cfg import build_program_cfgs
from repro.errors import SimulationError
from repro.isa import assemble
from repro.obs import EventBus, JsonlTraceWriter
from repro.polyflow import MachineConfig, PolyFlowCore
from repro.polyflow.spawn_unit import SpawnUnit
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, profile_spawn_points

from tests.engines import StagedReferenceCore, observe, observe_both
from tests.strategies import pinned_violating_program


def _prepare(source, spec="postdoms", **config_kwargs):
    program = assemble(source)
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy(spec)
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy, min_loop_task_size=4)
    config = MachineConfig(min_spawn_distance=2, **config_kwargs)
    return trace, config, hints


def _assert_kernel_equivalent(trace, config, hints):
    """Kernel == staged engine; returns the stats dict for extra shape
    assertions by the caller."""
    kernel, staged = observe_both(
        lambda core_cls: core_cls(trace, config, hints)
    )
    assert kernel == staged
    return staged[0]


# -- calendar edge cases ----------------------------------------------------------


_DEPENDENT_LOADS = """
.data
buf: .word 11, 22, 33, 44, 55, 66, 77, 88
.text
    la   r1, buf
    lw   r2, 0(r1)
    add  r3, r2, r2
    lw   r4, 8(r1)
    add  r5, r4, r3
    lw   r6, 16(r1)
    add  r7, r6, r5
    lw   r8, 24(r1)
    add  r9, r8, r7
    halt
"""


def test_all_tasks_stalled_skip_on_cold_cache_misses():
    """A serial chain of cold-cache loads freezes the whole machine for
    the full miss latency; the calendar must jump those windows without
    perturbing a single timestamp."""
    trace, config, hints = _prepare(_DEPENDENT_LOADS, warm_caches=False)
    stats = _assert_kernel_equivalent(trace, config, hints)
    # The miss windows really existed: far more cycles than a warm run
    # of the same ten instructions could take.
    assert stats["cycles"] > 4 * stats["retired_instructions"]


_TWIN_MULS = """
.text
    li   r1, 6
    li   r2, 7
    mul  r3, r1, r2
    mul  r4, r2, r1
    add  r5, r3, r4
    add  r6, r4, r3
    halt
"""


def test_two_events_due_the_same_cycle():
    """Two multiplies issued in the same cycle complete in the same
    cycle — two calendar entries at one timestamp — and both consumers
    wake together; ties must drain in program order."""
    trace, config, hints = _prepare(_TWIN_MULS)
    _assert_kernel_equivalent(trace, config, hints)


def test_min_latency_completions_wake_next_cycle():
    """With ``mul_latency`` floored at one cycle every completion lands
    on the very next calendar slot, so the kernel can never skip; it
    must degrade to cycle-exact stepping, not break."""
    trace, config, hints = _prepare(_TWIN_MULS, mul_latency=1)
    _assert_kernel_equivalent(trace, config, hints)


def test_zero_latency_config_fails_identically():
    """``mul_latency=0`` (completion due the cycle of issue) deadlocks
    the machine model — the cycle-exact engine raises its no-progress
    guard.  The kernel's degenerate calendar entry must surface the
    same failure rather than hanging or silently diverging, and its
    ``finally`` sync must leave the same counters behind."""
    trace, config, hints = _prepare(_TWIN_MULS, mul_latency=0)
    staged = StagedReferenceCore(trace, config, hints)
    kernel = PolyFlowCore(trace, config, hints)
    assert kernel._uses_kernel()
    with pytest.raises(SimulationError):
        observe(staged)
    with pytest.raises(SimulationError):
        observe(kernel)
    assert kernel._cycle == staged._cycle
    assert kernel._retire_ptr == staged._retire_ptr
    assert kernel.stats.as_dict() == staged.stats.as_dict()


def test_squash_lands_mid_skip():
    """A memory-order violation squashes speculative tasks while cold
    caches keep long skip windows open: recovery re-fetch timing must
    survive the clock jumps."""
    program = pinned_violating_program()
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy("hammock")
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy, min_loop_task_size=4)
    config = MachineConfig(min_spawn_distance=2, warm_caches=False)
    stats = _assert_kernel_equivalent(trace, config, hints)
    assert stats["violation_squashes"] > 0


# -- engine selection -------------------------------------------------------------


def _spy_on_engines(monkeypatch):
    """Record which engine each run takes: ``"kernel"`` or ``"staged"``."""
    calls = []
    real_kernel = core_module.run_event_kernel
    real_staged = PolyFlowCore._run_staged

    def kernel(core):
        calls.append("kernel")
        return real_kernel(core)

    def staged(core):
        calls.append("staged")
        return real_staged(core)

    monkeypatch.setattr(core_module, "run_event_kernel", kernel)
    monkeypatch.setattr(PolyFlowCore, "_run_staged", staged)
    return calls


def _run_core(trace, config, hints, *, verbose=False, core_cls=PolyFlowCore):
    bus = EventBus()
    if verbose:
        bus.attach(JsonlTraceWriter(io.StringIO()), verbose=True)
    return core_cls(trace, config, hints, bus=bus).run()


def test_kernel_selected_for_nonverbose_runs(monkeypatch):
    """The default bus (statistics only) runs the event kernel."""
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    _run_core(trace, config, hints)
    assert calls == ["kernel"]


def test_verbose_bus_falls_back_to_cycle_exact(monkeypatch):
    """Verbose emission needs every cycle visited, so attaching a
    verbose sink selects the staged engine."""
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    _run_core(trace, config, hints, verbose=True)
    assert calls == ["staged"]


def test_kernel_disabled_by_flag(monkeypatch):
    """``MachineConfig.nested_spawns`` lets non-tail tasks spawn, which
    the kernel's tail-only spawn path does not model: the flag selects
    the staged engine."""
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    _run_core(trace, dataclasses.replace(config, nested_spawns=True), hints)
    assert calls == ["staged"]


def test_stage_hook_subclass_runs_staged(monkeypatch):
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    _run_core(trace, config, hints, core_cls=StagedReferenceCore)
    assert calls == ["staged"]


class _PassThroughSpawnUnit(SpawnUnit):
    def spawn_target(self, trace_index, pc):
        return SpawnUnit.spawn_target(self, trace_index, pc)


def test_spawn_target_override_runs_staged(monkeypatch):
    """The kernel reads pre-resolved spawn targets, so a spawn unit
    that overrides ``spawn_target`` selects the staged engine."""
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    core = PolyFlowCore(trace, config, hints)
    core.spawn_unit = _PassThroughSpawnUnit(trace, hints, config)
    core.run()
    assert calls == ["staged"]


def test_kernel_requires_block_tables(monkeypatch):
    """The kernel runs on block tables cut at the spawn unit's
    candidates; swapping the unit after construction (as the
    reconvergence spawner does) recompiles them before the run."""
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    core = PolyFlowCore(trace, config, hints)
    core.spawn_unit = SpawnUnit(trace, hints, config)
    assert core._compiled_for is not core.spawn_unit
    core.run()
    assert calls == ["kernel"]
    assert core._compiled_for is core.spawn_unit
