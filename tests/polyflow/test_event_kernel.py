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
import sys

import pytest

import repro.polyflow.core as core_module

from repro.cfg import build_program_cfgs
from repro.errors import SimulationError
from repro.experiments.__main__ import main as cli_main
from repro.experiments.runner import REC_PRED_SPEC, Cell, build_core
from repro.isa import assemble
from repro.obs import EventBus, JsonlTraceWriter
from repro.polyflow import PAPER_CONFIG, MachineConfig, PolyFlowCore, TimelineTracer
from repro.reconvergence.spawning import ReconvergenceSpawnUnit
from repro.sim import run_program
from repro.sim.gridbatch import run_batch
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
    """A run cut off by its cycle budget (here every budget short of
    the full run, including ones that end inside a cold-miss skip
    window) raises the no-progress guard on both engines.  The kernel's
    ``finally`` sync must leave the counters the staged engine leaves:
    the clock may not jump past the cycle the guard trips in.  (A
    zero-cycle multiply, which used to provoke this, is now rejected by
    ``MachineConfig``.)"""
    cold = {"warm_caches": False}
    for source, overrides in ((_TWIN_MULS, {}), (_DEPENDENT_LOADS, cold)):
        trace, config, hints = _prepare(source, **overrides)
        full = PolyFlowCore(trace, config, hints).run().cycles
        for max_cycles in range(1, full):
            staged = StagedReferenceCore(trace, config, hints, max_cycles=max_cycles)
            kernel = PolyFlowCore(trace, config, hints, max_cycles=max_cycles)
            with pytest.raises(SimulationError):
                observe(staged)
            with pytest.raises(SimulationError):
                observe(kernel)
            assert kernel._cycle == staged._cycle == max_cycles + 1
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


_STORE_FORWARD_LOOP = """
.data
buf: .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20
.text
    la   r9, buf
    li   r10, 16
loop:
    lw   r2, 0(r9)
    mul  r3, r2, r2
    mul  r4, r3, r3
    add  r5, r4, r2
    sw   r5, 4(r9)
    li   r11, 1
    li   r12, 2
    li   r13, 3
    li   r14, 4
    mul  r15, r11, r12
    mul  r16, r13, r14
    j    latch
latch:
    mul  r17, r10, r10
    addi r9, r9, 4
    addi r10, r10, -1
    bne  r10, r0, loop
    halt
"""


def _record_kernel_at_violations(core):
    """At every violation the kernel handles, record the ready heap's
    length and how many heap, completion and wake-up entries sit at or
    past the squash cutoff (read from the kernel's frame just before
    its scrub runs)."""
    records = []
    train_violation = core.store_sets.train_violation

    def spy(store_pc, load_pc):
        frames = {}
        frame = sys._getframe(1)
        while frame is not None:
            frames.setdefault(frame.f_code.co_name, frame.f_locals)
            frame = frame.f_back
        kernel = frames["run_event_kernel"]
        load_index = frames["handle_violation"]["load_index"]
        position = core._task_position_of_index(load_index)
        cutoff = core._tasks[position].start_index

        def past(buckets):
            return sum(index >= cutoff for bucket in buckets for index in bucket)

        heap = kernel["heap"]
        records.append(
            (
                len(heap),
                past([heap]),
                past(kernel["complete_events"].values()),
                past(kernel["ready_events"].values()),
            )
        )
        return train_violation(store_pc, load_pc)

    core.store_sets.train_violation = spy
    return records


def test_squash_scrubs_a_deep_heap_and_both_calendars():
    """A loop-iteration task's load overtakes the older iteration's
    store while two functional units leave a deep ready heap and long
    multiplies keep both calendars holding younger-task entries.  The
    kernel pops heap and calendar entries without re-checking their
    state, so its squash scrub must remove every one of them at or past
    the cutoff: stats, lifecycle stream and machine state must still
    match the staged engine."""
    trace, config, hints = _prepare(
        _STORE_FORWARD_LOOP, spec="loop", functional_units=2, mul_latency=8
    )
    records = None

    def make_core(core_cls):
        nonlocal records
        core = core_cls(trace, config, hints)
        if core_cls is PolyFlowCore:
            records = _record_kernel_at_violations(core)
        return core

    kernel, staged = observe_both(make_core)
    assert kernel == staged
    assert kernel[0]["violation_squashes"] > 0
    # The squash really landed on the state the scrub has to clean.
    assert any(
        heap > config.functional_units and heap_past and complete_past and ready_past
        for heap, heap_past, complete_past, ready_past in records
    ), records


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


def test_nested_spawns_run_on_kernel(monkeypatch):
    """``MachineConfig.nested_spawns`` lets non-tail tasks split their
    segment; the kernel models that split, so the flag keeps it."""
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    _run_core(trace, dataclasses.replace(config, nested_spawns=True), hints)
    assert calls == ["kernel"]


def test_stage_hook_subclass_runs_staged(monkeypatch):
    """A subclass probing a stage hook derives from the reference core,
    whose verbose sink selects the staged engine."""
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    _run_core(trace, config, hints, core_cls=StagedReferenceCore)
    assert calls == ["staged"]


def test_kernel_requires_block_tables(monkeypatch):
    """The kernel runs on block tables cut at the spawn unit's
    candidates; the reconvergence spawner is swapped in after
    construction, so run() compiles them for the unit that runs."""
    calls = _spy_on_engines(monkeypatch)
    core = build_core("gzip", REC_PRED_SPEC, 0.1, PAPER_CONFIG)
    assert type(core.spawn_unit) is ReconvergenceSpawnUnit
    assert core._run_end is None
    core.run()
    assert calls == ["kernel"]
    candidates = core.spawn_unit.spawn_candidate_indices()
    assert candidates
    assert all(core._run_end[cut] == cut for cut in candidates)


def test_metrics_cells_run_on_kernel(monkeypatch):
    """``--emit-metrics`` attaches its aggregator non-verbose: the
    attribution folds lifecycle events, so the cell keeps the kernel."""
    calls = _spy_on_engines(monkeypatch)
    cell = Cell("gzip", "postdoms", PAPER_CONFIG, None)
    (outcome,) = run_batch([cell], 0.1, emit_metrics=True)
    assert calls == ["kernel"]
    totals = outcome.metrics["totals"]
    assert totals["committed"] == outcome.stats.retired_instructions


def test_trace_command_runs_staged(monkeypatch, tmp_path, capsys):
    """The ``trace`` command writes per-instruction events, so its
    verbose JSONL sink selects the staged engine."""
    calls = _spy_on_engines(monkeypatch)
    status = cli_main([
        "trace", "--workload", "gzip", "--policy", "postdoms",
        "--scale", "0.1", "--trace-dir", str(tmp_path),
    ])
    assert status == 0
    assert calls == ["staged"]
    with open(tmp_path / "gzip.postdoms.events.jsonl") as handle:
        assert any('"kind":"fetch"' in line for line in handle)


def test_timeline_tracer_runs_staged(monkeypatch):
    """The Figure 4 tracer records every fetch, so it runs staged."""
    calls = _spy_on_engines(monkeypatch)
    trace, config, hints = _prepare(_DEPENDENT_LOADS)
    tracer = TimelineTracer(trace, config, hints)
    stats = tracer.run()
    assert calls == ["staged"]
    assert len(tracer.fetch_events) == stats.fetched_instructions
