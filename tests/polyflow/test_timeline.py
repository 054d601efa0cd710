"""Tests for the Figure 4 fetch-timeline tracer and trace slicing."""

from repro.cfg import build_program_cfgs
from repro.isa import assemble
from repro.polyflow import MachineConfig, TimelineTracer, trace_fetch_timeline
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, profile_spawn_points

_SOURCE = """
    .text
    main:
        li   r10, 30
        la   r9, bits
    loop:
        lw   r2, 0(r9)
        bne  r2, r0, arm
        addi r3, r3, 1
        xor  r5, r5, r3
        add  r6, r6, r3
        j    join
    arm:
        addi r4, r4, 1
        or   r5, r5, r4
        sub  r6, r6, r4
    join:
        addi r9, r9, 8
        addi r10, r10, -1
        bne  r10, r0, loop
        halt
    .data
    bits: .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1,1,0,0,1,0,1,1,0,1,0
"""


def _prepared():
    program = assemble(_SOURCE)
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy("hammock")
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy, min_loop_task_size=4)
    return trace, hints


def test_tracer_records_every_committed_fetch():
    trace, hints = _prepared()
    config = MachineConfig(min_spawn_distance=2)
    tracer = TimelineTracer(trace, config, hints)
    stats = tracer.run()
    committed_fetches = stats.fetched_instructions
    assert len(tracer.fetch_events) == committed_fetches
    # Events are cycle-monotone per task.
    by_task = {}
    for event in tracer.fetch_events:
        last = by_task.get(event.task_id)
        if last is not None:
            assert event.cycle >= last
        by_task[event.task_id] = event.cycle


def test_timeline_renders_multiple_task_rows():
    trace, hints = _prepared()
    config = MachineConfig(min_spawn_distance=2)
    stats, rendered = trace_fetch_timeline(trace, config, hints, bucket=2)
    assert stats.total_spawns > 0
    rows = [line for line in rendered.splitlines() if line.startswith("task")]
    assert len(rows) >= 2  # concurrent fetch from several tasks


def test_timeline_empty_window():
    trace, hints = _prepared()
    config = MachineConfig(min_spawn_distance=2)
    tracer = TimelineTracer(trace, config, hints)
    tracer.run()
    assert "no fetch events" in tracer.render_timeline(start_cycle=10**9)
